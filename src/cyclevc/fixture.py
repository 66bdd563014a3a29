"""Deterministic demo corpus: formant-synthesized vowel/fricative utterances.

Each utterance strings together vowel syllables (glottal pulse train with
spectral tilt driven through a cascade of formant resonators), fricative
bursts (band-shaped noise), and short pauses, with a declining F0 contour
and per-syllable accents. The corpus is seeded, so repeated generation is
byte-identical; it exists to exercise the full pipeline, not to sound human.

`cyclevc fixture --out-dir corpus` writes the WAV files.
"""

from pathlib import Path

import numpy as np
from scipy.linalg.blas import dtbsv

from .acoustics import FS
from .errors import check
from .sigproc import pulse_positions
from .wavio import write_wav

# formant presets: (F1, F2, F3, F4) in Hz
VOWELS = {
    "a": (760.0, 1250.0, 2600.0, 3400.0),
    "e": (500.0, 1900.0, 2650.0, 3500.0),
    "i": (300.0, 2300.0, 3000.0, 3650.0),
    "o": (450.0, 850.0, 2500.0, 3300.0),
    "u": (330.0, 900.0, 2350.0, 3250.0),
}
FORMANT_BW = (80.0, 110.0, 160.0, 220.0)
VOWEL_AMP = 0.30
FRIC_AMP = 0.06
CROSSFADE = int(0.005 * FS)

DEFAULT_UTTERANCES = 24
DEFAULT_SEED = 20240917


# band of each feedback-coefficient tuple, as long as the longest signal it
# has filtered: 23 bands for the corpus, about 4 MB. A band is read-only once
# built, so callers on any thread can share it; refilling one buffer per call
# instead cost more than the filter itself.
_BANDS = {}


def _all_pole(gain, feedback, x):
    """y[i] = gain * x[i] - sum_k feedback[k - 1] * y[i - k]: the filter
    gain / (1 + feedback[0] z^-1 + ...), run as forward substitution through
    the unit lower-triangular band matrix with the feedback on subdiagonals
    1..len(feedback)."""
    order, n = len(feedback), len(x)
    band = _BANDS.get(feedback)
    if band is None or band.shape[1] < n:
        rows = np.ones((n, order + 1))
        rows[:, 1:] = feedback
        band = rows.T  # Fortran order: its leading columns are contiguous
        band.flags.writeable = False
        _BANDS[feedback] = band
    return dtbsv(order, band[:, :n], gain * x, lower=1, diag=1, overwrite_x=1)


def _resonator(x, freq, bw, fs):
    """Two-pole resonance with roughly unity peak gain."""
    r = np.exp(-np.pi * bw / fs)
    theta = 2.0 * np.pi * freq / fs
    gain = (1.0 - r) * np.sqrt(1.0 - 2.0 * r * np.cos(2.0 * theta) + r * r)
    return _all_pole(gain, (-2.0 * r * np.cos(theta), r * r), x)


def _faded(amp, x):
    """x peak-normalized to amp, with CROSSFADE-sample linear fades at both ends."""
    n = len(x)
    x /= max(np.max(np.abs(x)), 1e-9)
    x *= amp
    # the fade, min(1, distance to the nearer end / CROSSFADE), is 1 between the ends
    ends = np.r_[: min(CROSSFADE, n), max(n - CROSSFADE, 0) : n]
    x[ends] *= np.minimum(ends, n - 1 - ends) / CROSSFADE
    return x


def _glottal_pulses(n, f0_track, fs):
    exc = np.zeros(n)
    exc[pulse_positions(f0_track, fs)] = 1.0
    # -6 dB/octave tilt so the source resembles a glottal flow derivative
    return _all_pole(1.0, (-0.94,), exc)


def _vowel(rng, vowel, dur, f0_start, f0_end):
    n = int(dur * FS)
    vib = 1.0 + 0.02 * np.sin(2.0 * np.pi * 5.3 * np.arange(n) / FS)
    f0 = np.linspace(f0_start, f0_end, n) * vib
    x = _glottal_pulses(n, f0, FS)
    x += 0.003 * rng.standard_normal(n)  # breath noise
    for freq, bw in zip(VOWELS[vowel], FORMANT_BW):
        x = _resonator(x, freq, bw, FS)
    return _faded(VOWEL_AMP, x)


def _fricative(rng, dur):
    n = int(dur * FS)
    x = rng.standard_normal(n)
    x = _resonator(x, 5200.0, 1800.0, FS) + 0.4 * _resonator(x, 7800.0, 2500.0, FS)
    return _faded(FRIC_AMP, x)


def synth_utterance(rng):
    """One random utterance as float samples in [-1, 1] at 24 kHz."""
    vowel_names = sorted(VOWELS)
    n_syll = int(rng.integers(5, 9))
    f0_top = float(rng.uniform(150.0, 230.0))
    f0_floor = f0_top * 0.65
    pieces = [np.zeros(int(rng.uniform(0.04, 0.10) * FS))]
    for k in range(n_syll):
        frac0 = k / n_syll
        frac1 = (k + 1) / n_syll
        base0 = f0_top + (f0_floor - f0_top) * frac0
        base1 = f0_top + (f0_floor - f0_top) * frac1
        accent = 1.0 + (0.12 if rng.random() < 0.35 else 0.0)
        vowel = vowel_names[int(rng.integers(len(vowel_names)))]
        dur = float(rng.uniform(0.16, 0.34))
        pieces.append(_vowel(rng, vowel, dur, base0 * accent, base1))
        if rng.random() < 0.4:
            pieces.append(_fricative(rng, float(rng.uniform(0.06, 0.13))))
        if rng.random() < 0.3:
            pieces.append(np.zeros(int(rng.uniform(0.03, 0.09) * FS)))
    pieces.append(np.zeros(int(rng.uniform(0.05, 0.12) * FS)))
    return np.concatenate(pieces)


def make_corpus(out_dir, n_utterances=DEFAULT_UTTERANCES, seed=DEFAULT_SEED):
    """Write `n_utterances` seeded WAV files; returns the sorted paths."""
    check("n_utterances", n_utterances, int, ">= 1", lambda v: v >= 1)
    check("seed", seed, int, "a non-negative integer", lambda v: v >= 0)
    out_dir = Path(out_dir)
    root = np.random.SeedSequence(seed)
    paths = []
    for i, child in enumerate(root.spawn(n_utterances)):
        rng = np.random.Generator(np.random.PCG64(child))
        wav = synth_utterance(rng)
        path = out_dir / f"utt{i:03d}.wav"
        write_wav(path, wav, FS)
        paths.append(path)
    return paths

