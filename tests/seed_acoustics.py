"""The analyzer and synthesizer as first written, kept as test-only references.

`SeedAnalyzer.analyze` is the original per-frame analysis: YIN on each
frame through `scipy.signal.correlate`, two `scipy.signal.czt` probe sets per
voiced frame (harmonic and interharmonic), and one periodogram per unvoiced
frame. The code is unchanged apart from living in a class of its own; it
shares only the constants, the lf0 interpolation and the cepstrum codec with
`cyclevc.acoustics`. `tests/test_analysis_reference.py` checks the current
analyzer against it within stated tolerances.

`synthesize` is the original per-frame overlap-add, unchanged apart from
evaluating the envelope through the local `_sampler`/`_log_env_at` helpers
that the codec class once provided. `tests/test_synthesis_reference.py`
checks the block-batched synthesizer against it.
"""

import numpy as np
from scipy.fft import irfft, rfft, rfftfreq
from scipy.signal import correlate, czt

from cyclevc.acoustics import (
    AMP_FLOOR,
    AMP_RANGE,
    CAP_BANDS,
    CAP_DB_FLOOR,
    ENV_PERIODS,
    ENV_WINDOW_MAX,
    F0_CEIL,
    F0_FLOOR,
    FS,
    GRID_SIZE,
    HOP,
    MCEP_ALPHA,
    NODE_FREQ_HZ,
    NYQUIST,
    SILENCE_RMS,
    SMOOTH_HALF_BINS,
    SYN_FFT,
    SYN_WINDOW,
    UNVOICED_FFT,
    UNVOICED_WINDOW,
    VOICING_DIP_MAX,
    YIN_TAU_MAX,
    YIN_WINDOW,
    _SYN_BAND_OF_BIN,
    _SYN_FREQS,
    _SYN_HANN,
    _SYN_SEED,
    _UV_NOISE_SIGMA,
    _interp_lf0,
    grid_cepstrum,
    warp_frequency,
)
from cyclevc.errors import ConfigError
from cyclevc.features import CAP_DIM, MCEP_DIM, UtteranceFeatures

# the reference's own lower clamp of the voiced window length; the current
# analyzer has none, since a voiced f0 of at most 440 Hz never reaches it
ENV_WINDOW_MIN = 201


def _slice_padded(x, start, length):
    """x[start:start+length] with zero padding outside the signal."""
    out = np.zeros(length, dtype=np.float64)
    lo = max(start, 0)
    hi = min(start + length, len(x))
    if hi > lo:
        out[lo - start : hi - start] = x[lo:hi]
    return out


def box_smooth(values, half_width):
    """Moving average with window (2*half_width + 1), edge-shrunk at borders."""
    v = np.asarray(values, dtype=np.float64)
    if half_width <= 0:
        return v.copy()
    c = np.cumsum(np.concatenate([[0.0], v]))
    idx = np.arange(len(v))
    lo = np.maximum(idx - half_width, 0)
    hi = np.minimum(idx + half_width + 1, len(v))
    return (c[hi] - c[lo]) / (hi - lo)


def yin_period(segment, fs, fmin, fmax, integration, threshold=0.15):
    """YIN-style period estimate for one frame: (f0 in Hz or 0.0, dip)."""
    tau_max = int(round(fs / fmin))
    tau_min = max(2, int(round(fs / fmax)))
    need = integration + tau_max
    x = np.asarray(segment, dtype=np.float64)
    if len(x) < need:
        x = np.concatenate([x, np.zeros(need - len(x))])
    x = x[:need]

    sq = np.cumsum(np.concatenate([[0.0], x * x]))
    pow0 = sq[integration]
    if pow0 < 1e-14:
        return 0.0, 1.0
    pow_tau = sq[np.arange(tau_max + 1) + integration] - sq[np.arange(tau_max + 1)]
    c = correlate(x, x[:integration], mode="valid", method="auto")[: tau_max + 1]
    d = pow0 + pow_tau - 2.0 * c
    d = np.maximum(d, 0.0)

    # cumulative-mean normalization
    dn = np.ones_like(d)
    csum = np.cumsum(d[1:])
    nz = csum > 0
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    dn[1:][nz] = d[1:][nz] * taus[nz] / csum[nz]

    lo, hi = tau_min, tau_max
    band = dn[lo : hi + 1]
    below = np.flatnonzero(band < threshold)
    if len(below):
        tau = lo + below[0]
        while tau + 1 <= hi and dn[tau + 1] < dn[tau]:
            tau += 1
    else:
        tau = lo + int(np.argmin(band))
    dip = float(dn[tau])

    # parabolic refinement on the raw difference function
    if 1 <= tau < tau_max:
        a, b, cc = d[tau - 1], d[tau], d[tau + 1]
        denom = a - 2.0 * b + cc
        shift = 0.5 * (a - cc) / denom if abs(denom) > 1e-12 else 0.0
        shift = float(np.clip(shift, -1.0, 1.0))
    else:
        shift = 0.0
    period = tau + shift
    if period <= 0:
        return 0.0, dip
    return fs / period, dip


class SeedAnalyzer:
    """The original harmonic-probe analyzer, one frame at a time."""

    def __init__(self):
        self._uv_freqs = rfftfreq(UNVOICED_FFT, 1.0 / FS)
        self._uv_window = np.hanning(UNVOICED_WINDOW)

    def analyze(self, waveform, fs, utt_id=""):
        x = np.asarray(waveform, dtype=np.float64).ravel()
        n = x.size // HOP + 1
        centers = np.arange(n) * HOP
        f0 = np.zeros(n)
        dip = np.ones(n)
        rms = np.zeros(n)
        for t, c in enumerate(centers):
            seg = _slice_padded(x, c - YIN_WINDOW // 2, YIN_WINDOW + YIN_TAU_MAX)
            rms[t] = np.sqrt(np.mean(seg[:YIN_WINDOW] ** 2))
            if rms[t] > SILENCE_RMS:
                f0[t], dip[t] = yin_period(seg, FS, F0_FLOOR, F0_CEIL, YIN_WINDOW)
        voiced = (
            (dip < VOICING_DIP_MAX)
            & (f0 >= F0_FLOOR * 0.9)
            & (f0 <= F0_CEIL * 1.1)
            & (rms > SILENCE_RMS)
        )

        mcep = np.zeros((n, MCEP_DIM))
        cap = np.zeros((n, CAP_DIM))
        for t, c in enumerate(centers):
            if voiced[t]:
                mcep[t], cap[t] = self._voiced_frame(x, c, f0[t])
            else:
                mcep[t] = self._unvoiced_frame(x, c)
                cap[t] = 0.0  # fully aperiodic

        return UtteranceFeatures(utt_id, np.column_stack([mcep, _interp_lf0(f0, voiced), voiced, cap]))

    def _probe(self, wx, f0, count, offset):
        """|DFT| probes at (k + offset) * f0 for k = 1..count (unnormalized)."""
        step = np.exp(-2j * np.pi * f0 / FS)
        start = np.exp(2j * np.pi * f0 * (1.0 + offset) / FS)
        return np.abs(czt(wx, m=count, w=step, a=start))

    def _voiced_frame(self, x, center, f0):
        w_len = int(round(ENV_PERIODS * FS / f0)) | 1
        w_len = min(max(w_len, ENV_WINDOW_MIN), ENV_WINDOW_MAX)
        win = np.hanning(w_len)
        seg = _slice_padded(x, center - w_len // 2, w_len)
        wx = seg * win
        gain = 2.0 / win.sum()

        n_harm = int((NYQUIST - 0.6 * f0) // f0)
        amps = self._probe(wx, f0, n_harm, 0.0) * gain
        inter = self._probe(wx, f0, n_harm, -0.5) * gain  # (k - 0.5) * f0, k=1..

        floor = max(amps.max() * AMP_RANGE, AMP_FLOOR)
        log_h = np.log(np.maximum(amps, floor))
        if n_harm >= 3:  # soften harmonic-to-harmonic jitter and cliff edges
            log_h = np.convolve(
                np.concatenate([log_h[:1], log_h, log_h[-1:]]),
                [0.25, 0.5, 0.25],
                "valid",
            )
        freqs = np.arange(1, n_harm + 1) * f0
        xp = np.concatenate([[0.0], freqs, [NYQUIST]])
        fp = np.concatenate([[log_h[0]], log_h, [log_h[-1]]])
        cep = grid_cepstrum(np.interp(NODE_FREQ_HZ, xp, fp))

        inter_freqs = (np.arange(1, n_harm + 1) - 0.5) * f0
        cap = np.zeros(CAP_DIM)
        for b, (lo, hi) in enumerate(CAP_BANDS):
            hp = np.sum(amps[(freqs >= lo) & (freqs < hi)] ** 2)
            npow = np.sum(inter[(inter_freqs >= lo) & (inter_freqs < hi)] ** 2)
            total = hp + npow
            frac = min(1.0, 2.0 * npow / total) if total > 0 else 1.0
            cap[b] = np.clip(10.0 * np.log10(max(frac, 1e-6)), CAP_DB_FLOOR, 0.0)
        return cep, cap

    def _unvoiced_frame(self, x, center):
        seg = _slice_padded(x, center - UNVOICED_WINDOW // 2, UNVOICED_WINDOW)
        spectrum = rfft(seg * self._uv_window, UNVOICED_FFT)
        power = box_smooth(np.abs(spectrum) ** 2, SMOOTH_HALF_BINS)
        amp = 2.0 * np.sqrt(power) / self._uv_window.sum()
        floor = max(amp.max() * AMP_RANGE, AMP_FLOOR)
        log_amp = np.log(np.maximum(amp, floor))
        return grid_cepstrum(np.interp(NODE_FREQ_HZ, self._uv_freqs, log_amp))


# ----- synthesis ----------------------------------------------------------------

_RECON = np.cos(np.outer(np.arange(GRID_SIZE + 1.0), np.arange(MCEP_DIM + 0.0)) * np.pi / GRID_SIZE)
_RECON[:, 1:] *= 2.0


def _sampler(freqs_hz):
    """Interpolation (indices, weights) for evaluating grid envelopes at the
    given linear frequencies."""
    omega = 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / FS
    pos = warp_frequency(omega, MCEP_ALPHA) / np.pi * GRID_SIZE
    pos = np.clip(pos, 0.0, float(GRID_SIZE))
    i0 = np.minimum(pos.astype(np.int64), GRID_SIZE - 1)
    frac = pos - i0
    return i0, frac


def _log_env_at(cep, sampler):
    """Evaluate the envelope of `cep` at frequencies prepared by _sampler()."""
    grid = _RECON @ np.asarray(cep, dtype=np.float64)
    i0, frac = sampler
    return grid[i0] * (1.0 - frac) + grid[i0 + 1] * frac


_SYN_SAMPLER = _sampler(_SYN_FREQS)


def synthesize(feat, fs):
    """Waveform at FS rendered from UtteranceFeatures."""
    if fs != FS:
        raise ConfigError(f"unsupported fs {fs}; the synthesizer runs at {FS} Hz")
    feat.validate()
    n = feat.n_frames
    length = n * HOP
    pad = SYN_FFT  # room for the acausal half of the zero-phase envelope IR
    buf_len = pad + length + 2 * SYN_FFT

    frame_pos = np.arange(length) / HOP
    lf0 = feat.lf0.astype(np.float64)
    f0_samp = np.exp(np.interp(frame_pos, np.arange(n), lf0))
    f0_samp = np.clip(f0_samp, 20.0, NYQUIST * 0.9)
    uv_samp = feat.uv[np.clip(np.round(frame_pos).astype(int), 0, n - 1)] > 0.5

    # pulse excitation: unit harmonic amplitude needs impulse height T0/2
    pulses = np.zeros(buf_len)
    run_starts = np.flatnonzero(np.diff(np.concatenate([[0], uv_samp.view(np.int8)])) == 1)
    run_ends = np.flatnonzero(np.diff(np.concatenate([uv_samp.view(np.int8), [0]])) == -1)
    for s, e in zip(run_starts, run_ends):
        f0_run = f0_samp[s : e + 1]
        phase = np.cumsum(f0_run / FS) + 0.5
        hits = np.flatnonzero(np.diff(np.floor(np.concatenate([[0.0], phase]))) >= 1)
        pulses[pad + s + hits] = FS / (2.0 * f0_run[hits])

    rng = np.random.Generator(np.random.PCG64(_SYN_SEED))
    noise = rng.standard_normal(buf_len)
    sigma = np.where(
        uv_samp, 0.5 * np.sqrt(FS / f0_samp), _UV_NOISE_SIGMA
    )
    noise[pad : pad + length] *= sigma
    noise[:pad] = 0.0
    noise[pad + length :] = 0.0

    win = _SYN_HANN
    out = np.zeros(buf_len)
    cola = np.zeros(buf_len)
    mcep = feat.mcep.astype(np.float64)
    cap_lin = np.power(10.0, feat.cap.astype(np.float64) / 10.0)
    half = SYN_FFT // 2
    for t in range(n):
        s = pad + t * HOP - SYN_WINDOW // 2
        seg_p = rfft(pulses[s : s + SYN_WINDOW] * win, SYN_FFT)
        seg_n = rfft(noise[s : s + SYN_WINDOW] * win, SYN_FFT)
        env = np.exp(_log_env_at(mcep[t], _SYN_SAMPLER))
        a = cap_lin[t][_SYN_BAND_OF_BIN]
        spectrum = (seg_p * np.sqrt(1.0 - a) + seg_n * np.sqrt(a)) * env
        # the zero-phase envelope IR is acausal; center it when placing
        y = np.roll(irfft(spectrum, SYN_FFT), half)
        out[s - half : s + half] += y
        cola[s : s + SYN_WINDOW] += win
    out /= np.maximum(cola, 0.5)
    return out[pad : pad + length]

