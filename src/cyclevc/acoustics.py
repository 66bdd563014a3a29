"""Acoustic analyzer and resynthesizer (24 kHz, 5 ms frame shift).

Analysis decomposes a waveform into the package's fixed feature layout:
45-dim mel-cepstrum of the spectral envelope (all-pass warp, alpha = 0.466),
log-F0 with linear interpolation through unvoiced stretches, a binary
voicing flag, and 3 coded band-aperiodicity values.

The waveform is zero-padded and framed once (strided views, one row per
frame), and analysed in blocks of BLOCK_FRAMES frames: YIN pitch and the
smoothed periodograms of unvoiced frames are batched FFTs over the block's
rows. The envelope of voiced frames is measured by probing harmonic
amplitudes with windowed DFTs at k*F0, interpolating the log amplitudes
across frequency, and converting to a truncated warped cepstrum. Band
aperiodicity contrasts harmonic against interharmonic probe power. Both
probe sets come from a chirp-z transform at a half-F0 step, computed as a
Bluestein FFT convolution: one Bluestein pass per block of voiced frames
(up to PROBE_ROWS of them), each row with its own window and chirp. Each
frame's log envelope goes onto the codec's warped grid, and one DCT-I per
batch of rows makes the cepstra.
Blocks fill disjoint rows of the feature tracks, so an utterance's blocks
run on a thread pool with one worker per usable CPU. A block does the same
arithmetic at any worker count, so the features do not depend on it.
Synthesis excites pulse and noise sources, mixes them per aperiodicity band,
and applies the envelope with FFT overlap-add, in the same blocks of frames
as analysis.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft, rfftfreq

from .errors import ConfigError, InputError, ShapeError
from .features import CAP_DB_FLOOR, CAP_DIM, FRAME_SHIFT_MS, MCEP_DIM, UtteranceFeatures
from .sigproc import WarpedCepstrumCodec, box_smooth, hann_periodic, pulse_positions, yin_periods

FS = 24000
HOP = FS * FRAME_SHIFT_MS // 1000  # 120 samples
NYQUIST = FS / 2.0
MCEP_ALPHA = 0.466

F0_FLOOR = 60.0
F0_CEIL = 400.0
DEFAULT_F0 = 120.0

YIN_WINDOW = 480
YIN_TAU_MAX = int(round(FS / F0_FLOOR))
VOICING_DIP_MAX = 0.25
SILENCE_RMS = 1e-4
# a louder waveform overflows the squared analysis spectra, (peak * window)^2
PEAK_MAX = 1e150

ENV_PERIODS = 4
ENV_WINDOW_MAX = 1601
UNVOICED_WINDOW = 720
UNVOICED_FFT = 2048
SMOOTH_HALF_BINS = 17  # ~200 Hz at 2048-point FFT

CAP_BANDS = ((0.0, 2000.0), (2000.0, 6000.0), (6000.0, 12000.0))
# the band of frequency f is searchsorted(CAP_EDGES, f, "right")
CAP_EDGES = np.array([hi for _, hi in CAP_BANDS[:-1]])
# Envelope dynamic range is limited to 60 dB below the frame peak (with an
# absolute guard for silence): a deeper cliff would make the 45-dim cepstrum
# ring, and the ringing aliases when the envelope is re-sampled at harmonics.
AMP_RANGE = 1e-3
AMP_FLOOR = 1e-7

# frames analysed or synthesized per batch: whole-utterance batches cost
# memory (the spectra of every frame at once) for no further speed
BLOCK_FRAMES = 64
# voiced frames per batched probe pass, each padded to the widest window
# among them: 32 rows ran no faster and raised the peak memory of extraction
PROBE_ROWS = 16
# zero padding on each side of the waveform: the widest analysis window
# (the longest voiced-frame window) centred on the first or last frame fits
PAD = ENV_WINDOW_MAX // 2 + 1

SYN_WINDOW = 480
SYN_FFT = 1024
_SYN_SEED = 0x5F3C0DE
# e^500 ~ 1.4e217 renders finite; c0 <= 0 with |c_k| <= 4 peaks at 2*4*44 = 352
LOG_ENV_MAX = 500.0


def _interp_lf0(f0, voiced):
    """Natural-log F0 track: raw on voiced frames, linearly interpolated
    across unvoiced gaps, nearest-voiced at the edges, constant fallback."""
    n = len(f0)
    idx = np.flatnonzero(voiced)
    if len(idx) == 0:
        return np.full(n, np.log(DEFAULT_F0))
    return np.interp(np.arange(n), idx, np.log(f0[idx]))


def _probe(wx, f0, count):
    """|DFT| of each row of wx at its harmonics k*f0 and at (k - 0.5)*f0, k = 1..count.

    The two sets are the odd and even outputs of one chirp-z transform that
    starts at f0/2 and steps by f0/2 (m = 2*count points), computed as a
    Bluestein convolution. With phi = pi*f0/FS, output j (frequency
    (j+1)*f0/2) is sum_n wx[n] exp(-i*phi*(j+1)*n), and
    (j+1)*n = ((n+1)^2 - 1)/2 + (j^2 - (j-n)^2)/2, so up to unit-modulus
    factors it is the convolution of wx[n]*conj(chirp[n+1]) with chirp, where
    chirp[k] = exp(i*phi*k^2/2). The chirp is built from real phases, one
    per row from that row's f0. Zero padding leaves a row's DFT unchanged
    at every frequency, so windows of several lengths, each zero-padded to
    the width of wx, share one FFT length. Returns (harmonic,
    interharmonic), each (rows, count), unnormalized.
    """
    n, m = wx.shape[1], 2 * count
    nfft = next_fast_len(n + m - 1)
    k = np.arange(max(n + 1, m), dtype=np.float64)
    half_phi = 0.5 * np.pi * f0 / FS
    chirp = np.exp(1j * (half_phi[:, None] * (k * k)))
    kernel = np.zeros((len(wx), nfft), dtype=np.complex128)
    kernel[:, :m] = chirp[:, :m]
    kernel[:, nfft - n + 1 :] = chirp[:, n - 1 : 0 : -1]  # lags -(n-1)..-1
    spectrum = fft(wx * np.conj(chirp[:, 1 : n + 1]), nfft, axis=1) * fft(kernel, axis=1)
    mag = np.abs(ifft(spectrum, axis=1)[:, :m])
    return mag[:, 1::2], mag[:, 0::2]


_CODEC = WarpedCepstrumCodec(FS, order=MCEP_DIM, alpha=MCEP_ALPHA)
# the codec's grid nodes as fractional bins of the unvoiced spectrum
_UV_GRID_POS = (_CODEC.node_freq_hz * (UNVOICED_FFT / FS))[None, :]
_UV_HANN = np.hanning(UNVOICED_WINDOW)
# unit-noise amplitude that makes the unvoiced round trip level-consistent
_UV_NOISE_SIGMA = _UV_HANN.sum() / (2.0 * np.sqrt(np.sum(_UV_HANN * _UV_HANN)))
_SYN_HANN = hann_periodic(SYN_WINDOW)
_SYN_FREQS = rfftfreq(SYN_FFT, 1.0 / FS)
_SYN_ENVELOPE = _CODEC.envelope_matrix(_SYN_FREQS)
_SYN_BAND_OF_BIN = np.searchsorted(CAP_EDGES, _SYN_FREQS, side="right")


def analyze(waveform, fs, utt_id=""):
    """UtteranceFeatures of a mono (1-D) waveform sampled at FS."""
    if fs != FS:
        raise ConfigError(f"unsupported fs {fs}; the analyzer runs at {FS} Hz")
    x = np.asarray(waveform, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected mono waveform, got shape {x.shape}")
    if x.size < HOP:
        raise InputError(f"waveform is empty or shorter than one frame ({HOP} samples)")
    peak = np.max(np.abs(x))
    if not np.isfinite(peak):
        raise InputError("waveform contains non-finite samples")
    if peak > PEAK_MAX:
        raise InputError(f"waveform peak {peak:.3g} exceeds {PEAK_MAX:g}, too loud to analyze")

    n = x.size // HOP + 1
    padded = np.zeros(PAD + (n - 1) * HOP + PAD)
    padded[PAD : PAD + x.size] = x
    f0 = np.zeros(n)
    dip = np.ones(n)
    voiced = np.zeros(n, dtype=bool)
    mcep = np.zeros((n, MCEP_DIM))
    cap = np.zeros((n, CAP_DIM))  # unvoiced frames stay fully aperiodic (0 dB)
    starts = range(0, n, BLOCK_FRAMES)
    with ThreadPoolExecutor(min(_usable_cpus(), len(starts))) as pool:
        # list() re-raises here the first exception of a block
        list(pool.map(lambda lo: _analyze_block(padded, lo, f0, dip, voiced, mcep, cap), starts))

    return UtteranceFeatures(
        utt_id=utt_id,
        mcep=mcep,
        lf0=_interp_lf0(f0, voiced),
        uv=voiced.astype(np.float32),
        cap=cap,
    )


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _frames(padded, n, before, width):
    """Rows x[c - before : c - before + width], zero outside x, for the n
    frame centres c = t * HOP of padded (strided views, no copy)."""
    return sliding_window_view(padded[PAD - before :], width)[::HOP][:n]


def _analyze_block(padded, lo, f0, dip, voiced, mcep, cap):
    """Fill rows lo : lo + BLOCK_FRAMES of the frame tracks f0, dip, voiced,
    mcep and cap of padded. A block reads no row of another, so blocks may
    run in any order or concurrently; it spends most of its time in NumPy
    and FFT calls that release the GIL."""
    n = len(f0)
    hi = min(lo + BLOCK_FRAMES, n)
    block, idx = slice(lo, hi), np.arange(lo, hi)
    yin_frames = _frames(padded, n, YIN_WINDOW // 2, YIN_WINDOW + YIN_TAU_MAX)
    rms = np.sqrt(np.mean(yin_frames[block, :YIN_WINDOW] ** 2, axis=1))
    loud = idx[rms > SILENCE_RMS]
    if loud.size:
        f0[loud], dip[loud] = yin_periods(yin_frames[loud], FS, F0_FLOOR, F0_CEIL, YIN_WINDOW)
    voiced[block] = (
        (dip[block] < VOICING_DIP_MAX)
        & (f0[block] >= F0_FLOOR * 0.9)
        & (f0[block] <= F0_CEIL * 1.1)
        & (rms > SILENCE_RMS)
    )
    unvoiced = idx[~voiced[block]]
    if unvoiced.size:
        uv_frames = _frames(padded, n, UNVOICED_WINDOW // 2, UNVOICED_WINDOW)
        mcep[unvoiced] = _unvoiced_envelopes(uv_frames[unvoiced])
    voiced_idx = idx[voiced[block]]
    for sub in range(0, voiced_idx.size, PROBE_ROWS):
        rows = voiced_idx[sub : sub + PROBE_ROWS]
        mcep[rows], cap[rows] = _voiced_envelopes(padded, PAD + rows * HOP, f0[rows])


def _voiced_envelopes(padded, centers, f0):
    """Cepstra and band aperiodicities of the voiced frames centred at
    padded[centers] with fundamentals f0, one row each, from one probe pass."""
    # no lower clamp: a voiced f0 is at most 1.1 * F0_CEIL = 440 Hz, so w_len >= 219
    w_len = np.minimum(np.round(ENV_PERIODS * FS / f0).astype(np.int64) | 1, ENV_WINDOW_MAX)
    width = w_len.max()
    # np.hanning(w_len) of each row, centred in the row (a shift changes no
    # |DFT|) and zero past its ends, so every row starts at c - width // 2
    u = np.arange(1 - width, width, 2, dtype=np.float64)
    win = 0.5 + 0.5 * np.cos(np.pi * u / (w_len[:, None] - 1.0))
    win[np.abs(u) > w_len[:, None] - 1] = 0.0
    wx = sliding_window_view(padded, width)[centers - width // 2] * win
    gain = 2.0 / win.sum(axis=1, keepdims=True)

    # a voiced f0 is at most 1.1 * F0_CEIL = 440 Hz, so n_harm >= 26
    n_harm = ((NYQUIST - 0.6 * f0) // f0).astype(np.int64)
    harm = np.arange(1, n_harm.max() + 1)
    valid = harm <= n_harm[:, None]
    amps, inter = _probe(wx, f0, harm.size)  # k * f0 and (k - 0.5) * f0, k=1..
    amps = np.where(valid, amps * gain, 0.0)
    inter = np.where(valid, inter * gain, 0.0)

    floor = np.maximum(amps.max(axis=1) * AMP_RANGE, AMP_FLOOR)
    log_h = np.log(np.maximum(amps, floor[:, None]))
    # past its last harmonic a row repeats that harmonic's value, which the
    # smoothing then takes as the row's edge
    last = log_h[np.arange(len(f0)), n_harm - 1]
    log_h = np.where(valid, log_h, last[:, None])
    # soften harmonic-to-harmonic jitter and cliff edges
    edged = np.concatenate([log_h[:, :1], log_h, log_h[:, -1:]], axis=1)
    log_h = 0.25 * edged[:, :-2] + 0.5 * edged[:, 1:-1] + 0.25 * edged[:, 2:]
    # grid node at harmonic position h (log_h column h - 1), held flat below
    # the first harmonic and above the last
    pos = np.clip(_CODEC.node_freq_hz / f0[:, None] - 1.0, 0.0, (n_harm - 1)[:, None])
    cep = _CODEC.grid_cepstrum(_lerp_columns(log_h, pos))

    freqs = harm * f0[:, None]
    hp = _band_sums(freqs, amps**2)
    npow = _band_sums((harm - 0.5) * f0[:, None], inter**2)
    total = hp + npow
    frac = np.ones_like(total)
    np.divide(2.0 * npow, total, out=frac, where=total > 0)
    # frac in [1e-6, 1], so cap in [-60, 0] dB
    cap = np.maximum(10.0 * np.log10(np.clip(frac, 1e-6, 1.0)), CAP_DB_FLOOR)
    return cep, cap


def _band_sums(freqs_hz, power):
    """(rows, CAP_DIM) sums of each row's power over the CAP_BANDS of freqs_hz."""
    rows = len(power)
    bins = np.searchsorted(CAP_EDGES, freqs_hz, "right") + CAP_DIM * np.arange(rows)[:, None]
    return np.bincount(bins.ravel(), power.ravel(), rows * CAP_DIM).reshape(rows, CAP_DIM)


def _lerp_columns(values, pos):
    """values (rows, cols) linearly interpolated along each row at the
    fractional column positions pos (0 <= pos <= cols - 1), one row each."""
    i0 = np.minimum(pos.astype(np.int64), values.shape[1] - 2)
    lo = np.take_along_axis(values, i0, axis=1)
    hi = np.take_along_axis(values, i0 + 1, axis=1)
    return lo + (hi - lo) * (pos - i0)


def _unvoiced_envelopes(segs):
    """Cepstra of smoothed periodograms, one per row of UNVOICED_WINDOW samples."""
    spectrum = rfft(segs * _UV_HANN, UNVOICED_FFT, axis=1)
    power = box_smooth(np.abs(spectrum) ** 2, SMOOTH_HALF_BINS)
    amp = 2.0 * np.sqrt(power) / _UV_HANN.sum()
    floor = np.maximum(amp.max(axis=1) * AMP_RANGE, AMP_FLOOR)
    log_amp = np.log(np.maximum(amp, floor[:, None]))
    return _CODEC.grid_cepstrum(_lerp_columns(log_amp, _UV_GRID_POS))


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
    # capped where np.exp cannot overflow; the clip maps any f0 >= 0.9 * NYQUIST alike
    f0_samp = np.exp(np.minimum(np.interp(frame_pos, np.arange(n), lf0), np.log(NYQUIST)))
    f0_samp = np.clip(f0_samp, 20.0, NYQUIST * 0.9)
    uv_samp = feat.uv[np.clip(np.round(frame_pos).astype(int), 0, n - 1)] > 0.5

    # pulse excitation: unit harmonic amplitude needs impulse height T0/2
    pulses = np.zeros(buf_len)
    run_starts = np.flatnonzero(np.diff(np.concatenate([[0], uv_samp.view(np.int8)])) == 1)
    run_ends = np.flatnonzero(np.diff(np.concatenate([uv_samp.view(np.int8), [0]])) == -1)
    for s, e in zip(run_starts, run_ends):
        f0_run = f0_samp[s : e + 1]
        hits = pulse_positions(f0_run, FS)
        pulses[pad + s + hits] = FS / (2.0 * f0_run[hits])

    rng = np.random.Generator(np.random.PCG64(_SYN_SEED))
    noise = rng.standard_normal(buf_len)
    sigma = np.where(
        uv_samp, 0.5 * np.sqrt(FS / f0_samp), _UV_NOISE_SIGMA
    )
    noise[pad : pad + length] *= sigma
    noise[:pad] = 0.0
    noise[pad + length :] = 0.0

    out = np.zeros(buf_len)
    cola = np.zeros(buf_len)
    mcep = feat.mcep.astype(np.float64)
    cap_lin = np.power(10.0, feat.cap.astype(np.float64) / 10.0)
    half = SYN_FFT // 2
    starts = pad + np.arange(n) * HOP - SYN_WINDOW // 2
    pulse_rows = sliding_window_view(pulses, SYN_WINDOW)
    noise_rows = sliding_window_view(noise, SYN_WINDOW)
    for lo in range(0, n, BLOCK_FRAMES):
        block = slice(lo, lo + BLOCK_FRAMES)
        s = starts[block]
        log_env = mcep[block] @ _SYN_ENVELOPE
        peak = np.max(log_env)
        if peak > LOG_ENV_MAX:
            raise InputError(f"{feat.utt_id}: log envelope peak {peak:.4g} exceeds {LOG_ENV_MAX:g}")
        seg_p = rfft(pulse_rows[s] * _SYN_HANN, SYN_FFT, axis=1)
        seg_n = rfft(noise_rows[s] * _SYN_HANN, SYN_FFT, axis=1)
        a = cap_lin[block][:, _SYN_BAND_OF_BIN]
        spectrum = (seg_p * np.sqrt(1.0 - a) + seg_n * np.sqrt(a)) * np.exp(log_env)
        # the zero-phase envelope IR is acausal; center it when placing
        y = np.roll(irfft(spectrum, SYN_FFT, axis=1), half, axis=1)
        # add.at sums in frame order; a broadcast 1-D value array corrupts its sums
        np.add.at(out, (s - half)[:, None] + np.arange(SYN_FFT), y)
        np.add.at(cola, s[:, None] + np.arange(SYN_WINDOW), np.tile(_SYN_HANN, (len(s), 1)))
    out /= np.maximum(cola, 0.5)
    return out[pad : pad + length]
