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
probe sets come from one chirp-z transform per voiced frame, at a half-F0
step, computed as a Bluestein FFT convolution. Synthesis excites pulse and
noise sources, mixes them per aperiodicity band, and applies the envelope
with FFT overlap-add, in the same blocks of frames as analysis.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft, rfftfreq

from .errors import ConfigError, InputError
from .features import CAP_DB_FLOOR, CAP_DIM, FRAME_SHIFT_MS, MCEP_DIM, UtteranceFeatures
from .sigproc import WarpedCepstrumCodec, box_smooth, hann_periodic, yin_periods

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
ENV_WINDOW_MIN = 201
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
    """|DFT| of wx at the harmonics k*f0 and at (k - 0.5)*f0, k = 1..count.

    The two sets are the odd and even outputs of one chirp-z transform that
    starts at f0/2 and steps by f0/2 (m = 2*count points), computed as a
    Bluestein convolution. With phi = pi*f0/FS, output j (frequency
    (j+1)*f0/2) is sum_n wx[n] exp(-i*phi*(j+1)*n), and
    (j+1)*n = ((n+1)^2 - 1)/2 + (j^2 - (j-n)^2)/2, so up to unit-modulus
    factors it is the convolution of wx[n]*conj(chirp[n+1]) with chirp, where
    chirp[k] = exp(i*phi*k^2/2). The chirp is built from real phases.
    Returns (harmonic, interharmonic), unnormalized.
    """
    n, m = len(wx), 2 * count
    nfft = next_fast_len(n + m - 1)
    k = np.arange(max(n + 1, m), dtype=np.float64)
    chirp = np.exp(1j * ((0.5 * np.pi * f0 / FS) * (k * k)))
    kernel = np.zeros(nfft, dtype=np.complex128)
    kernel[:m] = chirp[:m]
    kernel[nfft - n + 1 :] = chirp[n - 1 : 0 : -1]  # lags -(n-1)..-1
    conv = ifft(fft(wx * np.conj(chirp[1 : n + 1]), nfft) * fft(kernel))[:m]
    mag = np.abs(conv)
    return mag[1::2], mag[0::2]


_CODEC = WarpedCepstrumCodec(FS, order=MCEP_DIM, alpha=MCEP_ALPHA)
_UV_FREQS = rfftfreq(UNVOICED_FFT, 1.0 / FS)
_UV_HANN = np.hanning(UNVOICED_WINDOW)
# unit-noise amplitude that makes the unvoiced round trip level-consistent
_UV_NOISE_SIGMA = _UV_HANN.sum() / (2.0 * np.sqrt(np.sum(_UV_HANN * _UV_HANN)))
_SYN_HANN = hann_periodic(SYN_WINDOW)
_SYN_FREQS = rfftfreq(SYN_FFT, 1.0 / FS)
_SYN_ENVELOPE = _CODEC.envelope_matrix(_SYN_FREQS)
_SYN_BAND_OF_BIN = np.searchsorted(CAP_EDGES, _SYN_FREQS, side="right")


def analyze(waveform, fs, utt_id=""):
    """UtteranceFeatures of a waveform sampled at FS."""
    if fs != FS:
        raise ConfigError(f"unsupported fs {fs}; the analyzer runs at {FS} Hz")
    x = np.asarray(waveform, dtype=np.float64).ravel()
    if x.size == 0:
        raise InputError("empty waveform")
    if x.size < HOP:
        raise InputError(f"waveform shorter than one frame ({HOP} samples)")
    peak = np.max(np.abs(x))
    if not np.isfinite(peak):
        raise InputError("waveform contains non-finite samples")
    if peak > PEAK_MAX:
        raise InputError(f"waveform peak {peak:.3g} exceeds {PEAK_MAX:g}, too loud to analyze")

    n = x.size // HOP + 1
    padded = np.zeros(PAD + (n - 1) * HOP + PAD)
    padded[PAD : PAD + x.size] = x

    def frames(before, width):
        """Rows x[c - before : c - before + width], zero outside x, for the
        n frame centres c = t * HOP (strided views, no copy)."""
        return sliding_window_view(padded[PAD - before :], width)[::HOP][:n]

    yin_frames = frames(YIN_WINDOW // 2, YIN_WINDOW + YIN_TAU_MAX)
    uv_frames = frames(UNVOICED_WINDOW // 2, UNVOICED_WINDOW)
    f0 = np.zeros(n)
    dip = np.ones(n)
    voiced = np.zeros(n, dtype=bool)
    mcep = np.zeros((n, MCEP_DIM))
    cap = np.zeros((n, CAP_DIM))  # unvoiced frames stay fully aperiodic (0 dB)
    for lo in range(0, n, BLOCK_FRAMES):
        hi = min(lo + BLOCK_FRAMES, n)
        block, idx = slice(lo, hi), np.arange(lo, hi)
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
            mcep[unvoiced] = _unvoiced_envelopes(uv_frames[unvoiced])
        for t in idx[voiced[block]]:
            mcep[t], cap[t] = _voiced_frame(padded, PAD + t * HOP, f0[t])

    return UtteranceFeatures(
        utt_id=utt_id,
        mcep=mcep,
        lf0=_interp_lf0(f0, voiced),
        uv=voiced.astype(np.float32),
        cap=cap,
    )

def _voiced_frame(padded, center, f0):
    """Cepstrum and band aperiodicity of the frame centred at padded[center]."""
    w_len = int(round(ENV_PERIODS * FS / f0)) | 1
    w_len = min(max(w_len, ENV_WINDOW_MIN), ENV_WINDOW_MAX)
    win = np.hanning(w_len)
    start = center - w_len // 2
    wx = padded[start : start + w_len] * win
    gain = 2.0 / win.sum()

    n_harm = int((NYQUIST - 0.6 * f0) // f0)
    amps, inter = _probe(wx, f0, n_harm)  # k * f0 and (k - 0.5) * f0, k=1..
    amps *= gain
    inter *= gain

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
    cep = _CODEC.cepstrum(xp, fp)

    inter_freqs = (np.arange(1, n_harm + 1) - 0.5) * f0
    hp = np.bincount(np.searchsorted(CAP_EDGES, freqs, "right"), amps**2, CAP_DIM)
    npow = np.bincount(np.searchsorted(CAP_EDGES, inter_freqs, "right"), inter**2, CAP_DIM)
    total = hp + npow
    frac = np.ones(CAP_DIM)
    np.divide(2.0 * npow, total, out=frac, where=total > 0)
    # frac in [1e-6, 1], so cap in [-60, 0] dB (np.clip is slow on 3 values)
    cap = np.maximum(10.0 * np.log10(np.maximum(np.minimum(frac, 1.0), 1e-6)), CAP_DB_FLOOR)
    return cep, cap

def _unvoiced_envelopes(segs):
    """Cepstra of smoothed periodograms, one per row of UNVOICED_WINDOW samples."""
    spectrum = rfft(segs * _UV_HANN, UNVOICED_FFT, axis=1)
    power = box_smooth(np.abs(spectrum) ** 2, SMOOTH_HALF_BINS)
    amp = 2.0 * np.sqrt(power) / _UV_HANN.sum()
    floor = np.maximum(amp.max(axis=1) * AMP_RANGE, AMP_FLOOR)
    log_amp = np.log(np.maximum(amp, floor[:, None]))
    return [_CODEC.cepstrum(_UV_FREQS, row) for row in log_amp]

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
