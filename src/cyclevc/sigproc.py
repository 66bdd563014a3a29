"""Signal-processing primitives behind the acoustic analyzer.

Covers the all-pass frequency warp, a warped-cepstrum codec (log spectral
envelope on a uniform grid of the warped axis <-> truncated cepstrum), a
YIN-style period estimator that runs on a block of frames at once, and a
moving average. The harmonic probes themselves live in the analyzer
(`acoustics._probe`, one Bluestein pass per block of voiced frames).
"""

import numpy as np
from scipy.fft import dct, irfft, next_fast_len, rfft


def hann_periodic(n):
    """Periodic Hann window of length n (COLA at hop n/4)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def warp_frequency(omega, alpha):
    """First-order all-pass frequency warp on [0, pi].

    Monotone for |alpha| < 1, fixes 0 and pi; the inverse map is the same
    function with -alpha.
    """
    omega = np.asarray(omega, dtype=np.float64)
    return omega + 2.0 * np.arctan2(alpha * np.sin(omega), 1.0 - alpha * np.cos(omega))


class WarpedCepstrumCodec:
    """Converts between log spectral envelopes and warped cepstra.

    Envelopes come sampled on the codec's grid, GRID_SIZE + 1 uniform
    nodes of the warped axis over [0, pi] at the frequencies node_freq_hz;
    the cepstrum is the DCT-I of that grid truncated to `order`
    coefficients. Reconstruction is the exact cosine expansion of the
    truncated cepstrum, so an envelope that came from a cepstrum
    round-trips through the codec unchanged up to grid interpolation.
    """

    GRID_SIZE = 512

    def __init__(self, fs, order, alpha):
        self.fs = float(fs)
        self.order = int(order)
        self.alpha = float(alpha)
        warped_grid = np.pi * np.arange(self.GRID_SIZE + 1) / self.GRID_SIZE
        # linear-frequency position (Hz) of each warped grid node
        self.node_freq_hz = warp_frequency(warped_grid, -self.alpha) * self.fs / (2.0 * np.pi)

    def grid_cepstrum(self, on_grid):
        """Truncated warped cepstra of log envelopes sampled at node_freq_hz,
        GRID_SIZE + 1 values along the last axis."""
        c = dct(on_grid, type=1, axis=-1) / (2.0 * self.GRID_SIZE)
        return c[..., : self.order]

    def envelope_matrix(self, freqs_hz):
        """(order, len(freqs_hz)) matrix M: `cep @ M` is the log envelope of
        cep at freqs_hz, linearly interpolated between warped grid nodes."""
        omega = 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / self.fs
        pos = warp_frequency(omega, self.alpha) / np.pi * self.GRID_SIZE
        pos = np.clip(pos, 0.0, float(self.GRID_SIZE))
        i0 = np.minimum(pos.astype(np.int64), self.GRID_SIZE - 1)
        frac = (pos - i0)[:, None]
        # row m is the cosine expansion at grid node m
        m = np.arange(self.GRID_SIZE + 1)
        recon = np.cos(np.outer(m, np.arange(self.order)) * np.pi / self.GRID_SIZE)
        recon[:, 1:] *= 2.0
        return (recon[i0] * (1.0 - frac) + recon[i0 + 1] * frac).T


def pulse_positions(f0, fs):
    """Sample indices of the pulses of a train whose frequency at sample i is
    f0[i] Hz: one pulse each time the phase, started at 0.5, passes an integer."""
    phase = np.cumsum(f0 / fs) + 0.5
    return np.flatnonzero(np.diff(np.floor(np.concatenate([[0.0], phase]))) >= 1)


# a dip of the normalized difference below this marks a period candidate
YIN_THRESHOLD = 0.15


def yin_periods(frames, fs, fmin, fmax, integration):
    """YIN-style period estimates for a block of frames, one per row.

    Parameters
    ----------
    frames : 2-D array
        One frame per row, each covering integration + round(fs/fmin)
        samples (longer rows are cut to that).
    integration : int
        Integration window length W in samples.

    Returns
    -------
    f0 : array
        Estimated fundamental in Hz per row, 0.0 when no usable periodicity.
    dip : array
        Minimum of the cumulative-mean-normalized difference per row (1.0 =
        none); small values mean strong periodicity.
    """
    tau_max = int(round(fs / fmin))
    tau_min = max(2, int(round(fs / fmax)))
    need = integration + tau_max
    x = np.asarray(frames, dtype=np.float64)[:, :need]
    rows = np.arange(len(x))

    sq = np.zeros((len(x), need + 1))
    np.cumsum(x * x, axis=1, out=sq[:, 1:])
    pow0 = sq[:, integration]
    pow_tau = sq[:, integration : need + 1] - sq[:, : tau_max + 1]
    # c[tau] = sum_j x[tau + j] x[j], j < W: tau + j < need, so a circular
    # correlation of length >= need has no wrap-around
    nfft = next_fast_len(need, real=True)
    spec = rfft(x, nfft, axis=1) * np.conj(rfft(x[:, :integration], nfft, axis=1))
    c = irfft(spec, nfft, axis=1)[:, : tau_max + 1]
    d = np.maximum(pow0[:, None] + pow_tau - 2.0 * c, 0.0)

    # cumulative-mean normalization
    dn = np.ones_like(d)
    csum = np.cumsum(d[:, 1:], axis=1)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    np.divide(d[:, 1:] * taus, csum, out=dn[:, 1:], where=csum > 0)

    # first dip below the threshold, then downhill to its local minimum;
    # with no dip below it, the global minimum of the search band
    lo, hi = tau_min, tau_max
    band = dn[:, lo : hi + 1]
    below = band < YIN_THRESHOLD
    first = np.argmax(below, axis=1)
    stops = np.ones(band.shape, dtype=bool)
    stops[:, :-1] = band[:, 1:] >= band[:, :-1]
    stops &= np.arange(band.shape[1]) >= first[:, None]
    tau = lo + np.where(below.any(axis=1), np.argmax(stops, axis=1), np.argmin(band, axis=1))
    dip = dn[rows, tau]

    # parabolic refinement on the raw difference function (tau >= 2)
    inner = tau < tau_max
    a = d[rows, tau - 1]
    b = d[rows, tau]
    cc = d[rows, np.minimum(tau + 1, tau_max)]
    denom = a - 2.0 * b + cc
    shift = np.zeros(len(x))
    np.divide(0.5 * (a - cc), denom, out=shift, where=inner & (np.abs(denom) > 1e-12))
    period = tau + np.clip(shift, -1.0, 1.0)

    silent = pow0 < 1e-14
    return np.where(silent, 0.0, fs / period), np.where(silent, 1.0, dip)


def box_smooth(values, half_width):
    """Moving average with window (2*half_width + 1), edge-shrunk at borders,
    along the last axis."""
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[-1]
    c = np.zeros(v.shape[:-1] + (n + 1,))
    np.cumsum(v, axis=-1, out=c[..., 1:])
    idx = np.arange(n)
    lo = np.maximum(idx - half_width, 0)
    hi = np.minimum(idx + half_width + 1, n)
    return (c[..., hi] - c[..., lo]) / (hi - lo)
