"""Simulated TTS degradation: over-smoothed, variance-shrunk features.

Statistical TTS acoustic models produce trajectories that are temporally
smoother and have less spectral variance than natural speech. The simulator
reproduces both artifacts on natural features — a moving average over time,
shrinkage of the detail coefficients toward their utterance mean, and mild
additive noise — while leaving frame count, voicing, and aperiodicity
untouched, so each degraded utterance stays frame-aligned with its natural
counterpart (the pairing a converter needs for training).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import check
from .features import LF0_INDEX, MCEP_SLICE, UtteranceFeatures

@dataclass(frozen=True)
class DegradeConfig:
    """Degradation knobs; the defaults emulate a mid-quality statistical TTS.

    At the identity settings (windows 1, variance_scale 1, noise_std 0) the
    simulator returns the input bit-exactly.
    """

    smooth_window: int = 9
    variance_scale: float = 0.6
    lf0_smooth_window: int = 5
    noise_std: float = 0.05
    seed: int = 7112024  # constant corpus-level seed

    def __post_init__(self):
        for name in ("smooth_window", "lf0_smooth_window"):
            check(name, getattr(self, name), int, "a positive integer", lambda v: v >= 1)
            check(name, getattr(self, name), int, "odd", lambda v: v % 2 == 1)
        check("variance_scale", self.variance_scale, float, "in [0, 1]", lambda v: 0 <= v <= 1)
        check("noise_std", self.noise_std, float, "non-negative and finite", lambda v: 0 <= v < math.inf)
        check("seed", self.seed, int, "a non-negative integer", lambda v: v >= 0)


def _moving_average(x, window):
    """Centered moving average over axis 0 with edge replication."""
    half = window // 2
    pad = np.concatenate([np.repeat(x[:1], half, 0), x, np.repeat(x[-1:], half, 0)])
    kernel = np.ones(window) / window
    return np.apply_along_axis(lambda c: np.convolve(c, kernel, "valid"), 0, pad)


def _utterance_rng(seed, utt_id):
    ss = np.random.SeedSequence([seed] + list(utt_id.encode("utf-8")))
    return np.random.Generator(np.random.PCG64(ss))


def simulate_tts(feat, config=None):
    """Return a degraded copy of `feat` with the same frame count.

    All mel-cepstral dims are smoothed over time; dims 1-44 are additionally
    shrunk toward their utterance mean and perturbed with seeded noise
    (dim 0, the energy term, is smoothed but never shrunk). lf0 is smoothed
    with its own window; uv and cap pass through unchanged. The noise stream
    is derived from (config.seed, utt_id), so a corpus-level seed still gives
    every utterance its own deterministic perturbation.
    """
    config = config or DegradeConfig()
    frames = feat.frames.astype(np.float64)
    mcep = frames[:, MCEP_SLICE]
    mcep[:] = _moving_average(mcep, config.smooth_window)
    detail = mcep[:, 1:]
    if config.variance_scale != 1.0:
        mean = detail.mean(axis=0, keepdims=True)
        detail[:] = mean + config.variance_scale * (detail - mean)
    if config.noise_std > 0.0:
        rng = _utterance_rng(config.seed, feat.utt_id)
        detail += config.noise_std * rng.standard_normal(detail.shape)
    frames[:, LF0_INDEX] = _moving_average(frames[:, LF0_INDEX, None], config.lf0_smooth_window)[:, 0]
    return UtteranceFeatures(feat.utt_id, frames)
