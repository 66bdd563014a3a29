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

from .errors import ConfigError
from .features import UtteranceFeatures

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
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
            if value % 2 == 0:
                raise ConfigError(f"{name} must be odd, got {value}")
        if not 0.0 <= self.variance_scale <= 1.0:
            raise ConfigError(
                f"variance_scale must be in [0, 1], got {self.variance_scale!r}"
            )
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be non-negative and finite, got {self.noise_std!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


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
    mcep = _moving_average(feat.mcep.astype(np.float64), config.smooth_window)
    detail = mcep[:, 1:]
    if config.variance_scale != 1.0:
        mean = detail.mean(axis=0, keepdims=True)
        detail = mean + config.variance_scale * (detail - mean)
    if config.noise_std > 0.0:
        rng = _utterance_rng(config.seed, feat.utt_id)
        detail = detail + config.noise_std * rng.standard_normal(detail.shape)
    mcep = np.concatenate([mcep[:, :1], detail], axis=1)

    lf0 = _moving_average(
        feat.lf0.astype(np.float64)[:, None], config.lf0_smooth_window
    )[:, 0]

    return UtteranceFeatures(
        utt_id=feat.utt_id,
        mcep=mcep,
        lf0=lf0,
        uv=feat.uv.copy(),
        cap=feat.cap.copy(),
    )
