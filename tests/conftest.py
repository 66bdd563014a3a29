"""Shared builders for the test suite."""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cyclevc.features import N_DIMS, NormStats, UtteranceFeatures
from cyclevc.model import CycleVCModel, ModelArch, save_checkpoint

# shared by the property tests: reproducible examples, no per-example deadline
FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def make_features(utt_id, n_frames, rng=None, voiced=True):
    """Random but contract-valid features for one utterance."""
    rng = rng or np.random.default_rng(zlib.crc32(utt_id.encode("utf-8")))
    mcep = rng.normal(0.0, 0.5, size=(n_frames, 45))
    lf0 = rng.uniform(np.log(100.0), np.log(250.0), size=n_frames)
    if voiced:
        uv = (rng.uniform(size=n_frames) < 0.7).astype(np.float32)
    else:
        uv = np.zeros(n_frames, dtype=np.float32)
    cap = rng.uniform(-60.0, 0.0, size=(n_frames, 3))
    return features_from_parts(utt_id, mcep, lf0, uv, cap)


def features_from_parts(utt_id, mcep, lf0, uv, cap):
    """UtteranceFeatures whose frames are the columns [mcep | lf0 | uv | cap]."""
    return UtteranceFeatures(utt_id, np.column_stack([mcep, lf0, uv, cap]))


def probe_amplitudes(segment, window, freqs_hz, fs):
    """Cosine-component amplitudes of `segment` at the given frequencies.

    Direct windowed DFT probes normalized by the window's mainlobe gain
    (2 / sum(window)): the reference the analyzer's one-pass probe is
    checked against.
    """
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    if len(freqs_hz) == 0:
        return np.zeros(0)
    wx = np.asarray(segment, dtype=np.float64) * window
    n = np.arange(len(wx), dtype=np.float64)
    phase = np.exp(np.outer(freqs_hz, n) * (-2j * np.pi / fs))
    return np.abs(phase @ wx) * (2.0 / window.sum())


def unit_norms():
    """Normalization stats that make normalize/denormalize the identity."""
    zeros = np.zeros(N_DIMS)
    ones = np.ones(N_DIMS)
    return (
        NormStats(mean=zeros.copy(), std=ones.copy()),
        NormStats(mean=zeros.copy(), std=ones.copy()),
    )


def tiny_arch(**overrides):
    """Small architecture for fast structural and gradient tests."""
    kwargs = dict(
        in_conv_layers=1,
        conv_channels=6,
        kernel=2,
        gru_hidden=5,
        out_conv_layers=1,
    )
    kwargs.update(overrides)
    return ModelArch(**kwargs)


def make_model(arch=None, seed=0, dtype=np.float32):
    norm_src, norm_tgt = unit_norms()
    return CycleVCModel.init(
        arch or tiny_arch(), norm_src, norm_tgt, seed=seed, dtype=dtype
    )


def write_non_finite_checkpoint(path):
    """A well-formed tiny checkpoint whose first parameter is NaN."""
    save_checkpoint(make_model(seed=1), path)
    raw = path.read_bytes()
    blob = raw.find(b"\n\n") + 2
    path.write_bytes(raw[:blob] + np.float32(np.nan).tobytes() + raw[blob + 4 :])


def write_checkpoint_repeating(path, line):
    """A well-formed tiny checkpoint whose header ends with the extra `line`."""
    save_checkpoint(make_model(seed=1), path)
    raw = path.read_bytes()
    sep = raw.find(b"\n\n")
    path.write_bytes(raw[:sep] + b"\n" + line.encode("utf-8") + raw[sep:])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
