"""Oracles for the statistical-TTS degradation simulator."""

import numpy as np
import pytest

from conftest import make_features
from cyclevc.degrade import DegradeConfig, simulate_tts
from cyclevc.errors import ConfigError
from cyclevc.evaluation import mcd_utterance

IDENTITY = dict(smooth_window=1, variance_scale=1.0, lf0_smooth_window=1, noise_std=0.0)


def _edge_mean(x, i, half):
    n = len(x)
    window = [x[min(max(k, 0), n - 1)] for k in range(i - half, i + half + 1)]
    return float(np.mean(window))


# ----- config validation --------------------------------------------------------


def test_even_smoothing_windows_are_rejected():
    with pytest.raises(ConfigError, match="smooth_window must be odd"):
        DegradeConfig(smooth_window=8)
    with pytest.raises(ConfigError, match="lf0_smooth_window must be odd"):
        DegradeConfig(lf0_smooth_window=4)


def test_windows_must_be_positive_integers():
    with pytest.raises(ConfigError, match="positive integer"):
        DegradeConfig(smooth_window=0)
    with pytest.raises(ConfigError, match="positive integer"):
        DegradeConfig(smooth_window=-3)
    with pytest.raises(ConfigError, match="positive integer"):
        DegradeConfig(lf0_smooth_window=5.0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        DegradeConfig(seed=seed)


def test_variance_scale_and_noise_bounds():
    with pytest.raises(ConfigError, match="variance_scale"):
        DegradeConfig(variance_scale=1.2)
    with pytest.raises(ConfigError, match="variance_scale"):
        DegradeConfig(variance_scale=-0.1)
    with pytest.raises(ConfigError, match="noise_std"):
        DegradeConfig(noise_std=-0.01)


# ----- behaviour -----------------------------------------------------------------


def test_identity_settings_return_the_input_bit_exactly():
    feat = make_features("ident", 60)
    out = simulate_tts(feat, DegradeConfig(**IDENTITY))
    assert out.mcep.tobytes() == feat.mcep.tobytes()
    assert out.lf0.tobytes() == feat.lf0.tobytes()
    assert out.uv.tobytes() == feat.uv.tobytes()
    assert out.cap.tobytes() == feat.cap.tobytes()


def test_frame_count_voicing_and_aperiodicity_pass_through():
    feat = make_features("pass", 90)
    out = simulate_tts(feat)
    assert out.utt_id == feat.utt_id
    assert out.n_frames == feat.n_frames
    assert out.uv.tobytes() == feat.uv.tobytes()
    assert out.cap.tobytes() == feat.cap.tobytes()


def test_full_shrinkage_collapses_detail_to_the_utterance_mean():
    feat = make_features("shrink", 50)
    config = DegradeConfig(
        smooth_window=1, variance_scale=0.0, lf0_smooth_window=1, noise_std=0.0
    )
    out = simulate_tts(feat, config)
    expected = feat.mcep[:, 1:].astype(np.float64).mean(axis=0)
    assert np.allclose(out.mcep[:, 1:], expected[None, :], atol=1e-6)


def test_energy_dimension_is_never_shrunk():
    feat = make_features("energy", 70)
    config = DegradeConfig(
        smooth_window=1, variance_scale=0.3, lf0_smooth_window=1, noise_std=0.0
    )
    out = simulate_tts(feat, config)
    assert out.mcep[:, 0].tobytes() == feat.mcep[:, 0].copy().tobytes()


def test_smoothing_matches_an_edge_replicated_average():
    feat = make_features("smooth", 12)
    config = DegradeConfig(
        smooth_window=3, variance_scale=1.0, lf0_smooth_window=5, noise_std=0.0
    )
    out = simulate_tts(feat, config)
    mcep64 = feat.mcep.astype(np.float64)
    lf064 = feat.lf0.astype(np.float64)
    for i in range(feat.n_frames):
        for d in (0, 7, 44):
            assert out.mcep[i, d] == pytest.approx(
                _edge_mean(mcep64[:, d], i, 1), abs=1e-6
            )
        assert out.lf0[i] == pytest.approx(_edge_mean(lf064, i, 2), abs=1e-6)


def test_degradation_grows_as_variance_scale_drops():
    feat = make_features("sweep", 200)
    mcds = []
    for scale in (1.0, 0.8, 0.6, 0.4):
        out = simulate_tts(feat, DegradeConfig(variance_scale=scale))
        mcds.append(mcd_utterance(out, feat))
    assert all(b >= a for a, b in zip(mcds, mcds[1:]))
    assert mcds[-1] > mcds[0]


def test_same_config_is_deterministic_and_seed_matters():
    feat = make_features("rand", 40)
    a = simulate_tts(feat, DegradeConfig())
    b = simulate_tts(feat, DegradeConfig())
    assert a.mcep.tobytes() == b.mcep.tobytes()
    other_seed = simulate_tts(feat, DegradeConfig(seed=99))
    assert other_seed.mcep.tobytes() != a.mcep.tobytes()


def test_noise_differs_per_utterance_under_one_corpus_seed():
    from cyclevc.features import UtteranceFeatures

    base = make_features("utt-a", 40)
    twin = UtteranceFeatures("utt-b", base.frames)
    a = simulate_tts(base, DegradeConfig())
    b = simulate_tts(twin, DegradeConfig())
    assert a.mcep.tobytes() != b.mcep.tobytes()
