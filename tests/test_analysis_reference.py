"""The block-batched analyzer against its first implementation (tests/seed_acoustics.py).

The current analyzer computes the same features in another arithmetic
order: YIN's correlation as one batched FFT per block, both probe sets as one
Bluestein convolution per voiced frame, periodograms batched per block, and
per-band sums through bincount. It is held to tolerances set from float64
rounding, not to bit equality: the frame count and the voicing decision are
identical, lf0 and the mel-cepstrum are within 1e-6, and the band
aperiodicity is within 1e-5 dB.
"""

import numpy as np
import pytest

import seed_acoustics
from cyclevc.acoustics import F0_CEIL, F0_FLOOR, FS, HOP, YIN_TAU_MAX, YIN_WINDOW, analyze
from cyclevc.fixture import make_corpus
from cyclevc.sigproc import yin_periods
from cyclevc.wavio import read_wav

LF0_ATOL = 1e-6
MCEP_ATOL = 1e-6
CAP_ATOL_DB = 1e-5

SEED = seed_acoustics.SeedAnalyzer()


def _assert_matches_the_seed(x, cap_bands=slice(None)):
    got = analyze(x, FS)
    ref = SEED.analyze(x, FS)
    assert got.n_frames == ref.n_frames
    assert np.array_equal(got.uv, ref.uv)
    np.testing.assert_allclose(got.lf0, ref.lf0, rtol=0, atol=LF0_ATOL)
    np.testing.assert_allclose(got.mcep, ref.mcep, rtol=0, atol=MCEP_ATOL)
    np.testing.assert_allclose(
        got.cap[:, cap_bands], ref.cap[:, cap_bands], rtol=0, atol=CAP_ATOL_DB
    )
    return got


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("wav"), n_utterances=3, seed=20240917)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_fixture_utterances_match_the_seed_analyzer(corpus, index):
    x, _ = read_wav(corpus[index])
    feat = _assert_matches_the_seed(x)
    assert 0 < feat.uv.sum() < feat.n_frames  # both voiced and unvoiced paths ran


def test_silence_matches_the_seed_analyzer():
    _assert_matches_the_seed(np.zeros(FS // 2))


@pytest.mark.parametrize("noise", [0.0, 1e-3])
@pytest.mark.parametrize("freq", [60.0, 137.0, 400.0])
def test_pure_tones_match_the_seed_analyzer(freq, noise):
    t = np.arange(FS // 2) / FS
    x = 0.3 * np.sin(2.0 * np.pi * freq * t + 0.4)
    x += noise * np.random.default_rng(int(freq)).standard_normal(len(x))
    # Above a noiseless tone, both probe sets of the 2-6 and 6-12 kHz bands
    # measure only rounding noise (~1e-11 of the tone), so their ratio, the
    # band aperiodicity, is arbitrary in either implementation; a -50 dB noise
    # floor makes it well defined.
    feat = _assert_matches_the_seed(x, cap_bands=slice(None) if noise else slice(0, 1))
    assert feat.uv.mean() > 0.5


def test_white_noise_matches_the_seed_analyzer():
    rng = np.random.default_rng(7)
    _assert_matches_the_seed(0.1 * rng.standard_normal(FS // 2))


@pytest.mark.parametrize("n_samples", [HOP, YIN_WINDOW + YIN_TAU_MAX - 1])
def test_short_waveforms_match_the_seed_analyzer(n_samples):
    rng = np.random.default_rng(n_samples)
    t = np.arange(n_samples) / FS
    x = 0.3 * np.sin(2.0 * np.pi * 150.0 * t) + 0.01 * rng.standard_normal(n_samples)
    _assert_matches_the_seed(x)


def test_blocks_longer_than_one_batch_match_the_seed_analyzer():
    # 300 frames span several analysis blocks; voiced and unvoiced stretches alternate
    t = np.arange(300 * HOP) / FS
    x = 0.3 * np.sign(np.sin(2.0 * np.pi * 3.0 * t)).clip(0) * np.sin(2.0 * np.pi * 180.0 * t)
    x += 0.002 * np.random.default_rng(3).standard_normal(len(x))
    _assert_matches_the_seed(x)


def test_block_yin_matches_the_seed_per_frame_yin():
    rng = np.random.default_rng(11)
    t = np.arange(YIN_WINDOW + YIN_TAU_MAX) / FS
    rows = np.stack(
        [
            0.3 * np.sin(2.0 * np.pi * 211.0 * t),
            0.1 * rng.standard_normal(len(t)),
            np.zeros(len(t)),  # silent: (0, 1) without touching the rest
            0.3 * np.sign(np.sin(2.0 * np.pi * 95.0 * t)),
        ]
    )
    f0, dip = yin_periods(rows, FS, F0_FLOOR, F0_CEIL, YIN_WINDOW)
    for row, got_f0, got_dip in zip(rows, f0, dip):
        ref_f0, ref_dip = seed_acoustics.yin_period(row, FS, F0_FLOOR, F0_CEIL, YIN_WINDOW)
        assert got_f0 == pytest.approx(ref_f0, rel=1e-9, abs=1e-12)
        assert got_dip == pytest.approx(ref_dip, rel=1e-9, abs=1e-12)
