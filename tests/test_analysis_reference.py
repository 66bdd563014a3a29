"""The block-batched analyzer against its first implementation (tests/seed_acoustics.py).

The current analyzer computes the same features in another arithmetic
order: YIN's correlation as one batched FFT per block, both probe sets as one
Bluestein pass per block of voiced frames (up to PROBE_ROWS rows, each window
zero-padded to the widest), periodograms batched per block, per-band sums
through bincount, and every envelope put on the codec's grid and turned into
a cepstrum by one DCT-I per block. It is held to tolerances set from float64
rounding, not to bit equality: the frame count and the voicing decision are
identical, lf0 and the mel-cepstrum are within 1e-6, and the band
aperiodicity is within 1e-5 dB.
"""

import numpy as np
import pytest

import seed_acoustics
from cyclevc.acoustics import (
    BLOCK_FRAMES,
    ENV_PERIODS,
    F0_CEIL,
    F0_FLOOR,
    FS,
    HOP,
    PROBE_ROWS,
    YIN_TAU_MAX,
    YIN_WINDOW,
    analyze,
    yin_periods,
)
from cyclevc.fixture import make_corpus
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


def _noisy(x, seed):
    # a -50 dB noise floor keeps the band aperiodicity above a tone well defined
    return x + 1e-3 * np.random.default_rng(seed).standard_normal(len(x))


def test_one_probe_batch_spanning_the_pitch_range_matches_the_seed_analyzer():
    # 60 Hz, an exponential glide to 400 Hz over 8 frames (too fast to be
    # voiced), then 400 Hz: the first PROBE_ROWS voiced frames of the first
    # block, one batch, take both ends of the pitch range
    t = np.arange(BLOCK_FRAMES * HOP) / FS
    t0, t1 = 10 * HOP / FS, 18 * HOP / FS
    rate = np.log(400.0 / 60.0) / (t1 - t0)
    tt = np.clip(t, t0, t1)
    phase = (
        60.0 * (np.exp(rate * (tt - t0)) - 1.0) / rate
        + 60.0 * np.minimum(t - t0, 0.0)
        + 400.0 * np.maximum(t - t1, 0.0)
    )
    feat = _assert_matches_the_seed(_noisy(0.3 * np.sin(2.0 * np.pi * phase), 5))
    batch = np.flatnonzero(feat.uv[:BLOCK_FRAMES])[:PROBE_ROWS]
    f0 = np.exp(feat.lf0[batch])
    assert len(batch) == PROBE_ROWS
    # windows of about 1,600 and 240 samples, about 198 and 29 harmonic probes
    assert f0.min() < 63.0 and f0.max() > 390.0
    assert ENV_PERIODS * FS / f0.min() > 6 * ENV_PERIODS * FS / f0.max()


def test_a_block_with_one_voiced_frame_matches_the_seed_analyzer():
    # the tone stops 40 samples past the centre of frame BLOCK_FRAMES + 1, so
    # of the second block only its first frame is voiced
    t = np.arange(2 * BLOCK_FRAMES * HOP) / FS
    x = 0.3 * np.sin(2.0 * np.pi * 150.0 * t) * (t < ((BLOCK_FRAMES + 1) * HOP + 40) / FS)
    feat = _assert_matches_the_seed(_noisy(x, 6))
    assert np.flatnonzero(feat.uv[BLOCK_FRAMES : 2 * BLOCK_FRAMES]).tolist() == [0]


def test_voiced_runs_across_batch_and_block_edges_match_the_seed_analyzer():
    # a 120-180 Hz vibrato over 300 frames, silent in frames 90-109 and 200-214
    n = 300 * HOP
    f0 = 150.0 + 30.0 * np.sin(2.0 * np.pi * 1.5 * np.arange(n) / FS)
    x = 0.3 * np.sin(2.0 * np.pi * np.cumsum(f0) / FS)
    frame = np.arange(n) // HOP
    x[((frame >= 90) & (frame < 110)) | ((frame >= 200) & (frame < 215))] = 0.0
    feat = _assert_matches_the_seed(_noisy(x, 4))
    uv = feat.uv > 0.5
    edges = np.arange(BLOCK_FRAMES, feat.n_frames, BLOCK_FRAMES)
    assert np.all(uv[edges - 1] & uv[edges])  # every block edge cuts a voiced run
    per_block = [uv[lo : lo + BLOCK_FRAMES].sum() for lo in range(0, feat.n_frames, BLOCK_FRAMES)]
    assert max(per_block) > PROBE_ROWS  # a block takes more than one batch


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
    f0, dip = yin_periods(rows)
    for row, got_f0, got_dip in zip(rows, f0, dip):
        ref_f0, ref_dip = seed_acoustics.yin_period(row, FS, F0_FLOOR, F0_CEIL, YIN_WINDOW)
        assert got_f0 == pytest.approx(ref_f0, rel=1e-9, abs=1e-12)
        assert got_dip == pytest.approx(ref_dip, rel=1e-9, abs=1e-12)
