"""The block-batched synthesizer against its first implementation (tests/seed_acoustics.py).

The current synthesizer renders blocks of frames as matrices: batched FFTs of
the excitation rows, the log envelope as one product with the codec's
envelope matrix, and an overlap-add that sums each sample's frames in frame
order. Only the rounding of the envelope product and of the batched FFTs
differs, so the waveform is held within 1e-12 of the reference's peak, and the
16-bit PCM written for fixture utterances, natural and degraded, is identical.
"""

import numpy as np
import pytest

import seed_acoustics
from conftest import make_features
from cyclevc.acoustics import BLOCK_FRAMES, FS, analyze, synthesize
from cyclevc.degrade import simulate_tts
from cyclevc.fixture import make_corpus
from cyclevc.wavio import read_wav, write_wav

REL_TOL = 1e-12


@pytest.mark.parametrize("n", [1, 2, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 300])
def test_waveform_matches_the_seed_synthesizer(n):
    feat = make_features(f"syn{n}", n)
    ref = seed_acoustics.synthesize(feat, FS)
    got = synthesize(feat, FS)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def fixture_features(tmp_path_factory):
    paths = make_corpus(tmp_path_factory.mktemp("wav"), n_utterances=6, seed=20240917)
    natural = [analyze(read_wav(p)[0], FS, utt_id=p.stem) for p in paths]
    return natural + [simulate_tts(f) for f in natural]


@pytest.mark.parametrize("index", range(12))
def test_fixture_pcm_equals_the_seed_synthesizer(fixture_features, tmp_path, index):
    feat = fixture_features[index]
    got, ref = tmp_path / "got.wav", tmp_path / "ref.wav"
    write_wav(got, np.clip(synthesize(feat, FS), -1.0, 1.0), FS)
    write_wav(ref, np.clip(seed_acoustics.synthesize(feat, FS), -1.0, 1.0), FS)
    assert got.read_bytes() == ref.read_bytes()
