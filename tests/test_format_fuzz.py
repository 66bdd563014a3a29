"""Property tests of the on-disk readers: any bytes load or raise the InputError
family (or ConfigError for config files), and what loads is finite.

Each reader gets arbitrary bytes plus truncated and byte-flipped copies of a
valid file of its format.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FUZZ, make_features, make_model
from cyclevc import cli
from cyclevc.errors import ConfigError, InputError
from cyclevc.features import read_features, read_manifest, write_features, write_manifest
from cyclevc.model import load_checkpoint, save_checkpoint
from cyclevc.wavio import read_wav, write_wav


def _flip(raw, edits):
    out = bytearray(raw)
    for pos, mask in edits:
        out[pos % len(out)] ^= mask
    return bytes(out)


def _variants(valid):
    """Arbitrary bytes, prefixes of `valid`, and `valid` with bytes flipped."""
    return st.one_of(
        st.binary(max_size=2 * len(valid)),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.lists(
            st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)),
            min_size=1,
            max_size=8,
        ).map(lambda edits: _flip(valid, edits)),
    )


def _valid_bytes(tmp_path_factory, name, write):
    path = tmp_path_factory.mktemp("valid") / name
    write(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    rng = np.random.default_rng(3)
    return {
        "cvf": _valid_bytes(
            tmp_path_factory, "u.cvf", lambda p: write_features(make_features("u", 4, rng), p)
        ),
        "ckpt": _valid_bytes(
            tmp_path_factory, "m.ckpt", lambda p: save_checkpoint(make_model(seed=1), p)
        ),
        "tsv": _valid_bytes(
            tmp_path_factory,
            "pairs.tsv",
            lambda p: write_manifest([("u", "nat/u.cvf", "syn/u.cvf"), ("v", "/a", "/b")], p),
        ),
        "wav": _valid_bytes(
            tmp_path_factory, "u.wav", lambda p: write_wav(p, 0.3 * rng.standard_normal(64), 24000)
        ),
        "cfg": b"variance-scale = 0.55\nnoise-std = 0.02\n# note\nseed = 3\n",
    }


def _fuzz(kind, check):
    """A test that writes each variant of a valid `kind` file and runs `check`."""

    @FUZZ
    @given(data=st.data())
    def test(tmp_path, valid, data):
        raw = data.draw(_variants(valid[kind]), label=kind)
        path = tmp_path / f"fuzz.{kind}"
        path.write_bytes(raw)
        try:
            check(path)
        except (InputError, ConfigError):
            pass

    return test


def _check_features(path):
    feat = read_features(path)
    assert feat.n_frames >= 1
    assert np.all(np.isfinite(feat.full_frames()))


def _check_checkpoint(path):
    model = load_checkpoint(path)
    assert all(np.all(np.isfinite(p)) for p in model.params.values())
    for stats in (model.norm_src, model.norm_tgt):
        assert np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.std))


def _check_manifest(path):
    records = read_manifest(path)
    assert all(len(r) == 3 and all(isinstance(f, str) for f in r) for r in records)


def _check_wav(path):
    samples, fs = read_wav(path)
    assert fs > 0
    assert np.all(np.isfinite(samples)) and np.all(np.abs(samples) <= 32768 / 32767)


def _check_config(path):
    argv = ["simulate", "--features-dir", "f", "--out-dir", "o", "--config", str(path)]
    args = cli._parse_args(argv)
    assert args.features_dir == "f" and args.out_dir == "o"


test_read_features_fuzz = _fuzz("cvf", _check_features)
test_load_checkpoint_fuzz = _fuzz("ckpt", _check_checkpoint)
test_read_manifest_fuzz = _fuzz("tsv", _check_manifest)
test_read_wav_fuzz = _fuzz("wav", _check_wav)
test_config_file_fuzz = _fuzz("cfg", _check_config)
