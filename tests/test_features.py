"""Feature container contracts, the binary file format, and normalization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_features, make_model
from cyclevc import features
from cyclevc.errors import FormatError, InputError, ShapeError
from cyclevc.features import (
    CAP_SLICE,
    LF0_INDEX,
    MCEP_DIM,
    N_DIMS,
    UV_INDEX,
    NormStats,
    UtteranceFeatures,
    atomic_open,
    compute_norm_stats,
    denormalize_mcep,
    normalize,
    read_features,
    read_manifest,
    write_features,
    write_manifest,
)
from cyclevc.model import save_checkpoint

# ----- container validation -------------------------------------------------


def test_test_features_are_the_same_in_every_process():
    # str hashes are salted per process; the builder's seed must not be
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    script = (
        "from conftest import make_features; "
        "print(make_features('u', 5).full_frames().tobytes().hex())"
    )
    dumps = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert dumps[0] == dumps[1]


def test_arrays_are_stored_as_float32():
    feat = make_features("u", 8)
    assert feat.mcep.dtype == np.float32
    assert feat.lf0.dtype == np.float32
    assert feat.uv.dtype == np.float32
    assert feat.cap.dtype == np.float32


def test_mismatched_frame_counts_are_rejected():
    with pytest.raises(ShapeError, match="lf0"):
        UtteranceFeatures(
            utt_id="u",
            mcep=np.zeros((5, 45)),
            lf0=np.zeros(4),
            uv=np.zeros(5),
            cap=np.zeros((5, 3)),
        )


def test_wrong_mcep_width_is_rejected():
    with pytest.raises(ShapeError, match="mcep"):
        UtteranceFeatures(
            utt_id="u",
            mcep=np.zeros((5, 44)),
            lf0=np.zeros(5),
            uv=np.zeros(5),
            cap=np.zeros((5, 3)),
        )


def test_non_finite_values_are_rejected_naming_the_array():
    mcep = np.zeros((5, 45))
    mcep[2, 3] = np.nan
    with pytest.raises(InputError, match="mcep"):
        UtteranceFeatures(
            utt_id="u", mcep=mcep, lf0=np.zeros(5), uv=np.zeros(5), cap=np.zeros((5, 3))
        )


def test_non_binary_voicing_flags_are_rejected():
    with pytest.raises(InputError, match="uv"):
        UtteranceFeatures(
            utt_id="u",
            mcep=np.zeros((5, 45)),
            lf0=np.zeros(5),
            uv=np.full(5, 0.5),
            cap=np.zeros((5, 3)),
        )


@pytest.mark.parametrize("cap_db", [3.0, 1e-3, -60.5, -200.0])
def test_aperiodicity_outside_its_coded_range_is_rejected(cap_db):
    cap = np.zeros((5, 3))
    cap[2, 1] = cap_db
    with pytest.raises(InputError, match="cap"):
        UtteranceFeatures(
            utt_id="u", mcep=np.zeros((5, 45)), lf0=np.zeros(5), uv=np.zeros(5), cap=cap
        )


def test_aperiodicity_range_ends_are_accepted():
    cap = np.array([[0.0, features.CAP_DB_FLOOR, -30.0]] * 2)
    feat = UtteranceFeatures(
        utt_id="u", mcep=np.zeros((2, 45)), lf0=np.zeros(2), uv=np.zeros(2), cap=cap
    )
    assert feat.cap.min() == -60.0 and feat.cap.max() == 0.0


def test_full_frame_layout_is_mcep_lf0_uv_cap():
    feat = make_features("u", 6)
    frames = feat.full_frames()
    assert frames.shape == (6, N_DIMS)
    assert np.array_equal(frames[:, :MCEP_DIM], feat.mcep)
    assert np.array_equal(frames[:, LF0_INDEX], feat.lf0)
    assert np.array_equal(frames[:, UV_INDEX], feat.uv)
    assert np.array_equal(frames[:, CAP_SLICE], feat.cap)


def test_full_frames_round_trip_through_from_full_frames():
    feat = make_features("u", 7)
    back = UtteranceFeatures.from_full_frames("u", feat.full_frames())
    for name in ("mcep", "lf0", "uv", "cap"):
        assert np.array_equal(getattr(back, name), getattr(feat, name))


def test_with_mcep_replaces_spectrum_and_keeps_prosody():
    feat = make_features("u", 6)
    new_mcep = np.ones((6, 45), dtype=np.float32)
    out = feat.with_mcep(new_mcep)
    assert np.array_equal(out.mcep, new_mcep)
    assert np.array_equal(out.lf0, feat.lf0)
    assert np.array_equal(out.uv, feat.uv)
    assert np.array_equal(out.cap, feat.cap)
    assert out.utt_id == feat.utt_id


# ----- binary file format ---------------------------------------------------


def test_file_round_trip_is_bit_exact(tmp_path):
    feat = make_features("roundtrip", 33)
    path = tmp_path / "roundtrip.cvf"
    write_features(feat, path)
    back = read_features(path)
    assert back.utt_id == "roundtrip"
    assert back.full_frames().tobytes() == feat.full_frames().tobytes()


def test_rewriting_read_features_gives_identical_bytes(tmp_path):
    feat = make_features("u", 20)
    first = tmp_path / "a.cvf"
    second = tmp_path / "b.cvf"
    write_features(feat, first)
    write_features(read_features(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_utt_id_defaults_to_file_stem(tmp_path):
    path = tmp_path / "melody42.cvf"
    write_features(make_features("ignored", 4), path)
    assert read_features(path).utt_id == "melody42"
    assert read_features(path, utt_id="override").utt_id == "override"


def _valid_file_bytes(n_frames=3):
    import struct

    header = struct.pack("<4sIIIII", b"CVF1", 1, n_frames, 50, 5000, 0)
    body = np.zeros((n_frames, 50), dtype="<f4")
    body[:, 46] = 0.0
    return header + body.tobytes()


def test_bad_magic_is_a_format_error(tmp_path):
    path = tmp_path / "bad.cvf"
    raw = _valid_file_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="bad magic"):
        read_features(path)


def test_unsupported_version_is_a_format_error(tmp_path):
    import struct

    path = tmp_path / "v9.cvf"
    raw = bytearray(_valid_file_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_features(path)


def test_wrong_dimension_count_is_a_format_error(tmp_path):
    import struct

    path = tmp_path / "dims.cvf"
    raw = bytearray(_valid_file_bytes())
    raw[12:16] = struct.pack("<I", 49)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="n_dims"):
        read_features(path)


def test_wrong_frame_shift_is_a_format_error(tmp_path):
    import struct

    path = tmp_path / "shift.cvf"
    raw = bytearray(_valid_file_bytes())
    raw[16:20] = struct.pack("<I", 10000)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="frame_shift"):
        read_features(path)


def test_nonzero_reserved_field_is_a_format_error(tmp_path):
    import struct

    path = tmp_path / "reserved.cvf"
    raw = bytearray(_valid_file_bytes())
    raw[20:24] = struct.pack("<I", 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="reserved"):
        read_features(path)


def test_truncated_header_is_a_format_error(tmp_path):
    path = tmp_path / "short.cvf"
    path.write_bytes(b"CVF1\x01\x00")
    with pytest.raises(FormatError, match="truncated header"):
        read_features(path)


def test_header_body_frame_count_mismatch_is_a_truncation_error(tmp_path):
    # header declares 3 frames but the body carries only 2
    path = tmp_path / "trunc.cvf"
    raw = _valid_file_bytes(n_frames=3)
    path.write_bytes(raw[: len(raw) - 50 * 4])
    with pytest.raises(FormatError, match="truncated body"):
        read_features(path)


def test_zero_frame_file_is_a_format_error(tmp_path):
    path = tmp_path / "empty.cvf"
    path.write_bytes(_valid_file_bytes(n_frames=0))
    with pytest.raises(FormatError, match="0 frames"):
        read_features(path)


# ----- normalization --------------------------------------------------------


def test_norm_stats_match_hand_computation():
    a = UtteranceFeatures(
        utt_id="a",
        mcep=np.tile(np.arange(45, dtype=np.float32), (2, 1)),
        lf0=np.array([5.0, 7.0]),
        uv=np.array([1.0, 1.0]),
        cap=np.zeros((2, 3)),
    )
    b = UtteranceFeatures(
        utt_id="b",
        mcep=np.zeros((2, 45), dtype=np.float32),
        lf0=np.array([1.0, 3.0]),
        uv=np.array([0.0, 0.0]),
        cap=np.full((2, 3), -8.0),
    )
    stats = compute_norm_stats([a, b])
    # lf0 column holds {5, 7, 1, 3}: mean 4, population std sqrt(5)
    assert stats.mean[LF0_INDEX] == pytest.approx(4.0)
    assert stats.std[LF0_INDEX] == pytest.approx(np.sqrt(5.0))
    # uv column holds {1, 1, 0, 0}
    assert stats.mean[UV_INDEX] == pytest.approx(0.5)
    assert stats.std[UV_INDEX] == pytest.approx(0.5)
    # cap columns hold {0, 0, -8, -8}
    assert np.allclose(stats.mean[CAP_SLICE], -4.0)


def test_constant_dimension_std_is_floored():
    feat = make_features("u", 10)
    feat.uv[:] = 1.0  # constant dimension
    stats = compute_norm_stats([feat])
    assert stats.std[UV_INDEX] == 1e-6
    normalized = normalize(feat, stats)
    assert np.allclose(normalized[:, UV_INDEX], 0.0)


def test_normalized_frames_have_zero_mean_unit_std(rng):
    feats = [make_features(f"u{i}", 40 + i) for i in range(4)]
    stats = compute_norm_stats(feats)
    frames = np.concatenate([normalize(f, stats) for f in feats]).astype(np.float64)
    assert np.all(np.abs(frames.mean(axis=0)) < 1e-5)
    varying = stats.std > 1e-6
    assert np.all(np.abs(frames.std(axis=0)[varying] - 1.0) < 1e-4)


def test_denormalize_inverts_normalize_within_tolerance():
    feats = [make_features(f"u{i}", 25) for i in range(3)]
    stats = compute_norm_stats(feats)
    target = feats[0]
    mcep_back = denormalize_mcep(normalize(target, stats)[:, :MCEP_DIM], stats)
    scale = np.maximum(np.abs(target.mcep), 1.0)
    assert np.all(np.abs(mcep_back - target.mcep) / scale < 1e-6)


def test_empty_feature_set_is_rejected():
    with pytest.raises(InputError, match="empty"):
        compute_norm_stats([])


@pytest.mark.parametrize("field", ["mean", "std"])
def test_non_finite_norm_vectors_are_rejected(field):
    vectors = {"mean": np.zeros(50), "std": np.ones(50)}
    vectors[field][7] = np.nan
    with pytest.raises(InputError, match=f"norm {field}"):
        NormStats(**vectors)


def test_denormalize_rejects_wrong_width():
    stats = compute_norm_stats([make_features("u", 5)])
    with pytest.raises(ShapeError):
        denormalize_mcep(np.zeros((4, 44)), stats)


# ----- manifest files -------------------------------------------------------


def test_manifest_round_trip_with_absolute_paths(tmp_path):
    path = tmp_path / "pairs.tsv"
    records = [
        ("utt1", "/data/nat/utt1.cvf", "/data/syn/utt1.cvf"),
        ("utt2", "/data/nat/utt2.cvf", "/data/syn/utt2.cvf"),
    ]
    write_manifest(records, path)
    assert read_manifest(path) == records


def test_manifest_relative_paths_resolve_against_manifest_dir(tmp_path):
    path = tmp_path / "pairs.tsv"
    write_manifest([("u", "nat/u.cvf", "syn/u.cvf")], path)
    (utt_id, natural, synthetic), = read_manifest(path)
    assert utt_id == "u"
    assert natural == str(tmp_path / "nat/u.cvf")
    assert synthetic == str(tmp_path / "syn/u.cvf")


def test_manifest_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\ta\tb\nu2\tonly-two-fields\n", encoding="utf-8")
    with pytest.raises(FormatError, match="2"):
        read_manifest(path)


def test_non_utf8_manifest_is_a_format_error(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"u1\ta\tb\nu2\t\xff\xfe\tb\n")
    with pytest.raises(FormatError, match="UTF-8"):
        read_manifest(path)


# ----- atomic writes ----------------------------------------------------------


def _fail_on_replace(monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(features.os, "replace", refuse)


def test_a_write_that_fails_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_open(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("midway")
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_manifest_failing_midway_keeps_the_old_manifest(tmp_path):
    path = tmp_path / "pairs.tsv"
    write_manifest([("u", "nat/u.cvf", "syn/u.cvf")], path)
    before = path.read_bytes()

    def records():
        yield ("v", "nat/v.cvf", "syn/v.cvf")
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        write_manifest(records(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.tsv"]


def test_failed_feature_and_checkpoint_writes_keep_the_old_files(tmp_path, monkeypatch):
    cvf, ckpt = tmp_path / "u.cvf", tmp_path / "m.ckpt"
    write_features(make_features("u", 5), cvf)
    save_checkpoint(make_model(seed=1), ckpt)
    before = cvf.read_bytes(), ckpt.read_bytes()
    _fail_on_replace(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        write_features(make_features("u", 9), cvf)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(make_model(seed=2), ckpt)
    assert (cvf.read_bytes(), ckpt.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "u.cvf"]
