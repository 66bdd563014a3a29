"""Distortion-metric and distance-map oracles."""

import numpy as np
import pytest

from conftest import make_features
from cyclevc.errors import InputError, PairingError, ShapeError
from cyclevc.evaluation import (
    MCD_COEF,
    _mcd_rows,
    embed_distances,
    mcd_plane,
    mcd_set,
    mcd_utterance,
    write_plane_svg,
    write_plane_tsv,
)


def _const_feat(utt_id, dim=None, value=0.0, n=4):
    feat = make_features(utt_id, n)
    feat.mcep[:] = 0.0
    if dim is not None:
        feat.mcep[:, dim] = value
    return feat


def _pairwise(coords):
    return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))


TRIANGLE_345 = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])


# ----- frame MCD -------------------------------------------------------------------


def test_identical_frames_have_zero_distortion(rng):
    c = rng.normal(size=(1, 45))
    assert _mcd_rows(c, c)[0] == 0.0


def test_unit_difference_in_one_dim_is_the_db_constant():
    a = np.zeros((1, 45))
    b = np.zeros((1, 45))
    b[0, 7] = 1.0
    d = _mcd_rows(a, b)[0]
    assert abs(d - 6.1419) < 1e-4
    assert d == pytest.approx(10.0 * np.sqrt(2.0) / np.log(10.0), rel=1e-12)


def test_energy_dimension_is_excluded():
    a = np.zeros((1, 45))
    b = np.zeros((1, 45))
    b[0, 0] = 123.0
    assert _mcd_rows(a, b)[0] == 0.0


def test_three_four_five_frames():
    a, b, c = np.zeros((3, 45))
    b[1] = 3.0 / MCD_COEF
    c[2] = 4.0 / MCD_COEF
    d = _mcd_rows(np.stack([a, a, b]), np.stack([b, c, c]))
    assert d == pytest.approx([3.0, 4.0, 5.0], rel=1e-12)


def test_frame_mcd_is_a_pseudometric(rng):
    a, b, c = rng.normal(0.0, 1.0, size=(1000, 3, 45)).transpose(1, 0, 2)
    ab = _mcd_rows(a, b)
    bc = _mcd_rows(b, c)
    ac = _mcd_rows(a, c)
    assert np.all(ab >= 0.0)
    assert np.array_equal(ab, _mcd_rows(b, a))
    assert np.all(_mcd_rows(a, a) == 0.0)
    assert np.all(ac <= ab + bc + 1e-9)


def test_utterance_mcd_of_one_frame_is_frame_mcd_bit_for_bit(rng):
    # the headline numbers come from mcd_utterance, the unit and
    # pseudometric guarantees are checked on the per-row formula it reads
    frames = rng.normal(0.0, 1.0, size=(1000, 2, 45)).astype(np.float32)
    base = make_features("u", 1)
    for a, b in frames:
        one = mcd_utterance(base.with_mcep(a[None]), base.with_mcep(b[None]))
        assert one == _mcd_rows(a[None], b[None])[0]


# ----- utterance and set MCD --------------------------------------------------------


def test_utterance_mcd_of_a_constant_offset(rng):
    a = make_features("u", 20)
    b = make_features("u", 20)
    b.mcep[:] = a.mcep
    b.mcep[:, 3] += 0.5
    expected = MCD_COEF * 0.5
    assert mcd_utterance(a, b) == pytest.approx(expected, rel=1e-6)


def test_utterance_mcd_ignores_the_tail_of_the_longer_input():
    a = _const_feat("u", n=10)
    b = _const_feat("u", dim=1, value=1.0 / MCD_COEF, n=12)
    b.mcep[10:, 1] = 99.0  # must never be read
    assert mcd_utterance(a, b) == pytest.approx(1.0, rel=1e-6)


def test_utterance_mcd_rejects_large_frame_mismatch():
    a = make_features("a", 10)
    b = make_features("b", 14)
    with pytest.raises(PairingError, match="differ by 4"):
        mcd_utterance(a, b)


def test_set_mcd_averages_utterance_values():
    set_a = [_const_feat("p"), _const_feat("q")]
    set_b = [
        _const_feat("p", dim=1, value=2.0 / MCD_COEF),
        _const_feat("q", dim=2, value=4.0 / MCD_COEF),
    ]
    assert mcd_set(set_a, set_b) == pytest.approx(3.0, rel=1e-6)
    assert mcd_set(set_b, set_a) == pytest.approx(3.0, rel=1e-6)


def test_set_mcd_matches_by_utt_id_not_order():
    set_a = [_const_feat("p"), _const_feat("q")]
    set_b = [
        _const_feat("q", dim=2, value=4.0 / MCD_COEF),
        _const_feat("p", dim=1, value=2.0 / MCD_COEF),
    ]
    assert mcd_set(set_a, set_b) == pytest.approx(3.0, rel=1e-6)


def test_set_mcd_validation_errors():
    with pytest.raises(InputError, match="empty"):
        mcd_set([], [])
    with pytest.raises(PairingError, match="duplicate"):
        mcd_set([_const_feat("p"), _const_feat("p")], [_const_feat("p")])
    with pytest.raises(PairingError, match="not present in both sets: q, r"):
        mcd_set([_const_feat("p"), _const_feat("q")], [_const_feat("p"), _const_feat("r")])


# ----- planar embedding --------------------------------------------------------------


def test_right_triangle_embeds_exactly():
    coords, stress = embed_distances(TRIANGLE_345)
    assert coords.shape == (3, 2)
    assert np.max(np.abs(_pairwise(coords) - TRIANGLE_345)) < 1e-6
    assert stress < 1e-6


def test_unit_square_embeds_exactly():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    dist = _pairwise(pts)
    coords, stress = embed_distances(dist)
    assert np.max(np.abs(_pairwise(coords) - dist)) < 1e-6
    assert stress < 1e-6


def test_collinear_points_embed_on_a_line():
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    coords, stress = embed_distances(dist)
    assert np.max(np.abs(_pairwise(coords) - dist)) < 1e-6
    assert stress < 1e-6
    spans = coords.max(axis=0) - coords.min(axis=0)
    assert min(spans) < 1e-6  # genuinely one-dimensional (up to eigensolver noise)


def test_non_euclidean_distances_report_positive_stress():
    # four points with all pairwise distances equal need three dimensions
    dist = np.full((4, 4), 2.0)
    np.fill_diagonal(dist, 0.0)
    coords, stress = embed_distances(dist)
    assert coords.shape == (4, 2)
    assert stress > 0.0
    assert np.all(np.isfinite(coords))


def test_zero_distances_collapse_to_the_origin():
    coords, stress = embed_distances(np.zeros((3, 3)))
    assert np.array_equal(coords, np.zeros((3, 2)))
    assert stress == 0.0


def test_embedding_orientation_is_deterministic():
    a, _ = embed_distances(TRIANGLE_345)
    b, _ = embed_distances(TRIANGLE_345)
    assert a.tobytes() == b.tobytes()
    for axis in range(2):
        column = a[:, axis]
        assert column[int(np.argmax(np.abs(column)))] >= 0.0


def test_embedding_validation_errors():
    with pytest.raises(ShapeError, match="square"):
        embed_distances(np.zeros((2, 3)))
    with pytest.raises(InputError, match="at least two"):
        embed_distances(np.zeros((1, 1)))
    bad = TRIANGLE_345.copy()
    bad[0, 1] = 3.5
    with pytest.raises(InputError, match="symmetric"):
        embed_distances(bad)
    bad = TRIANGLE_345.copy()
    bad[1, 1] = 0.5
    with pytest.raises(InputError, match="diagonal"):
        embed_distances(bad)
    bad = TRIANGLE_345.copy()
    bad[0, 1] = bad[1, 0] = -1.0
    with pytest.raises(InputError, match="negative"):
        embed_distances(bad)


# ----- full distance map --------------------------------------------------------------


def _three_role_sets():
    natural = [_const_feat("u")]
    synthetic = [_const_feat("u", dim=1, value=3.0 / MCD_COEF)]
    pseudo = [_const_feat("u", dim=2, value=4.0 / MCD_COEF)]
    return natural, synthetic, pseudo


def test_plane_distances_match_the_triangle_oracle():
    natural, synthetic, pseudo = _three_role_sets()
    result = mcd_plane(natural=natural, synthetic=synthetic, pseudo=pseudo)
    assert result.labels == ("natural", "synthetic", "pseudo")
    assert np.allclose(result.distances, TRIANGLE_345, atol=1e-5)
    assert np.max(np.abs(_pairwise(result.coords) - result.distances)) < 1e-5
    assert result.stress < 1e-6


def test_plane_accepts_any_two_roles_and_orders_labels():
    natural, _, pseudo = _three_role_sets()
    result = mcd_plane(natural=natural, pseudo=pseudo)
    assert result.labels == ("natural", "pseudo")
    assert result.distances.shape == (2, 2)
    with pytest.raises(InputError, match="at least two"):
        mcd_plane(natural=natural)


def test_plane_rejects_an_unknown_role():
    natural, synthetic, _ = _three_role_sets()
    with pytest.raises(InputError, match="unknown roles bogus"):
        mcd_plane(natural=natural, bogus=synthetic)


def test_plane_with_all_four_roles():
    natural, synthetic, pseudo = _three_role_sets()
    enhanced = [_const_feat("u", dim=3, value=1.0 / MCD_COEF)]
    result = mcd_plane(
        natural=natural, synthetic=synthetic, pseudo=pseudo, enhanced=enhanced
    )
    assert result.labels == ("natural", "synthetic", "pseudo", "enhanced")
    assert result.distances.shape == (4, 4)
    assert result.distances[0, 3] == pytest.approx(1.0, rel=1e-5)


# ----- report files ---------------------------------------------------------------------


def test_plane_tsv_layout_and_determinism(tmp_path):
    natural, synthetic, pseudo = _three_role_sets()
    result = mcd_plane(natural=natural, synthetic=synthetic, pseudo=pseudo)
    path = tmp_path / "plane.tsv"
    write_plane_tsv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# pairwise set MCD (dB)"
    assert lines[1] == "label\tnatural\tsynthetic\tpseudo"
    assert lines[2] == "natural\t0.000\t3.000\t4.000"
    assert lines[3] == "synthetic\t3.000\t0.000\t5.000"
    assert lines[4] == "pseudo\t4.000\t5.000\t0.000"
    assert lines[5] == "# planar embedding"
    assert lines[6] == "label\tx\ty"
    assert lines[-1].startswith("# stress\t0.000000")

    second = tmp_path / "again.tsv"
    write_plane_tsv(result, second)
    assert second.read_bytes() == path.read_bytes()


def test_plane_svg_has_a_marker_per_set_and_is_deterministic(tmp_path):
    natural, synthetic, pseudo = _three_role_sets()
    result = mcd_plane(natural=natural, synthetic=synthetic, pseudo=pseudo)
    path = tmp_path / "plane.svg"
    write_plane_svg(result, path)
    svg = path.read_text()
    assert svg.count("<circle") == 3
    assert svg.count("<line") == 3  # one edge per pair
    for label in ("natural", "synthetic", "pseudo"):
        assert f">{label}</text>" in svg
    assert "stress" in svg
    assert "3.000" in svg and "4.000" in svg and "5.000" in svg

    second = tmp_path / "again.svg"
    write_plane_svg(result, second)
    assert second.read_bytes() == path.read_bytes()
