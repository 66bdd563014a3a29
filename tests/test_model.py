"""Converter-core oracles: shapes, forward semantics, losses, gradients,
and checkpoint round trips."""

import dataclasses
import types

import numpy as np
import pytest

from conftest import make_model, tiny_arch, write_non_finite_checkpoint
from cyclevc.errors import ConfigError, FormatError, InputError, PairingError, ShapeError
from cyclevc.features import N_DIMS, NormStats
from cyclevc.model import (
    CycleVCModel,
    ModelArch,
    _net_forward,
    _unfold_rows,
    cycle_loss,
    cycle_path,
    load_checkpoint,
    loss_gradients,
    param_shapes,
    save_checkpoint,
    splice_prosody,
    stot_forward,
)


def _rand_pair(rng, n, scale=1.0):
    return (
        rng.normal(0.0, scale, size=(n, 50)),
        rng.normal(0.0, scale, size=(n, 50)),
    )


# ----- architecture & parameters -------------------------------------------------


def test_param_shapes_match_a_hand_layout():
    shapes = param_shapes(tiny_arch())
    expected = {}
    for net in ("f", "g"):
        expected[f"{net}.in0.W"] = (6, 2 * 50)
        expected[f"{net}.in0.b"] = (6,)
        expected[f"{net}.gru.Wg"] = (15, 6 + 45)
        expected[f"{net}.gru.bW"] = (15,)
        expected[f"{net}.gru.Ug"] = (15, 5)
        expected[f"{net}.gru.bU"] = (15,)
        expected[f"{net}.out0.W"] = (45, 2 * 5)
        expected[f"{net}.out0.b"] = (45,)
    assert shapes == expected
    assert list(shapes) == list(expected)


def test_tiny_parameter_count_matches_hand_arithmetic():
    model = make_model()
    per_net = (6 * 100 + 6) + (15 * 51 + 15 + 15 * 5 + 15) + (45 * 10 + 45)
    assert model.n_parameters == 2 * per_net == 3942


def test_default_architecture_parameter_count():
    assert make_model(ModelArch()).n_parameters == 1_030_746


def test_arch_rejects_non_positive_sizes():
    with pytest.raises(ConfigError, match="gru_hidden"):
        ModelArch(gru_hidden=0)
    with pytest.raises(ConfigError, match="kernel"):
        ModelArch(kernel=-1)


def test_a_bool_architecture_field_is_rejected_before_any_checkpoint_exists():
    # True is an int to isinstance; accepted, it would be saved as the header
    # field "in_conv_layers=True", which load_checkpoint cannot parse back
    with pytest.raises(ConfigError, match="in_conv_layers must be a positive integer, got True"):
        tiny_arch(in_conv_layers=True, out_conv_layers=True)


def test_init_is_seeded_and_bounded():
    a = make_model(seed=11)
    b = make_model(seed=11)
    c = make_model(seed=12)
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)
    # uniform(-1/sqrt(fan_in), ...) with biases tied to their weight's fan-in
    assert np.max(np.abs(a.params["f.in0.W"])) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(a.params["f.in0.b"])) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(a.params["f.gru.bW"])) <= 1.0 / np.sqrt(51)
    assert np.max(np.abs(a.params["f.gru.bU"])) <= 1.0 / np.sqrt(5)
    assert a.params["f.in0.W"].dtype == np.float32


# ----- forward semantics ----------------------------------------------------------


def test_unfold_builds_causal_windows_oldest_first(rng):
    x = rng.normal(size=(5, 2))
    k = 3
    pad = np.concatenate([np.zeros((k - 1, 2)), x])
    u = _unfold_rows(pad, 5, k)
    assert u.shape == (5, 6)
    assert np.array_equal(u[0], np.concatenate([np.zeros(2), np.zeros(2), x[0]]))
    assert np.array_equal(u[3], np.concatenate([x[1], x[2], x[3]]))


def test_zero_parameters_give_zero_output(rng):
    model = make_model()
    for name in model.params:
        model.params[name][:] = 0.0
    out = stot_forward(model, rng.normal(size=(9, 50)))
    assert np.array_equal(out, np.zeros((9, 45), dtype=np.float32))


def test_output_shape_for_various_lengths(rng):
    model = make_model()
    for n in (1, 7, 100):
        for fn in (stot_forward, cycle_path):
            out = fn(model, rng.normal(size=(n, 50)))
            assert out.shape == (n, 45)
            assert np.all(np.isfinite(out))


def test_converters_are_causal(rng):
    model = make_model(tiny_arch(in_conv_layers=2, out_conv_layers=2, kernel=3))
    x = rng.normal(size=(20, 50))
    x2 = x.copy()
    t0 = 11
    x2[t0] += 1.0
    a = stot_forward(model, x)
    b = stot_forward(model, x2)
    assert np.array_equal(a[:t0], b[:t0])
    assert not np.array_equal(a[t0:], b[t0:])


def test_feeding_own_outputs_as_teacher_reproduces_free_running(rng):
    model = make_model(seed=5)
    x = np.asarray(rng.normal(size=(8, 50)), dtype=np.float32)
    free, _ = _net_forward(model, "f", x[:, :, None])
    free = free[:, :, 0]
    replay, _ = _net_forward(model, "f", x[:, :, None], teachers=[free])
    assert np.array_equal(free, replay[:, :, 0])
    other, _ = _net_forward(model, "f", x[:, :, None], teachers=[free + 1.0])
    assert not np.array_equal(free, other[:, :, 0])


def test_autoregressive_feedback_reaches_later_frames(rng):
    # same conv features at every frame, but outputs still evolve over time
    # because each frame sees the previous output
    model = make_model(seed=2)
    x = np.tile(np.asarray(rng.normal(size=(1, 50)), dtype=np.float32), (6, 1))
    out = stot_forward(model, x)
    assert not np.allclose(out[0], out[1])


def test_reference_reimplementation_matches_kernel_one_net(rng):
    arch = tiny_arch(kernel=1, conv_channels=4, gru_hidden=3)
    model = make_model(arch, seed=9, dtype=np.float64)
    n, h = 6, 3
    x = rng.normal(size=(n, 50))
    got = stot_forward(model, x)

    p = model.params
    w_in, b_in = p["f.in0.W"], p["f.in0.b"]
    wg, bw = p["f.gru.Wg"], p["f.gru.bW"]
    ug, bu = p["f.gru.Ug"], p["f.gru.bU"]
    w_out, b_out = p["f.out0.W"], p["f.out0.b"]

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    h_prev = np.zeros(h)
    y_prev = np.zeros(45)
    rows = []
    for t in range(n):
        a = np.maximum(w_in @ x[t] + b_in, 0.0)
        gi = wg @ np.concatenate([a, y_prev if t > 0 else np.zeros(45)]) + bw
        gh = ug @ h_prev + bu
        z = sigmoid(gi[:h] + gh[:h])
        r = sigmoid(gi[h : 2 * h] + gh[h : 2 * h])
        nc = np.tanh(gi[2 * h :] + r * gh[2 * h :])
        h_prev = (1.0 - z) * nc + z * h_prev
        y_prev = w_out @ h_prev + b_out
        rows.append(y_prev)
    assert np.allclose(got, np.array(rows), atol=1e-12)


def test_sequence_validation_errors(rng):
    model = make_model()
    with pytest.raises(ShapeError, match=r"\(n_frames, 50\)"):
        stot_forward(model, rng.normal(size=(4, 45)))
    with pytest.raises(ShapeError):
        stot_forward(model, rng.normal(size=(0, 50)))
    bad = rng.normal(size=(4, 50))
    bad[2, 3] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        cycle_path(model, bad)


# ----- prosody splice & cycle path ------------------------------------------------


def test_splice_re_expresses_prosody_across_normalizations(rng):
    src_mean = np.zeros(N_DIMS)
    src_std = np.ones(N_DIMS)
    tgt_mean = np.zeros(N_DIMS)
    tgt_std = np.ones(N_DIMS)
    src_mean[45:] = -3.0
    src_std[45:] = 4.0
    tgt_mean[45:] = 1.0
    tgt_std[45:] = 2.0
    norm_src = NormStats(mean=src_mean, std=src_std)
    norm_tgt = NormStats(mean=tgt_mean, std=tgt_std)

    mcep = np.asarray(rng.normal(size=(3, 45)), dtype=np.float32)
    y = np.full((3, 50), 0.5, dtype=np.float32)
    out = splice_prosody(mcep, y, norm_src, norm_tgt)
    assert out.shape == (3, 50)
    assert np.array_equal(out[:, :45], mcep)
    # raw = 1 + 2*0.5 = 2; source view = (2 - (-3)) / 4 = 1.25
    assert np.allclose(out[:, 45:], 1.25, atol=1e-7)


def test_cycle_path_is_the_documented_composition(rng):
    model = make_model(seed=4)
    y = rng.normal(size=(7, 50))
    direct = cycle_path(model, y)
    back, _ = _net_forward(model, "g", y[:, :, None])
    spliced = splice_prosody(back[:, :, 0], np.asarray(y, dtype=np.float32), model.norm_src, model.norm_tgt)
    again, _ = _net_forward(model, "f", spliced[:, :, None])
    assert np.array_equal(direct, again[:, :, 0])


def test_identity_converters_make_the_cycle_reproduce_the_target(rng, monkeypatch):
    def fake_forward(model, net, x, teachers=None):
        out = np.asarray(x, dtype=np.float32)[:, :45].copy()
        return out, None

    monkeypatch.setattr("cyclevc.model._net_forward", fake_forward)
    model = make_model()
    y = np.asarray(rng.normal(size=(5, 50)), dtype=np.float32)
    out = cycle_path(model, y)
    assert np.allclose(out, y[:, :45], atol=1e-7)


# ----- loss -----------------------------------------------------------------------


def test_loss_terms_match_independent_recomputation(rng):
    model = make_model(seed=6)
    x, y = _rand_pair(rng, 9)
    rho = 0.125
    loss = cycle_loss(model, x, y, rho=rho)
    y_mc = np.asarray(y, dtype=np.float32)[:, :45].astype(np.float64)
    stot = np.mean(np.abs(stot_forward(model, x).astype(np.float64) - y_mc))
    cyc = np.mean(np.abs(cycle_path(model, y).astype(np.float64) - y_mc))
    # the objective reads the two columns of one f pass, the recomputation
    # two single-column passes: the per-frame products round as GEMMs
    # there and as matrix-vector products here, so the terms agree to
    # float32 rounding, not bit for bit
    assert loss.stot_l1 == pytest.approx(stot, rel=1e-6)
    assert loss.cycle_l1 == pytest.approx(cyc, rel=1e-6)
    assert loss.total == loss.stot_l1 + rho * loss.cycle_l1
    assert loss.rho == rho


def test_gradient_call_reports_the_same_breakdown(rng):
    # non-unit stats make the prosody splice depend on the precision of Y,
    # and float64 inputs reach a float32 model as they do in the tests
    model = make_model(seed=6)
    model.norm_src = NormStats(mean=rng.normal(size=N_DIMS), std=rng.uniform(0.5, 3.0, N_DIMS))
    model.norm_tgt = NormStats(mean=rng.normal(size=N_DIMS), std=rng.uniform(0.5, 3.0, N_DIMS))
    for _ in range(4):
        x, y = _rand_pair(rng, 9)
        assert x.dtype == y.dtype == np.float64
        plain = cycle_loss(model, x, y, rho=0.125)
        breakdown, _ = loss_gradients(model, x, y, rho=0.125)
        assert breakdown.stot_l1 == plain.stot_l1
        assert breakdown.cycle_l1 == plain.cycle_l1
        assert breakdown.total == plain.total


def test_gradients_cover_every_parameter(rng):
    model = make_model()
    x, y = _rand_pair(rng, 5)
    _, grads = loss_gradients(model, x, y, rho=0.5)
    assert set(grads) == set(model.params)
    assert all(grads[k].shape == model.params[k].shape for k in grads)


def test_zero_residual_means_zero_gradients(rng):
    model = make_model()
    for name in model.params:
        model.params[name][:] = 0.0
    x = rng.normal(size=(4, 50))
    y = np.concatenate([np.zeros((4, 45)), rng.normal(size=(4, 5))], axis=1)
    _, grads = loss_gradients(model, x, y, rho=0.5)
    assert all(np.all(g == 0.0) for g in grads.values())


def test_rho_zero_freezes_the_backward_converter(rng):
    model = make_model(seed=8)
    x, y = _rand_pair(rng, 6)
    _, grads = loss_gradients(model, x, y, rho=0.0)
    for name, g in grads.items():
        if name.startswith("g."):
            assert np.all(g == 0.0), name
    assert any(np.any(g != 0.0) for n, g in grads.items() if n.startswith("f."))


def test_pairing_and_config_errors(rng):
    model = make_model()
    with pytest.raises(PairingError, match="equal frame counts"):
        cycle_loss(model, rng.normal(size=(5, 50)), rng.normal(size=(4, 50)))
    with pytest.raises(ConfigError, match="rho"):
        loss_gradients(model, rng.normal(size=(4, 50)), rng.normal(size=(4, 50)), rho=-0.1)


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), -1.0])
def test_objective_rejects_a_negative_or_non_finite_rho(rng, rho):
    model = make_model()
    x, y = _rand_pair(rng, 4)
    for objective in (cycle_loss, loss_gradients):
        with pytest.raises(ConfigError, match="rho must be non-negative and finite"):
            objective(model, x, y, rho=rho)


def test_gradients_match_finite_differences_spot_check(rng):
    model = make_model(seed=3, dtype=np.float64)
    x, y = _rand_pair(rng, 4)
    rho = 0.35
    _, grads = loss_gradients(model, x, y, rho=rho)
    eps = 1e-6
    for name in ("f.gru.Wg", "g.in0.W", "f.out0.b", "g.gru.Ug", "f.in0.W"):
        flat = model.params[name].ravel()
        for idx in rng.integers(0, flat.size, size=3):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = cycle_loss(model, x, y, rho=rho).total
            flat[idx] = orig - eps
            dn = cycle_loss(model, x, y, rho=rho).total
            flat[idx] = orig
            fd = (up - dn) / (2.0 * eps)
            an = float(grads[name].ravel()[idx])
            assert abs(fd - an) <= max(1e-4 * max(abs(fd), abs(an)), 1e-8), (
                name,
                int(idx),
                fd,
                an,
            )


def test_teacher_forcing_changes_the_stot_gradient_path(rng):
    model = make_model(seed=7)
    x, y = _rand_pair(rng, 8)
    free_break, free_grads = loss_gradients(model, x, y, rho=0.0)
    tf_break, tf_grads = loss_gradients(model, x, y, rho=0.0, teacher_forcing=True)
    assert free_break.stot_l1 != tf_break.stot_l1
    assert any(
        not np.array_equal(free_grads[k], tf_grads[k])
        for k in free_grads
        if k.startswith("f.")
    )
    assert all(np.all(np.isfinite(g)) for g in tf_grads.values())


# ----- checkpoint I/O -------------------------------------------------------------


def _split_checkpoint(path):
    raw = path.read_bytes()
    sep = raw.find(b"\n\n")
    assert sep >= 0
    return raw[:sep].decode("utf-8"), raw[sep + 2 :]


def _write_checkpoint(path, header, blob):
    path.write_bytes(header.encode("utf-8") + b"\n\n" + blob)


def _edit_header(path, old, new):
    header, blob = _split_checkpoint(path)
    assert old in header
    _write_checkpoint(path, header.replace(old, new), blob)


def test_checkpoint_round_trip_is_bit_exact(tmp_path, rng):
    norm_src = NormStats(mean=rng.normal(size=N_DIMS), std=rng.uniform(0.5, 2.0, N_DIMS))
    norm_tgt = NormStats(mean=rng.normal(size=N_DIMS), std=rng.uniform(0.5, 2.0, N_DIMS))
    model = CycleVCModel.init(tiny_arch(), norm_src, norm_tgt, seed=21)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.arch == model.arch
    assert np.array_equal(loaded.norm_src.mean, model.norm_src.mean)
    assert np.array_equal(loaded.norm_src.std, model.norm_src.std)
    assert np.array_equal(loaded.norm_tgt.mean, model.norm_tgt.mean)
    assert np.array_equal(loaded.norm_tgt.std, model.norm_tgt.std)
    for name in model.params:
        assert loaded.params[name].tobytes() == model.params[name].tobytes()

    again = tmp_path / "again.ckpt"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_loaded_model_reproduces_the_forward_pass(tmp_path, rng):
    model = make_model(seed=30)
    x = rng.normal(size=(6, 50))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(stot_forward(model, x), stot_forward(loaded, x))


def _saved(tmp_path):
    model = make_model(seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    return path


def test_checkpoint_without_separator_is_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"format=cyclevc-checkpoint-v1\nno blob follows")
    with pytest.raises(FormatError, match="separator"):
        load_checkpoint(path)


def test_checkpoint_with_invalid_utf8_header_is_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\xff\xfe\xfd\n\n" + b"\x00" * 16)
    with pytest.raises(FormatError, match="UTF-8"):
        load_checkpoint(path)


def test_checkpoint_with_non_key_value_line_is_rejected(tmp_path):
    path = _saved(tmp_path)
    header, blob = _split_checkpoint(path)
    _write_checkpoint(path, header + "\nstray line", blob)
    with pytest.raises(FormatError, match="not key=value"):
        load_checkpoint(path)


def test_checkpoint_with_unknown_format_tag_is_rejected(tmp_path):
    path = _saved(tmp_path)
    _edit_header(path, "format=cyclevc-checkpoint-v1", "format=other-v9")
    with pytest.raises(FormatError, match="unsupported checkpoint format"):
        load_checkpoint(path)


def test_checkpoint_with_missing_field_is_rejected(tmp_path):
    path = _saved(tmp_path)
    header, blob = _split_checkpoint(path)
    lines = [l for l in header.splitlines() if not l.startswith("tgt_std=")]
    _write_checkpoint(path, "\n".join(lines), blob)
    with pytest.raises(FormatError, match="missing fields: tgt_std"):
        load_checkpoint(path)


def test_checkpoint_with_bad_architecture_field_is_rejected(tmp_path):
    path = _saved(tmp_path)
    _edit_header(path, "gru_hidden=5", "gru_hidden=five")
    with pytest.raises(FormatError, match="bad architecture field"):
        load_checkpoint(path)


def test_checkpoint_with_non_positive_architecture_field_is_rejected(tmp_path):
    path = _saved(tmp_path)
    _edit_header(path, "gru_hidden=5", "gru_hidden=0")
    with pytest.raises(FormatError, match="bad architecture field"):
        load_checkpoint(path)


def test_checkpoint_with_bad_normalization_vector_is_rejected(tmp_path):
    path = _saved(tmp_path)
    header, blob = _split_checkpoint(path)
    lines = [
        "src_mean=1.0 2.0" if l.startswith("src_mean=") else l
        for l in header.splitlines()
    ]
    _write_checkpoint(path, "\n".join(lines), blob)
    with pytest.raises(FormatError, match="src_mean has 2 values"):
        load_checkpoint(path)

    path2 = _saved(tmp_path)
    header, blob = _split_checkpoint(path2)
    lines = [
        "src_std=" + " ".join(["oops"] * 50) if l.startswith("src_std=") else l
        for l in header.splitlines()
    ]
    _write_checkpoint(path2, "\n".join(lines), blob)
    with pytest.raises(FormatError, match="bad float in src_std"):
        load_checkpoint(path2)


def test_checkpoint_with_truncated_blob_reports_byte_counts(tmp_path):
    path = _saved(tmp_path)
    header, blob = _split_checkpoint(path)
    _write_checkpoint(path, header, blob[:-4])
    with pytest.raises(FormatError, match=r"blob has \d+ bytes, expected \d+"):
        load_checkpoint(path)


def test_checkpoint_with_wrong_param_count_is_rejected(tmp_path):
    path = _saved(tmp_path)
    _edit_header(path, "param_count=3942", "param_count=9999")
    with pytest.raises(FormatError, match="declares 9999"):
        load_checkpoint(path)


def test_checkpoint_parameter_count_is_exact_past_64_bits(tmp_path):
    # 2**40 hidden units at the default layer counts declare about 7.3e24
    # floats; a product of int64 shapes would wrap and report another count
    path = _saved(tmp_path)
    header, blob = _split_checkpoint(path)
    arch = dict(in_conv_layers=2, conv_channels=4, kernel=3, gru_hidden=2**40, out_conv_layers=2)
    lines = []
    for line in header.splitlines():
        key = line.partition("=")[0]
        lines.append(f"{key}={arch[key]}" if key in arch else line)
    _write_checkpoint(path, "\n".join(lines), blob)
    with pytest.raises(FormatError, match=r"\(7253554918050613885405626 float32 values"):
        load_checkpoint(path)


def test_checkpoint_with_non_integer_param_count_is_rejected(tmp_path):
    path = _saved(tmp_path)
    _edit_header(path, "param_count=3942", "param_count=abc")
    with pytest.raises(FormatError, match="declares abc parameters"):
        load_checkpoint(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_checkpoint_with_non_finite_normalization_is_rejected(tmp_path, token):
    path = _saved(tmp_path)
    header, blob = _split_checkpoint(path)
    lines = [
        "src_std=" + " ".join([token] + ["1.0"] * 49) if l.startswith("src_std=") else l
        for l in header.splitlines()
    ]
    _write_checkpoint(path, "\n".join(lines), blob)
    with pytest.raises(FormatError, match="src_std has non-finite values"):
        load_checkpoint(path)


def test_checkpoint_with_non_finite_parameters_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    write_non_finite_checkpoint(path)
    with pytest.raises(FormatError, match="non-finite"):
        load_checkpoint(path)


def _with_feature_dims(header, in_dim, out_dim):
    """`header` declaring in_dim and out_dim, as checkpoint headers once did."""
    lines = [l for l in header.splitlines() if not l.startswith(("in_dim=", "out_dim="))]
    return "\n".join([lines[0], f"in_dim={in_dim}", f"out_dim={out_dim}", *lines[1:]])


def test_checkpoint_header_omits_feature_dims_and_old_headers_still_load(tmp_path):
    path = _saved(tmp_path)
    header, blob = _split_checkpoint(path)
    assert "in_dim=" not in header and "out_dim=" not in header
    old = tmp_path / "old.ckpt"
    _write_checkpoint(old, _with_feature_dims(header, 50, 45), blob)
    loaded, current = load_checkpoint(old), load_checkpoint(path)
    assert loaded.arch == current.arch == tiny_arch()
    for name, p in current.params.items():
        assert loaded.params[name].tobytes() == p.tobytes()


def test_checkpoint_declaring_other_feature_dims_is_rejected(tmp_path):
    # header and blob agree on 7 input and 3 output dims; features have 50 and 45
    header, _ = _split_checkpoint(_saved(tmp_path))
    arch = tiny_arch()
    sizes = {f.name: getattr(arch, f.name) for f in dataclasses.fields(arch)}
    other = types.SimpleNamespace(**{**sizes, "in_dim": 7, "out_dim": 3})
    count = sum(int(np.prod(s)) for s in param_shapes(other).values())
    header = _with_feature_dims(header, 7, 3).replace("param_count=3942", f"param_count={count}")
    path = tmp_path / "other.ckpt"
    _write_checkpoint(path, header, np.zeros(count, dtype="<f4").tobytes())
    with pytest.raises(FormatError):
        load_checkpoint(path)
