"""The converter kernel against its first implementation (tests/seed_core.py).

The current kernel reorders float32 arithmetic (one fused gate sigmoid,
pre-transposed weights, gate-derivative factors taken ahead of the reverse
loop, B columns per weight product), so it is held to a tolerance set from
float32 rounding over short sequences, not to bit equality: outputs within
1e-5 absolute, and each gradient tensor within 1e-5 of the largest
magnitude of the same tensor under the reference.

The reference objective is composed here from the seed kernel alone (three
forward passes, up to three backward passes), so it cannot pass by reaching
the kernel under test. A B-column run is checked against B single-column
runs of the same kernel at the same tolerances.
"""

import numpy as np
import pytest

import seed_core
from conftest import make_model, tiny_arch
from cyclevc import model as core

OUT_ATOL = 1e-5
GRAD_RTOL = 1e-5


def _model(kernel):
    arch = tiny_arch(
        kernel=kernel, in_conv_layers=2, out_conv_layers=2, conv_channels=8, gru_hidden=16
    )
    return make_model(arch, seed=41 + kernel)


def _pair(n):
    rng = np.random.default_rng(1000 + n)
    return (
        rng.normal(size=(n, 50)).astype(np.float32),
        rng.normal(size=(n, 50)).astype(np.float32),
    )


def _backward(model, net, cache, d_y, input_col=None):
    """The kernel's backward pass, its sums run and joined on the calling
    thread: (gradients, input gradient)."""
    sums, d_x = core._net_backward(
        model, net, cache, d_y, core._at_once, core._at_once, input_col
    )
    return core._gradients(sums), d_x


def _assert_grads_close(grads, ref_grads):
    assert set(grads) == set(ref_grads)
    for name, ref in ref_grads.items():
        got = grads[name]
        assert got.shape == ref.shape and got.dtype == ref.dtype, name
        bound = GRAD_RTOL * float(np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) <= bound, name


def _seed_loss_gradients(model, x, y, rho, teacher_forcing):
    """The joint objective and its gradients, from the seed kernel alone."""
    y = np.ascontiguousarray(y, dtype=model.dtype)
    y_mc = y[:, :45]
    f_x, cache_f1 = seed_core._net_forward(
        model, "f", x, want_cache=True, teacher=y_mc if teacher_forcing else None
    )
    back, cache_g = seed_core._net_forward(model, "g", y, want_cache=True)
    spliced = core.splice_prosody(back, y, model.norm_src, model.norm_tgt)
    y_cycle, cache_f2 = seed_core._net_forward(model, "f", spliced, want_cache=True)
    r1 = f_x.astype(np.float64) - y_mc.astype(np.float64)
    r2 = y_cycle.astype(np.float64) - y_mc.astype(np.float64)
    scale = 1.0 / r1.size
    grads, _ = seed_core._net_backward(model, "f", cache_f1, (np.sign(r1) * scale).astype(model.dtype))
    if rho > 0.0:
        d2 = (np.sign(r2) * (rho * scale)).astype(model.dtype)
        g_f2, d_spliced = seed_core._net_backward(model, "f", cache_f2, d2)
        for name, g in g_f2.items():
            grads[name] += g
        g_g, _ = seed_core._net_backward(model, "g", cache_g, d_spliced[:, :45])
        grads.update(g_g)
    else:
        grads.update({name: np.zeros_like(p) for name, p in model.params.items() if name.startswith("g.")})
    return float(np.mean(np.abs(r1))), float(np.mean(np.abs(r2))), grads


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("teacher_forcing", [False, True])
def test_forward_matches_the_reference_kernel(teacher_forcing, kernel, n):
    model = _model(kernel)
    x, y = _pair(n)
    teacher = y[:, :45] if teacher_forcing else None
    for net in ("f", "g"):
        got, _ = core._net_forward(model, net, x[:, :, None], teachers=[teacher])
        want, _ = seed_core._net_forward(model, net, x, teacher=teacher)
        assert got.shape == (n, 45, 1)
        assert got.dtype == want.dtype == np.float32
        assert np.max(np.abs(got[:, :, 0] - want)) <= OUT_ATOL, net


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("rho", [0.0, 1e-8, 0.35])
@pytest.mark.parametrize("teacher_forcing", [False, True])
def test_loss_gradients_match_the_reference_kernel(teacher_forcing, rho, kernel, n):
    model = _model(kernel)
    x, y = _pair(n)
    breakdown, grads = core.loss_gradients(model, x, y, rho=rho, teacher_forcing=teacher_forcing)
    ref_stot, ref_cycle, ref_grads = _seed_loss_gradients(model, x, y, rho, teacher_forcing)

    assert breakdown.stot_l1 == pytest.approx(ref_stot, abs=OUT_ATOL)
    assert breakdown.cycle_l1 == pytest.approx(ref_cycle, abs=OUT_ATOL)
    _assert_grads_close(grads, ref_grads)
    if rho == 0.0:
        assert all(np.all(g == 0.0) for name, g in grads.items() if name.startswith("g."))


def _columns(n_cols, n):
    """n_cols input columns, their teachers (forced and free mixed, the first
    column forced) and output gradients."""
    rng = np.random.default_rng(50 * n_cols + n)
    xs = [rng.normal(size=(n, 50)).astype(np.float32) for _ in range(n_cols)]
    teachers = [
        rng.normal(size=(n, 45)).astype(np.float32) if col % 2 == 0 else None
        for col in range(n_cols)
    ]
    d_ys = [(rng.normal(size=(n, 45)) * 10.0 ** -col).astype(np.float32) for col in range(n_cols)]
    return xs, teachers, d_ys


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("n_cols", [2, 3])
def test_every_column_of_a_batched_pass_matches_its_single_column_pass(n_cols, kernel, n):
    model = _model(kernel)
    xs, teachers, d_ys = _columns(n_cols, n)
    for net in ("f", "g"):
        out, cache = core._net_forward(model, net, np.stack(xs, axis=2), teachers)
        assert out.shape == (n, 45, n_cols)
        # one input column per backward pass, as a training step asks for
        # column 1 of its 2-column f pass; the parameter gradients do not
        # depend on which column is asked for
        passes = [
            _backward(model, net, cache, np.stack(d_ys, axis=2), input_col=col)
            for col in range(n_cols)
        ]
        grads = passes[0][0]
        for other, _ in passes[1:]:
            assert all(np.array_equal(other[name], g) for name, g in grads.items()), net

        ref_grads = {}
        for col, (_, d_x) in enumerate(passes):
            assert d_x.shape == (n, 50)
            one, one_cache = core._net_forward(model, net, xs[col][:, :, None], [teachers[col]])
            assert np.max(np.abs(out[:, :, col] - one[:, :, 0])) <= OUT_ATOL, (net, col)
            one_grads, one_d_x = _backward(model, net, one_cache, d_ys[col][:, :, None], input_col=0)
            for name, g in one_grads.items():
                ref_grads[name] = ref_grads[name] + g if name in ref_grads else g
            bound = GRAD_RTOL * float(np.max(np.abs(one_d_x)))
            assert np.max(np.abs(d_x - one_d_x)) <= bound, (net, col)
        _assert_grads_close(grads, ref_grads)


def test_a_pass_without_input_columns_forms_no_input_gradient():
    model = _model(3)
    x, y = _pair(5)
    _, cache = core._net_forward(model, "g", np.stack([x, y], axis=2))
    grads, d_x = _backward(model, "g", cache, np.ones((5, 45, 2), dtype=np.float32))
    assert d_x is None
    assert set(grads) == {name for name in model.params if name.startswith("g.")}
