"""The converter kernel against its first implementation (tests/seed_core.py).

The current kernel reorders float32 arithmetic (one fused gate sigmoid,
pre-transposed weights, gate-derivative factors taken ahead of the reverse
loop), so it is held to a tolerance set from float32 rounding over short
sequences, not to bit equality: outputs within 1e-5 absolute, and each
gradient tensor within 1e-5 of the largest magnitude of the same tensor
under the reference.
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


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("teacher_forcing", [False, True])
def test_forward_matches_the_reference_kernel(teacher_forcing, kernel, n):
    model = _model(kernel)
    x, y = _pair(n)
    teacher = y[:, :45] if teacher_forcing else None
    for net in ("f", "g"):
        got, _ = core._net_forward(model, net, x, teacher=teacher)
        want, _ = seed_core._net_forward(model, net, x, teacher=teacher)
        assert got.dtype == want.dtype == np.float32
        assert np.max(np.abs(got - want)) <= OUT_ATOL, net


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("rho", [0.0, 1e-8, 0.35])
@pytest.mark.parametrize("teacher_forcing", [False, True])
def test_loss_gradients_match_the_reference_kernel(monkeypatch, teacher_forcing, rho, kernel, n):
    model = _model(kernel)
    x, y = _pair(n)
    breakdown, grads = core.loss_gradients(model, x, y, rho=rho, teacher_forcing=teacher_forcing)

    monkeypatch.setattr(core, "_net_forward", seed_core._net_forward)
    monkeypatch.setattr(core, "_net_backward", seed_core._net_backward)
    ref_breakdown, ref_grads = core.loss_gradients(
        model, x, y, rho=rho, teacher_forcing=teacher_forcing
    )

    assert breakdown.stot_l1 == pytest.approx(ref_breakdown.stot_l1, abs=OUT_ATOL)
    assert breakdown.cycle_l1 == pytest.approx(ref_breakdown.cycle_l1, abs=OUT_ATOL)
    assert set(grads) == set(ref_grads)
    for name, ref in ref_grads.items():
        got = grads[name]
        assert got.shape == ref.shape and got.dtype == ref.dtype, name
        bound = GRAD_RTOL * float(np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) <= bound, name
    if rho == 0.0:
        assert all(np.all(g == 0.0) for name, g in grads.items() if name.startswith("g."))
