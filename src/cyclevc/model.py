"""Cycle voice-conversion model core.

Two framewise converters share one parameter store: `f` maps normalized
source features to normalized target mel-cepstra (source-to-target) and `g`
maps normalized target features back toward the source domain
(target-to-source). Each converter is a stack of causal 1-D convolutions,
a GRU whose input is the conv features concatenated with the converter's
own previous output frame (autoregressive feedback; zeros at the first
frame), and causal output convolutions with a linear last layer.

The joint training objective is

    total = mean|f(X) - Y_mcep|  +  rho * mean|f(splice(g(Y), Y)) - Y_mcep|

where the second term runs target features through g, re-attaches the
target prosody dims (re-normalized into source scaling), and converts back
with f: the self-conversion cycle. Gradients are computed analytically in
closed form (no autodiff dependency) with backpropagation through time,
including the feedback path from each frame's output into the next frame's
GRU input.

One kernel (`_net_forward` / `_net_backward`) runs B sequences of equal
length through one converter at once. Its histories are time-major and
batch-minor, (n + k, d, B), so each per-frame product is one C-ordered
weight (rows x d) @ (d x B) block. Conversion runs it with B = 1. A
training step runs g(Y) at B = 1 and then both f terms as the two columns
of one B = 2 pass over [X, splice(g(Y), Y)], and backward the same way:
four frame loops per step instead of six. `loss_gradients` alone places
the weight-gradient sums on threads; its docstring gives the placement.
"""

import dataclasses
import math
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .acoustics import _usable_cpus
from .errors import ConfigError, FormatError, InputError, PairingError, ShapeError, check
from .features import MCEP_DIM, N_DIMS, NormStats, write_atomic

RHO_DEFAULT = 1e-8

CHECKPOINT_FORMAT = "cyclevc-checkpoint-v1"

_NETS = ("f", "g")
_GRAD_BLOCK = 64  # rows per BLAS call in a weight-gradient sum, so its order is fixed


@dataclass(frozen=True)
class ModelArch:
    """Layer sizes shared by both converters. The feature layout fixes the
    input and output widths, so they are constants, not checkpoint fields."""

    in_dim: ClassVar[int] = N_DIMS
    out_dim: ClassVar[int] = MCEP_DIM
    in_conv_layers: int = 2
    conv_channels: int = 128
    kernel: int = 3
    gru_hidden: int = 256
    out_conv_layers: int = 2

    def __post_init__(self):
        for name in _ARCH_FIELDS:
            check(name, getattr(self, name), int, "a positive integer", lambda v: v >= 1)


_ARCH_FIELDS = tuple(f.name for f in dataclasses.fields(ModelArch))


def param_shapes(arch):
    """Parameter name -> shape, in the canonical declaration order."""
    shapes = {}
    for net in _NETS:
        cin = arch.in_dim
        for layer in range(arch.in_conv_layers):
            shapes[f"{net}.in{layer}.W"] = (arch.conv_channels, arch.kernel * cin)
            shapes[f"{net}.in{layer}.b"] = (arch.conv_channels,)
            cin = arch.conv_channels
        gin = arch.conv_channels + arch.out_dim
        shapes[f"{net}.gru.Wg"] = (3 * arch.gru_hidden, gin)
        shapes[f"{net}.gru.bW"] = (3 * arch.gru_hidden,)
        shapes[f"{net}.gru.Ug"] = (3 * arch.gru_hidden, arch.gru_hidden)
        shapes[f"{net}.gru.bU"] = (3 * arch.gru_hidden,)
        cin = arch.gru_hidden
        for layer in range(arch.out_conv_layers):
            cout = arch.out_dim if layer == arch.out_conv_layers - 1 else arch.conv_channels
            shapes[f"{net}.out{layer}.W"] = (cout, arch.kernel * cin)
            shapes[f"{net}.out{layer}.b"] = (cout,)
            cin = cout
    return shapes


@dataclass
class CycleVCModel:
    arch: ModelArch
    params: dict
    norm_src: NormStats
    norm_tgt: NormStats
    dtype = property(lambda self: next(iter(self.params.values())).dtype)

    @classmethod
    def init(cls, arch, norm_src, norm_tgt, seed, dtype=np.float32):
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, seeded."""
        rng = np.random.Generator(np.random.PCG64(seed))
        params = {}
        for name, shape in param_shapes(arch).items():
            if len(shape) == 2:  # a weight; the bias declared next shares its fan-in
                bound = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        return cls(arch=arch, params=params, norm_src=norm_src, norm_tgt=norm_tgt)

    @property
    def n_parameters(self):
        return sum(p.size for p in self.params.values())


def _validate_seq(x, dim, what):
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"{what} must be (n_frames, {dim}), got {x.shape}")
    if x.shape[0] < 1:
        raise ShapeError(f"{what} must have at least one frame")
    if not np.all(np.isfinite(x)):
        raise InputError(f"{what} contains non-finite values")
    return x


def _unfold_rows(pad, n, k):
    """Causal windows: row t = [x_(t-k+1) ... x_t] flattened, oldest first.
    Leading axes of `pad` (one per column) are kept."""
    return np.concatenate([pad[..., i : i + n, :] for i in range(k)], axis=-1)


def _net_forward(model, net, x, teachers=None):
    """Run one converter over B normalized sequences of equal length at once.

    `x` is (n, in_dim, B), time-major and batch-minor: column b is one
    sequence, and every column is computed as if it ran alone. The columns
    share the converter's weights and frame count, so each per-frame product
    is one C-ordered weight (rows x d) @ (d x B) block instead of B
    matrix-vector products. `teachers`, when given, holds one entry per
    column: None runs that column free, and an (n, out_dim) array replaces
    its autoregressive feedback (teacher forcing; frame t consumes
    teacher[t-1]). Returns the (n, out_dim, B) outputs and the cache
    `_net_backward` reads, which a caller that runs no backward pass drops.

    Everything that does not depend on the previous frame (the input convs
    and their GRU projection) is computed for all frames of all columns up
    front, as (B * n)-row GEMMs; the per-frame loop holds only the recurrent
    products and in-place elementwise ops on preallocated (d, B) blocks. Each
    history the output convs read (hidden states, conv outputs) is one
    (n + k, d, B) array with k zero frames in front, so frame t is stored at
    row t + k and its causal window of width k is the contiguous block of
    rows t + 1 .. t + k of its (-1, B) view.
    """
    arch = model.arch
    params = model.params
    dtype = model.dtype
    k = arch.kernel
    h_dim = arch.gru_hidden
    n, _, n_cols = x.shape

    # the input convs see the columns stacked: (B, n, d), one GEMM per layer
    a = np.ascontiguousarray(x.transpose(2, 0, 1), dtype=dtype)
    in_cache = []
    for layer in range(arch.in_conv_layers):
        w = params[f"{net}.in{layer}.W"]
        b = params[f"{net}.in{layer}.b"]
        pad = np.concatenate([np.zeros((n_cols, k - 1, a.shape[-1]), dtype=dtype), a], axis=1)
        u = _unfold_rows(pad, n, k).reshape(n_cols * n, -1)
        z = u @ w.T + b
        in_cache.append((u, z))
        a = np.maximum(z, 0.0).reshape(n_cols, n, -1)

    wg = params[f"{net}.gru.Wg"]
    ug = params[f"{net}.gru.Ug"]
    wg_y = np.ascontiguousarray(wg[:, arch.conv_channels :])
    gi_x = np.empty((n, 3 * h_dim, n_cols), dtype=dtype)
    proj = (a.reshape(n_cols * n, -1) @ wg[:, : arch.conv_channels].T).reshape(n_cols, n, -1)
    np.add(proj, params[f"{net}.gru.bW"], out=gi_x.transpose(2, 0, 1))

    # biases as C-ordered (d, B) blocks, so adding one is a single flat add
    bu = np.repeat(params[f"{net}.gru.bU"][:, None], n_cols, axis=1)
    out_w = [params[f"{net}.out{layer}.W"] for layer in range(arch.out_conv_layers)]
    out_b = [
        np.repeat(params[f"{net}.out{layer}.b"][:, None], n_cols, axis=1)
        for layer in range(arch.out_conv_layers)
    ]
    last = arch.out_conv_layers - 1

    # histories: the hidden states, then each output conv layer
    dims = [h_dim] + [w.shape[0] for w in out_w]
    rows = [np.zeros((n + k, d, n_cols), dtype=dtype) for d in dims]
    h_rows = rows[0]
    y_rows = rows[-1]

    # feedback into frame t: zeros at t = 0, then the previous output frame
    # of a free column or the previous teacher frame of a forced one; with
    # forced columns present, `feed` copies each new output frame into the
    # free columns of the next feedback row
    teachers = teachers or [None] * n_cols
    free = np.array([teacher is None for teacher in teachers])
    feed = None
    if free.all():
        ar_rows = y_rows[k - 1 : k - 1 + n]
    else:
        ar_full = np.zeros((n + 1, arch.out_dim, n_cols), dtype=dtype)
        for col, teacher in enumerate(teachers):
            if teacher is not None:
                ar_full[1:, :, col] = teacher
        ar_rows = ar_full[:n]
        feed = free

    gh_rows = np.empty((n, 3 * h_dim, n_cols), dtype=dtype)
    zr_rows = np.empty((n, 2 * h_dim, n_cols), dtype=dtype)
    nc_rows = np.empty((n, h_dim, n_cols), dtype=dtype)
    gh_zr, gh_n = gh_rows[:, : 2 * h_dim], gh_rows[:, 2 * h_dim :]
    z_rows, r_rows = zr_rows[:, :h_dim], zr_rows[:, h_dim:]
    gi = np.empty((3 * h_dim, n_cols), dtype=dtype)
    gi_zr, gi_n = gi[: 2 * h_dim], gi[2 * h_dim :]
    windows = [hist.reshape(-1, n_cols) for hist in rows]

    for t in range(n):
        h_prev = h_rows[t + k - 1]
        np.dot(wg_y, ar_rows[t], out=gi)
        gi += gi_x[t]
        gh = gh_rows[t]
        np.dot(ug, h_prev, out=gh)
        gh += bu
        zr = zr_rows[t]
        np.add(gi_zr, gh_zr[t], out=zr)
        expit(zr, out=zr)
        nc = nc_rows[t]
        np.multiply(r_rows[t], gh_n[t], out=nc)
        nc += gi_n
        np.tanh(nc, out=nc)
        h = h_rows[t + k]
        np.subtract(h_prev, nc, out=h)
        h *= z_rows[t]
        h += nc

        for layer in range(arch.out_conv_layers):
            d_in = dims[layer]
            val = rows[layer + 1][t + k]
            np.dot(out_w[layer], windows[layer][(t + 1) * d_in : (t + k + 1) * d_in], out=val)
            val += out_b[layer]
            if layer != last:
                np.maximum(val, 0.0, out=val)
        if feed is not None:
            np.copyto(ar_full[t + 1], y_rows[t + k], where=feed)

    y = y_rows[k:].copy()
    cache = {
        "in": in_cache,
        "a_top": a,
        "ar": ar_rows,
        "rows": rows,
        "zr": zr_rows,
        "nc": nc_rows,
        "gh_n": gh_n.copy(),  # the rest of gh_rows is not read again
        "free": free,
    }
    return y, cache


def _net_backward(model, net, cache, d_y, loop_sums, chain_sums, input_col=None):
    """Gradients of a scalar loss through one converter's B columns.

    `cache` is what `_net_forward` returned for the columns, and `d_y` the
    (n, out_dim, B) loss gradient w.r.t. their outputs. Returns futures of
    the parameter gradients for this net, summed over the columns (join
    them with `_gradients`), and the (n, in_dim) gradient w.r.t. input
    column `input_col`, or None when it is None (g's input is data).
    Autoregressive feedback adds each frame's GRU-input gradient onto the
    previous frame's output gradient, in the free-running columns only: a
    teacher column's feedback came from constants.

    The ReLU masks and the gate-derivative factors are computed for all
    frames before the reverse loop, and each frame's gate gradients are
    written in place over its factors, so each frame costs its transposed
    (rows x d) @ (d x B) products and a few in-place multiplies. Gradients
    that land on the zero frames in front of a history are discarded. After
    the loop, `_weight_grad` sums each weight over (B * n)-row stacks in
    fixed blocks. Each sum goes to `loop_sums` (Ug and the output convs,
    over the reverse loop's stacks) or to `chain_sums` (Wg and the input
    convs); both take (fn, *args) and return a future, as `Executor.submit`
    and `_at_once` do, and the caller picks where each set runs.
    """
    arch = model.arch
    params = model.params
    dtype = model.dtype
    k = arch.kernel
    h_dim = arch.gru_hidden
    n, _, n_cols = d_y.shape
    last = arch.out_conv_layers - 1

    wg = params[f"{net}.gru.Wg"]
    ug_t = np.ascontiguousarray(params[f"{net}.gru.Ug"].T)
    wg_y_t = np.ascontiguousarray(wg[:, arch.conv_channels :].T)
    out_w_t = [
        np.ascontiguousarray(params[f"{net}.out{layer}.W"].T)
        for layer in range(arch.out_conv_layers)
    ]

    rows = cache["rows"]
    dims = [r.shape[1] for r in rows]
    d_rows = [np.zeros_like(hist) for hist in rows]
    d_windows = [hist.reshape(-1, n_cols) for hist in d_rows]
    d_rows[-1][k:] = d_y
    masks = [(hist[k:] > 0).astype(dtype) for hist in rows[1:-1]]

    # dh -> d(gate pre-activations), as factors of dh taken for all frames;
    # d_gi and d_gh differ only in the n block, where d_gh carries the extra
    # factor r
    z, r, nc = cache["zr"][:, :h_dim], cache["zr"][:, h_dim:], cache["nc"]
    h_prev_rows = rows[0][k - 1 : k - 1 + n]
    one_minus_z = 1.0 - z
    d_gi = np.empty((n, 3, h_dim, n_cols), dtype=dtype)
    f_z, f_r, f_n = d_gi[:, 0], d_gi[:, 1], d_gi[:, 2]
    np.subtract(h_prev_rows, nc, out=f_z)
    f_z *= z
    f_z *= one_minus_z
    np.multiply(nc, nc, out=f_n)
    np.subtract(1.0, f_n, out=f_n)
    f_n *= one_minus_z
    del one_minus_z
    np.multiply(f_n, cache["gh_n"], out=f_r)
    f_r *= r
    f_r *= 1.0 - r
    d_gh = d_gi.copy()
    d_gh[:, 2] *= r
    d_gi_flat = d_gi.reshape(n, 3 * h_dim, n_cols)
    d_gh_flat = d_gh.reshape(n, 3 * h_dim, n_cols)

    windows = [np.empty((k * d, n_cols), dtype=dtype) for d in dims[:-1]]
    d_h_rec = np.empty((h_dim, n_cols), dtype=dtype)
    d_h_skip = np.empty((h_dim, n_cols), dtype=dtype)
    d_fb = np.empty((arch.out_dim, n_cols), dtype=dtype)
    d_h_rows = d_rows[0]
    d_y_rows = d_rows[-1]
    # feedback gradients reach the free columns only: all, or a mask
    free = cache["free"]
    feed = None if free.all() else free.astype(dtype)

    for t in range(n - 1, -1, -1):
        for layer in range(last, -1, -1):
            dp = d_rows[layer + 1][t + k]
            if layer != last:
                dp *= masks[layer][t]
            d_in = dims[layer]
            np.dot(out_w_t[layer], dp, out=windows[layer])
            d_windows[layer][(t + 1) * d_in : (t + k + 1) * d_in] += windows[layer]

        dh = d_h_rows[t + k]
        d_gh[t] *= dh
        d_gi[t] *= dh
        np.dot(ug_t, d_gh_flat[t], out=d_h_rec)
        np.multiply(dh, z[t], out=d_h_skip)
        d_h_prev = d_h_rows[t + k - 1]
        d_h_prev += d_h_skip
        d_h_prev += d_h_rec
        np.dot(wg_y_t, d_gi_flat[t], out=d_fb)
        if feed is not None:
            d_fb *= feed
        d_y_rows[t + k - 1] += d_fb

    # a queued sum holds views; its C-ordered stacks are made on the thread
    # that runs it, right before it. Only Wg's are made here, as d_gate
    # feeds the chain too
    d_gate = np.ascontiguousarray(d_gi_flat.transpose(2, 0, 1))
    u_gate = np.concatenate([cache["a_top"], cache["ar"].transpose(2, 0, 1)], axis=2)
    ug_sum = loop_sums(
        _layer_grads, f"{net}.gru.Ug", f"{net}.gru.bU",
        d_gh_flat.transpose(2, 0, 1), h_prev_rows.transpose(2, 0, 1),
    )
    sums = [
        loop_sums(
            _layer_grads, f"{net}.out{layer}.W", f"{net}.out{layer}.b",
            d_rows[layer + 1][k:].transpose(2, 0, 1), _windows(rows[layer], k),
        )
        for layer in range(arch.out_conv_layers)
    ]
    sums += [chain_sums(_layer_grads, f"{net}.gru.Wg", f"{net}.gru.bW", d_gate, u_gate), ug_sum]
    d_a = d_gate @ wg[:, : arch.conv_channels]
    del d_gate, u_gate

    # the input convs, on (B, n, d) arrays; layer 0's input gradient is
    # formed for `input_col` alone
    for layer in range(arch.in_conv_layers - 1, -1, -1):
        u, zpre = cache["in"][layer]
        d_z = d_a * (zpre.reshape(d_a.shape) > 0)
        u = u.reshape(d_z.shape[0], n, -1)
        sums.append(chain_sums(_layer_grads, f"{net}.in{layer}.W", f"{net}.in{layer}.b", d_z, u))
        if layer == 0:
            if input_col is None:
                return sums, None
            d_z = d_z[input_col, None]
        d_u = (d_z @ params[f"{net}.in{layer}.W"]).reshape(len(d_z), n, k, -1)
        d_pad = np.zeros((len(d_z), n + k - 1, d_u.shape[-1]), dtype=dtype)
        for i in range(k):
            d_pad[:, i : i + n] += d_u[:, :, i]
        d_a = d_pad[:, k - 1 :]
    return sums, d_a[0]


def _windows(hist, k):
    """(B, n, k * d) view of an (n + k, d, B) history whose row t in column b
    is the causal window of frame t: history rows t + 1 .. t + k, oldest first."""
    d = hist.shape[1]
    flat = hist.reshape(-1, hist.shape[2])
    return sliding_window_view(flat[d:], k * d, axis=0)[::d].transpose(1, 0, 2)


def _weight_grad(d, u):
    """d.T @ u over the (B * n)-row stacks of two C-ordered (B, n, .) arrays,
    one _GRAD_BLOCK-row block at a time, in order.

    One thread runs all of a sum, so its bytes depend on neither the thread
    it runs on nor what runs beside it. They are also BLAS-thread-invariant
    while OpenBLAS keeps each block on one thread, as 0.3.31 does but does
    not promise."""
    d, u = d.reshape(-1, d.shape[-1]), u.reshape(-1, u.shape[-1])
    grad = d[:_GRAD_BLOCK].T @ u[:_GRAD_BLOCK]
    for lo in range(_GRAD_BLOCK, len(d), _GRAD_BLOCK):
        grad += d[lo : lo + _GRAD_BLOCK].T @ u[lo : lo + _GRAD_BLOCK]
    return grad


def _layer_grads(w_name, b_name, d, u):
    """One layer's weight and bias gradients from (B, n, .) arrays or views
    of its output gradient `d` and its input `u`, stacked C-ordered here."""
    d, u = np.ascontiguousarray(d), np.ascontiguousarray(u)
    return {w_name: _weight_grad(d, u), b_name: d.sum(axis=1).sum(axis=0)}


def _at_once(fn, *args):
    """fn(*args) on the calling thread, as a finished future."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _gradients(sums):
    """The gradient dicts of `_net_backward`'s futures, joined in order."""
    return {name: grad for part in sums for name, grad in part.result().items()}


def _run_one(model, net, x):
    """One converter over one sequence: the B = 1 case of the kernel."""
    return _net_forward(model, net, x[:, :, None])[0][:, :, 0]


def stot_forward(model, x_norm):
    """Source-to-target conversion on a normalized source sequence."""
    x = _validate_seq(x_norm, model.arch.in_dim, "source sequence")
    return _run_one(model, "f", x)


def splice_prosody(mcep_norm, y_norm, norm_src, norm_tgt):
    """Attach the prosody dims of a target-normalized sequence to converted
    mel-cepstra, re-expressing them in source normalization so the spliced
    frames are a valid source-domain input."""
    prosody = y_norm[:, MCEP_DIM:].astype(np.float64)
    raw = prosody * norm_tgt.std[MCEP_DIM:] + norm_tgt.mean[MCEP_DIM:]
    as_src = (raw - norm_src.mean[MCEP_DIM:]) / norm_src.std[MCEP_DIM:]
    return np.concatenate([mcep_norm, as_src.astype(mcep_norm.dtype)], axis=1)


def _splice_back(model, y):
    """splice(g(Y), Y) of a validated target sequence in the model's dtype,
    and the cache of g."""
    back, cache_g = _net_forward(model, "g", y[:, :, None])
    return splice_prosody(back[:, :, 0], y, model.norm_src, model.norm_tgt), cache_g


def cycle_path(model, y_norm):
    """Self-conversion f(splice(g(Y), Y)) of a normalized target sequence."""
    y = _validate_seq(y_norm, model.arch.in_dim, "target sequence")
    spliced = _splice_back(model, np.ascontiguousarray(y, dtype=model.dtype))[0]  # frees g's cache before f runs
    return _run_one(model, "f", spliced)


@dataclass(frozen=True)
class LossBreakdown:
    """Joint objective terms; `total` is always stot_l1 + rho * cycle_l1."""

    stot_l1: float
    cycle_l1: float
    rho: float
    total = property(lambda self: self.stot_l1 + self.rho * self.cycle_l1)


def loss_gradients(model, x_norm, y_norm, rho=RHO_DEFAULT, teacher_forcing=False):
    """Joint objective and analytic parameter gradients for one pair.

    Both f passes share f's weights and the frame count, so they run as the
    two columns of one pass over [X, splice(g(Y), Y)]: under teacher forcing
    column 0 reads Y's mel-cepstra as its feedback and column 1 runs free.

    One backward pass of f over both columns, the cycle column pre-scaled by
    rho, sums the two f terms' weight gradients; the gradient w.r.t. the
    cycle column's input then runs back through g at every rho: at rho = 0
    g's gradients are zeros, so Adam leaves g unchanged.

    Once f's reverse loop ends, a one-worker pool, open for this call only,
    runs all of f's weight-gradient sums while the calling thread runs g's
    backward pass, which needs none of them; the helper then runs g's loop
    sums (Ug and the output convs) while the calling thread runs g's chain
    sums (Wg and the input convs). NumPy's BLAS calls and large copies
    release the interpreter lock, which lets the two overlap. Every sum is
    joined before the call returns. With one usable CPU every sum runs on
    the calling thread instead. Each sum runs whole on one thread, its fixed
    blocks in order, so no gradient byte depends on which thread ran it or
    when.
    """
    x = _validate_seq(x_norm, model.arch.in_dim, "source sequence")
    y = _validate_seq(y_norm, model.arch.in_dim, "target sequence")
    if x.shape[0] != y.shape[0]:
        raise PairingError(
            f"paired sequences must have equal frame counts, got {x.shape[0]} vs {y.shape[0]}"
        )
    check("rho", rho, float, "non-negative and finite", lambda v: 0 <= v < math.inf)
    y = np.ascontiguousarray(y, dtype=model.dtype)
    y_mc = y[:, :MCEP_DIM]
    spliced, cache_g = _splice_back(model, y)
    both = np.stack([x.astype(model.dtype, copy=False), spliced], axis=2)
    teachers = (y_mc, None) if teacher_forcing else None
    out, cache_f = _net_forward(model, "f", both, teachers)
    r1, r2 = (out[:, :, col].astype(np.float64) - y_mc.astype(np.float64) for col in (0, 1))
    stot, cyc = (float(np.mean(np.abs(r))) for r in (r1, r2))
    breakdown = LossBreakdown(stot_l1=stot, cycle_l1=cyc, rho=rho)
    scale = 1.0 / r1.size
    d_out = np.stack([np.sign(r1) * scale, np.sign(r2) * (rho * scale)], axis=2)
    # on one usable CPU a helper thread could only take turns with this one
    with ThreadPoolExecutor(1) if _usable_cpus() > 1 else nullcontext() as pool:
        submit = pool.submit if pool is not None else _at_once
        sums, d_spliced = _net_backward(
            model, "f", cache_f, d_out.astype(model.dtype), submit, submit, input_col=1
        )
        # prosody dims of the spliced input are constants w.r.t. parameters
        d_back = d_spliced[:, :MCEP_DIM, None]
        sums += _net_backward(model, "g", cache_g, d_back, submit, _at_once)[0]
        grads = _gradients(sums)
    return breakdown, grads


# ----- checkpoint I/O -------------------------------------------------------

def _format_vector(vec):
    return " ".join(repr(float(v)) for v in vec)


def _parse_vector(text, what):
    try:
        vec = np.array([float(tok) for tok in text.split()], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"checkpoint header: bad float in {what}") from exc
    if vec.size != N_DIMS:
        raise FormatError(f"checkpoint header: {what} has {vec.size} values, expected {N_DIMS}")
    if not np.all(np.isfinite(vec)):
        raise FormatError(f"checkpoint header: {what} has non-finite values")
    return vec


def save_checkpoint(model, path):
    """Write arch + normalization header and the float32 parameter blob."""
    lines = [f"format={CHECKPOINT_FORMAT}"]
    for name in _ARCH_FIELDS:
        lines.append(f"{name}={getattr(model.arch, name)}")
    lines.append(f"src_mean={_format_vector(model.norm_src.mean)}")
    lines.append(f"src_std={_format_vector(model.norm_src.std)}")
    lines.append(f"tgt_mean={_format_vector(model.norm_tgt.mean)}")
    lines.append(f"tgt_std={_format_vector(model.norm_tgt.std)}")
    lines.append(f"param_count={model.n_parameters}")
    header = "\n".join(lines) + "\n\n"
    blob = np.concatenate(
        [model.params[name].ravel() for name in param_shapes(model.arch)]
    ).astype("<f4")
    write_atomic(path, header.encode("utf-8") + memoryview(blob))


def load_checkpoint(path):
    """Read a checkpoint back into a float32 CycleVCModel."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise FormatError("checkpoint has no header/blob separator")
    try:
        header = raw[:sep].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("checkpoint header is not valid UTF-8") from exc
    fields = {}
    for lineno, line in enumerate(header.splitlines(), 1):
        if "=" not in line:
            raise FormatError(f"checkpoint header line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        if key in fields:
            raise FormatError(f"checkpoint header repeats field {key!r} (line {lineno})")
        fields[key] = value
    if fields.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"unsupported checkpoint format {fields.get('format')!r}")
    required = (*_ARCH_FIELDS, "param_count", "src_mean", "src_std", "tgt_mean", "tgt_std")
    missing = [k for k in required if k not in fields]
    if missing:
        raise FormatError(f"checkpoint header missing fields: {', '.join(missing)}")
    try:
        arch = ModelArch(**{k: int(fields[k]) for k in _ARCH_FIELDS})
    except (ValueError, ConfigError) as exc:
        raise FormatError(f"checkpoint header: bad architecture field ({exc})") from exc
    norm_src = NormStats(
        mean=_parse_vector(fields["src_mean"], "src_mean"),
        std=_parse_vector(fields["src_std"], "src_std"),
    )
    norm_tgt = NormStats(
        mean=_parse_vector(fields["tgt_mean"], "tgt_mean"),
        std=_parse_vector(fields["tgt_std"], "tgt_std"),
    )
    shapes = param_shapes(arch)
    expected = sum(math.prod(s) for s in shapes.values())
    blob = raw[sep + 2 :]
    if len(blob) != 4 * expected:
        raise FormatError(
            f"parameter blob has {len(blob)} bytes, expected {4 * expected} "
            f"({expected} float32 values for the declared architecture)"
        )
    if fields["param_count"] != str(expected):
        raise FormatError(
            f"checkpoint declares {fields['param_count']} parameters, "
            f"architecture requires {expected}"
        )
    flat = np.frombuffer(blob, dtype="<f4")
    if not np.all(np.isfinite(flat)):
        raise FormatError("checkpoint parameter blob has non-finite values")
    params = {}
    offset = 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        params[name] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    return CycleVCModel(arch=arch, params=params, norm_src=norm_src, norm_tgt=norm_tgt)
