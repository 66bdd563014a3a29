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
"""

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.special import expit

from .errors import ConfigError, FormatError, InputError, PairingError, ShapeError
from .features import MCEP_DIM, N_DIMS, NormStats, write_atomic

RHO_DEFAULT = 1e-8

CHECKPOINT_FORMAT = "cyclevc-checkpoint-v1"

_NETS = ("f", "g")


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
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")


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
    dtype: np.dtype = np.float32

    @classmethod
    def init(cls, arch, norm_src, norm_tgt, seed, dtype=np.float32):
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, seeded."""
        rng = np.random.Generator(np.random.PCG64(seed))
        params = {}
        for name, shape in param_shapes(arch).items():
            if len(shape) == 2:  # a weight; the bias declared next shares its fan-in
                bound = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        return cls(arch=arch, params=params, norm_src=norm_src, norm_tgt=norm_tgt, dtype=dtype)

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
    """Causal windows: row t = [x_(t-k+1) ... x_t] flattened, oldest first."""
    return np.concatenate([pad[i : i + n] for i in range(k)], axis=1)


def _net_forward(model, net, x, want_cache=False, teacher=None):
    """Run one converter over a normalized sequence.

    `teacher`, when given, replaces the autoregressive feedback with the
    provided target frames (teacher forcing); frame t consumes teacher[t-1].

    Everything that does not depend on the previous frame (the input convs
    and their GRU projection) is computed for all frames up front; the
    per-frame loop holds only the recurrent matrix-vector products and
    in-place elementwise ops on preallocated rows. Each history the output
    convs read (hidden states, conv outputs) is one flat buffer with k zero
    frames in front, so frame t is stored at row t + k and its causal window
    of width k is the contiguous slice of rows t + 1 .. t + k.
    """
    arch = model.arch
    params = model.params
    dtype = model.dtype
    k = arch.kernel
    h_dim = arch.gru_hidden
    n = x.shape[0]

    a = np.ascontiguousarray(x, dtype=dtype)
    in_cache = []
    for layer in range(arch.in_conv_layers):
        w = params[f"{net}.in{layer}.W"]
        b = params[f"{net}.in{layer}.b"]
        pad = np.concatenate([np.zeros((k - 1, a.shape[1]), dtype=dtype), a])
        u = _unfold_rows(pad, n, k)
        z = u @ w.T + b
        if want_cache:
            in_cache.append((u, z))
        a = np.maximum(z, 0.0)

    wg = params[f"{net}.gru.Wg"]
    ug = params[f"{net}.gru.Ug"]
    wg_y = np.ascontiguousarray(wg[:, arch.conv_channels :])
    gi_x = a @ wg[:, : arch.conv_channels].T + params[f"{net}.gru.bW"]
    bu = params[f"{net}.gru.bU"]

    out_w = [params[f"{net}.out{layer}.W"] for layer in range(arch.out_conv_layers)]
    out_b = [params[f"{net}.out{layer}.b"] for layer in range(arch.out_conv_layers)]
    last = arch.out_conv_layers - 1

    # flat histories: the hidden states, then each output conv layer
    dims = [h_dim] + [w.shape[0] for w in out_w]
    flats = [np.zeros((n + k) * d, dtype=dtype) for d in dims]
    rows = [flat.reshape(n + k, d) for flat, d in zip(flats, dims)]
    h_rows = rows[0]
    y_rows = rows[-1]

    # feedback into frame t: zeros at t = 0, then the previous output frame
    if teacher is None:
        ar_rows = y_rows[k - 1 : k - 1 + n]
    else:
        ar_rows = np.zeros((n, arch.out_dim), dtype=dtype)
        ar_rows[1:] = teacher[: n - 1]

    gh_rows = np.empty((n, 3 * h_dim), dtype=dtype)
    zr_rows = np.empty((n, 2 * h_dim), dtype=dtype)
    nc_rows = np.empty((n, h_dim), dtype=dtype)
    gh_zr, gh_n = gh_rows[:, : 2 * h_dim], gh_rows[:, 2 * h_dim :]
    z_rows, r_rows = zr_rows[:, :h_dim], zr_rows[:, h_dim:]
    gi = np.empty(3 * h_dim, dtype=dtype)
    gi_zr, gi_n = gi[: 2 * h_dim], gi[2 * h_dim :]

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
            np.dot(out_w[layer], flats[layer][(t + 1) * d_in : (t + k + 1) * d_in], out=val)
            val += out_b[layer]
            if layer != last:
                np.maximum(val, 0.0, out=val)

    y = y_rows[k:].copy()
    if not want_cache:
        return y, None
    cache = {
        "in": in_cache,
        "a_top": a,
        "ar": ar_rows,
        "rows": rows,
        "zr": zr_rows,
        "nc": nc_rows,
        "gh_n": gh_n,
        "teacher": teacher is not None,
    }
    return y, cache


def _net_backward(model, net, cache, d_y):
    """Gradients of a scalar loss through one converter.

    `d_y` is the loss gradient w.r.t. the converter output; the returned
    pair is (parameter gradients for this net, gradient w.r.t. the input
    sequence). Autoregressive feedback is handled by adding each frame's
    GRU-input gradient onto the previous frame's output gradient, skipped
    under teacher forcing where the feedback came from constants.

    The ReLU masks and the gate-derivative factors are computed for all
    frames before the reverse loop, so each frame costs its transposed
    matrix-vector products and a few in-place multiplies. Gradients that
    land on the zero frames in front of a history are discarded.
    """
    arch = model.arch
    params = model.params
    dtype = model.dtype
    k = arch.kernel
    h_dim = arch.gru_hidden
    n = d_y.shape[0]
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
    d_flats = [np.zeros((n + k) * d, dtype=dtype) for d in dims]
    d_rows = [flat.reshape(n + k, d) for flat, d in zip(d_flats, dims)]
    d_rows[-1][k:] = d_y
    masks = [(hist[k:] > 0).astype(dtype) for hist in rows[1:-1]]

    # dh -> d(gate pre-activations); d_gi and d_gh differ only in the n block,
    # where d_gh carries the extra factor r
    z, r, nc = cache["zr"][:, :h_dim], cache["zr"][:, h_dim:], cache["nc"]
    h_prev_rows = rows[0][k - 1 : k - 1 + n]
    f_z = (h_prev_rows - nc) * z * (1.0 - z)
    f_n = (1.0 - z) * (1.0 - nc * nc)
    f_r = f_n * cache["gh_n"] * r * (1.0 - r)
    f_gi = np.concatenate([f_z, f_r, f_n], axis=1).reshape(n, 3, h_dim)
    f_gh = np.concatenate([f_z, f_r, f_n * r], axis=1).reshape(n, 3, h_dim)
    d_gi = np.empty((n, 3, h_dim), dtype=dtype)
    d_gh = np.empty((n, 3, h_dim), dtype=dtype)
    d_gi_flat = d_gi.reshape(n, 3 * h_dim)
    d_gh_flat = d_gh.reshape(n, 3 * h_dim)

    windows = [np.empty(k * d, dtype=dtype) for d in dims[:-1]]
    d_h_rec = np.empty(h_dim, dtype=dtype)
    d_h_skip = np.empty(h_dim, dtype=dtype)
    d_fb = np.empty(arch.out_dim, dtype=dtype)
    d_h_rows = d_rows[0]
    d_y_rows = d_rows[-1]
    free_running = not cache["teacher"]

    for t in range(n - 1, -1, -1):
        for layer in range(last, -1, -1):
            dp = d_rows[layer + 1][t + k]
            if layer != last:
                dp *= masks[layer][t]
            d_in = dims[layer]
            np.dot(out_w_t[layer], dp, out=windows[layer])
            d_flats[layer][(t + 1) * d_in : (t + k + 1) * d_in] += windows[layer]

        dh = d_h_rows[t + k]
        np.multiply(f_gh[t], dh, out=d_gh[t])
        np.multiply(f_gi[t], dh, out=d_gi[t])
        np.dot(ug_t, d_gh_flat[t], out=d_h_rec)
        np.multiply(dh, z[t], out=d_h_skip)
        d_h_prev = d_h_rows[t + k - 1]
        d_h_prev += d_h_skip
        d_h_prev += d_h_rec
        if free_running:
            np.dot(wg_y_t, d_gi_flat[t], out=d_fb)
            d_y_rows[t + k - 1] += d_fb

    grads = {}
    for layer in range(arch.out_conv_layers):
        u = _unfold_rows(rows[layer][1:], n, k)
        d_pre = d_rows[layer + 1][k:]
        grads[f"{net}.out{layer}.W"] = d_pre.T @ u
        grads[f"{net}.out{layer}.b"] = d_pre.sum(axis=0)

    u_gru = np.concatenate([cache["a_top"], cache["ar"]], axis=1)
    grads[f"{net}.gru.Wg"] = d_gi_flat.T @ u_gru
    grads[f"{net}.gru.bW"] = d_gi_flat.sum(axis=0)
    grads[f"{net}.gru.Ug"] = d_gh_flat.T @ h_prev_rows
    grads[f"{net}.gru.bU"] = d_gh_flat.sum(axis=0)

    d_a = d_gi_flat @ wg[:, : arch.conv_channels]
    for layer in range(arch.in_conv_layers - 1, -1, -1):
        u, zpre = cache["in"][layer]
        d_z = d_a * (zpre > 0)
        grads[f"{net}.in{layer}.W"] = d_z.T @ u
        grads[f"{net}.in{layer}.b"] = d_z.sum(axis=0)
        w = params[f"{net}.in{layer}.W"]
        d_u = d_z @ w
        cin = w.shape[1] // k
        d_pad = np.zeros((n + k - 1, cin), dtype=dtype)
        for i in range(k):
            d_pad[i : i + n] += d_u[:, i * cin : (i + 1) * cin]
        d_a = d_pad[k - 1 :]

    return grads, d_a


def stot_forward(model, x_norm):
    """Source-to-target conversion on a normalized source sequence."""
    x = _validate_seq(x_norm, model.arch.in_dim, "source sequence")
    y, _ = _net_forward(model, "f", x)
    return y


def splice_prosody(mcep_norm, y_norm, norm_src, norm_tgt):
    """Attach the prosody dims of a target-normalized sequence to converted
    mel-cepstra, re-expressing them in source normalization so the spliced
    frames are a valid source-domain input."""
    prosody = y_norm[:, MCEP_DIM:].astype(np.float64)
    raw = prosody * norm_tgt.std[MCEP_DIM:] + norm_tgt.mean[MCEP_DIM:]
    as_src = (raw - norm_src.mean[MCEP_DIM:]) / norm_src.std[MCEP_DIM:]
    return np.concatenate([mcep_norm, as_src.astype(mcep_norm.dtype)], axis=1)


def _cycle(model, y, want_cache=False):
    """f(splice(g(Y), Y)) of a validated target sequence, in the model's
    dtype; returns (output, cache of g, cache of the cycle's f)."""
    y = np.ascontiguousarray(y, dtype=model.dtype)
    back, cache_g = _net_forward(model, "g", y, want_cache)
    spliced = splice_prosody(back, y, model.norm_src, model.norm_tgt)
    out, cache_f2 = _net_forward(model, "f", spliced, want_cache)
    return out, cache_g, cache_f2


def cycle_path(model, y_norm):
    """Self-conversion f(splice(g(Y), Y)) of a normalized target sequence."""
    return _cycle(model, _validate_seq(y_norm, model.arch.in_dim, "target sequence"))[0]


@dataclass(frozen=True)
class LossBreakdown:
    """Joint objective terms; `total` is always stot_l1 + rho * cycle_l1."""

    stot_l1: float
    cycle_l1: float
    rho: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.stot_l1 + self.rho * self.cycle_l1)


def _objective(model, x_norm, y_norm, rho, teacher_forcing, want_cache):
    """The joint objective on one normalized pair. Returns the breakdown, the
    float64 residuals f(X) - Y and f(splice(g(Y), Y)) - Y (mcep dims), and
    the caches (f(X), g, cycle f), which are None unless `want_cache`."""
    x = _validate_seq(x_norm, model.arch.in_dim, "source sequence")
    y = _validate_seq(y_norm, model.arch.in_dim, "target sequence")
    if x.shape[0] != y.shape[0]:
        raise PairingError(
            f"paired sequences must have equal frame counts, got {x.shape[0]} vs {y.shape[0]}"
        )
    if rho < 0:
        raise ConfigError("rho must be non-negative")
    y = np.ascontiguousarray(y, dtype=model.dtype)
    y_mc = y[:, :MCEP_DIM]
    f_x, cache_f1 = _net_forward(model, "f", x, want_cache, y_mc if teacher_forcing else None)
    y_cycle, cache_g, cache_f2 = _cycle(model, y, want_cache)
    r1 = f_x.astype(np.float64) - y_mc.astype(np.float64)
    r2 = y_cycle.astype(np.float64) - y_mc.astype(np.float64)
    stot, cyc = (float(np.mean(np.abs(r))) for r in (r1, r2))
    breakdown = LossBreakdown(stot_l1=stot, cycle_l1=cyc, rho=rho)
    return breakdown, r1, r2, (cache_f1, cache_g, cache_f2)


def cycle_loss(model, x_norm, y_norm, rho=RHO_DEFAULT):
    """Joint objective on one normalized pair (no gradients)."""
    return _objective(model, x_norm, y_norm, rho, teacher_forcing=False, want_cache=False)[0]


def loss_gradients(model, x_norm, y_norm, rho=RHO_DEFAULT, teacher_forcing=False):
    """Joint objective and analytic parameter gradients for one pair."""
    breakdown, r1, r2, (cache_f1, cache_g, cache_f2) = _objective(
        model, x_norm, y_norm, rho, teacher_forcing, want_cache=True
    )
    scale = 1.0 / r1.size
    d1 = (np.sign(r1) * scale).astype(model.dtype)
    grads, _ = _net_backward(model, "f", cache_f1, d1)
    if rho > 0.0:
        d2 = (np.sign(r2) * (rho * scale)).astype(model.dtype)
        g_f2, d_spliced = _net_backward(model, "f", cache_f2, d2)
        for name, g in g_f2.items():
            grads[name] += g
        # prosody dims of the spliced input are constants w.r.t. parameters
        g_g, _ = _net_backward(model, "g", cache_g, d_spliced[:, :MCEP_DIM])
        grads.update(g_g)
    else:
        for name, p in model.params.items():
            if name.startswith("g."):
                grads[name] = np.zeros_like(p)
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
        fields[key] = value
    if fields.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"unsupported checkpoint format {fields.get('format')!r}")
    missing = [k for k in (*_ARCH_FIELDS, "src_mean", "src_std", "tgt_mean", "tgt_std") if k not in fields]
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
    expected = sum(int(np.prod(s)) for s in shapes.values())
    blob = raw[sep + 2 :]
    if len(blob) != 4 * expected:
        raise FormatError(
            f"parameter blob has {len(blob)} bytes, expected {4 * expected} "
            f"({expected} float32 values for the declared architecture)"
        )
    if "param_count" in fields:
        try:
            declared = int(fields["param_count"])
        except ValueError:
            declared = None
        if declared != expected:
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
        size = int(np.prod(shape))
        params[name] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    return CycleVCModel(arch=arch, params=params, norm_src=norm_src, norm_tgt=norm_tgt)
