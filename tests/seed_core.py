"""The converter kernel as first written, kept as a test-only reference.

`_sigmoid`, `_net_forward` and `_net_backward` are the original per-frame
implementation, unchanged. `tests/test_kernel_reference.py` checks the
current kernel in `cyclevc.model` against them within a stated float32
tolerance.
"""

import numpy as np

from cyclevc.model import _unfold_rows


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _net_forward(model, net, x, want_cache=False, teacher=None):
    """Run one converter over a normalized sequence.

    `teacher`, when given, replaces the autoregressive feedback with the
    provided target frames (teacher forcing); frame t consumes teacher[t-1].
    """
    arch = model.arch
    params = model.params
    dtype = model.dtype
    k = arch.kernel
    h_dim = arch.gru_hidden
    out_dim = arch.out_dim
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
    wg_x = wg[:, : arch.conv_channels]
    wg_y = wg[:, arch.conv_channels :]
    gi_x = a @ wg_x.T + params[f"{net}.gru.bW"]
    bu = params[f"{net}.gru.bU"]

    out_w = [params[f"{net}.out{layer}.W"] for layer in range(arch.out_conv_layers)]
    out_b = [params[f"{net}.out{layer}.b"] for layer in range(arch.out_conv_layers)]
    out_dims = [wm.shape[0] for wm in out_w]

    h_pad = np.zeros((n + k - 1, h_dim), dtype=dtype)
    h_prev_rows = np.zeros((n, h_dim), dtype=dtype)
    ar_rows = np.zeros((n, out_dim), dtype=dtype)
    gates_z = np.zeros((n, h_dim), dtype=dtype)
    gates_r = np.zeros((n, h_dim), dtype=dtype)
    gates_n = np.zeros((n, h_dim), dtype=dtype)
    gh_n_rows = np.zeros((n, h_dim), dtype=dtype)
    out_pre = [np.zeros((n, d), dtype=dtype) for d in out_dims]
    out_pads = [np.zeros((n + k - 1, d), dtype=dtype) for d in out_dims]

    h_prev = np.zeros(h_dim, dtype=dtype)
    y_prev = np.zeros(out_dim, dtype=dtype)
    last = arch.out_conv_layers - 1
    for t in range(n):
        if t > 0:
            ar = teacher[t - 1] if teacher is not None else y_prev
        else:
            ar = np.zeros(out_dim, dtype=dtype)
        ar_rows[t] = ar
        h_prev_rows[t] = h_prev
        gi = gi_x[t] + wg_y @ ar
        gh = ug @ h_prev + bu
        z = _sigmoid(gi[:h_dim] + gh[:h_dim])
        r = _sigmoid(gi[h_dim : 2 * h_dim] + gh[h_dim : 2 * h_dim])
        nc = np.tanh(gi[2 * h_dim :] + r * gh[2 * h_dim :])
        h = (1.0 - z) * nc + z * h_prev
        gates_z[t], gates_r[t], gates_n[t] = z, r, nc
        gh_n_rows[t] = gh[2 * h_dim :]
        h_pad[t + k - 1] = h

        cur_pad = h_pad
        for layer in range(arch.out_conv_layers):
            window = cur_pad[t : t + k].reshape(-1)
            pre = out_w[layer] @ window + out_b[layer]
            out_pre[layer][t] = pre
            val = pre if layer == last else np.maximum(pre, 0.0)
            out_pads[layer][t + k - 1] = val
            cur_pad = out_pads[layer]
        y_prev = out_pads[last][t + k - 1]
        h_prev = h

    y = out_pads[last][k - 1 :].copy() if k > 1 else out_pads[last].copy()
    if not want_cache:
        return y, None
    cache = {
        "x": np.ascontiguousarray(x, dtype=dtype),
        "in": in_cache,
        "a_top": a,
        "ar": ar_rows,
        "h_prev": h_prev_rows,
        "h_pad": h_pad,
        "z": gates_z,
        "r": gates_r,
        "nc": gates_n,
        "gh_n": gh_n_rows,
        "out_pre": out_pre,
        "out_pads": out_pads,
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
    """
    arch = model.arch
    params = model.params
    dtype = model.dtype
    k = arch.kernel
    h_dim = arch.gru_hidden
    n = d_y.shape[0]
    last = arch.out_conv_layers - 1

    wg = params[f"{net}.gru.Wg"]
    ug = params[f"{net}.gru.Ug"]
    wg_x = wg[:, : arch.conv_channels]
    wg_y = wg[:, arch.conv_channels :]
    out_w = [params[f"{net}.out{layer}.W"] for layer in range(arch.out_conv_layers)]

    d_y = np.array(d_y, dtype=dtype)
    out_pads = cache["out_pads"]
    out_pre = cache["out_pre"]
    h_pad = cache["h_pad"]
    d_out_pads = [np.zeros_like(p) for p in out_pads]
    d_h_pad = np.zeros_like(h_pad)
    d_pre = [np.zeros_like(p) for p in out_pre]
    d_gi = np.zeros((n, 3 * h_dim), dtype=dtype)
    d_gh = np.zeros((n, 3 * h_dim), dtype=dtype)

    z, r, nc = cache["z"], cache["r"], cache["nc"]
    gh_n = cache["gh_n"]
    h_prev_rows = cache["h_prev"]
    free_running = not cache["teacher"]

    for t in range(n - 1, -1, -1):
        d_out_pads[last][t + k - 1] += d_y[t]
        for layer in range(last, -1, -1):
            d_val = d_out_pads[layer][t + k - 1]
            if layer == last:
                dp = d_val
            else:
                dp = d_val * (out_pre[layer][t] > 0)
            d_pre[layer][t] = dp
            d_window = (out_w[layer].T @ dp).reshape(k, -1)
            if layer == 0:
                d_h_pad[t : t + k] += d_window
            else:
                d_out_pads[layer - 1][t : t + k] += d_window

        dh = d_h_pad[t + k - 1]
        zt, rt, nt = z[t], r[t], nc[t]
        dz = dh * (h_prev_rows[t] - nt)
        dnc = dh * (1.0 - zt)
        dan = dnc * (1.0 - nt * nt)
        dr = dan * gh_n[t]
        daz = dz * zt * (1.0 - zt)
        dar = dr * rt * (1.0 - rt)
        d_gi[t, :h_dim] = daz
        d_gi[t, h_dim : 2 * h_dim] = dar
        d_gi[t, 2 * h_dim :] = dan
        d_gh[t, :h_dim] = daz
        d_gh[t, h_dim : 2 * h_dim] = dar
        d_gh[t, 2 * h_dim :] = dan * rt
        if t > 0:
            d_h_pad[t + k - 2] += dh * zt + ug.T @ d_gh[t]
            if free_running:
                d_y[t - 1] += wg_y.T @ d_gi[t]

    grads = {}
    cur_pad = h_pad
    for layer in range(arch.out_conv_layers):
        u = _unfold_rows(cur_pad, n, k)
        grads[f"{net}.out{layer}.W"] = d_pre[layer].T @ u
        grads[f"{net}.out{layer}.b"] = d_pre[layer].sum(axis=0)
        cur_pad = out_pads[layer]

    u_gru = np.concatenate([cache["a_top"], cache["ar"]], axis=1)
    grads[f"{net}.gru.Wg"] = d_gi.T @ u_gru
    grads[f"{net}.gru.bW"] = d_gi.sum(axis=0)
    grads[f"{net}.gru.Ug"] = d_gh.T @ h_prev_rows
    grads[f"{net}.gru.bU"] = d_gh.sum(axis=0)

    d_a = d_gi @ wg_x
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
