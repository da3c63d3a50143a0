"""Reference recurrent kernel: the straightforward per-step implementation.

Gates in the stored block order (LSTM i, f, g, o; GRU r, z, n), one set of
temporaries per gate and step, sigmoid as the two-branch logistic, and the
weight gradients accumulated inside the BPTT loop. `nn.forward`/`nn.backward`
must agree with it to float round-off; it is kept here, not in the package,
as the oracle for that comparison.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_forward(params, x: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Predictions (B, T_out) and per-gate activations for a (B, M, D) batch."""
    bsz, m, _ = x.shape
    hs = params.hidden_size
    zx = x @ params.w_x + params.b
    h = np.zeros((bsz, hs))
    acts: dict[str, np.ndarray] = {"h_prev": np.empty((m, bsz, hs))}
    if params.cell == "lstm":
        for key in ("i", "f", "g", "o", "c", "tanh_c"):
            acts[key] = np.empty((m, bsz, hs))
        c = np.zeros((bsz, hs))
        for t in range(m):
            acts["h_prev"][t] = h
            zz = zx[:, t, :] + h @ params.w_h
            i = _sigmoid(zz[:, :hs])
            f = _sigmoid(zz[:, hs : 2 * hs])
            g = np.tanh(zz[:, 2 * hs : 3 * hs])
            o = _sigmoid(zz[:, 3 * hs :])
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            for key, value in zip(("i", "f", "g", "o", "c", "tanh_c"), (i, f, g, o, c, tc)):
                acts[key][t] = value
    else:
        for key in ("r", "z", "n", "hh_n"):
            acts[key] = np.empty((m, bsz, hs))
        for t in range(m):
            acts["h_prev"][t] = h
            hh = h @ params.w_h
            r = _sigmoid(zx[:, t, :hs] + hh[:, :hs])
            z = _sigmoid(zx[:, t, hs : 2 * hs] + hh[:, hs : 2 * hs])
            hh_n = hh[:, 2 * hs :]
            n = np.tanh(zx[:, t, 2 * hs :] + r * hh_n)
            h = z * h + (1.0 - z) * n
            for key, value in zip(("r", "z", "n", "hh_n"), (r, z, n, hh_n)):
                acts[key][t] = value
    acts["h_last"] = h
    return h @ params.w_out + params.b_out, acts


def reference_backward(
    params, x: np.ndarray, preds: np.ndarray, acts: dict[str, np.ndarray], targets: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of mean((pred - target)^2), accumulated step by step."""
    bsz, m, _ = x.shape
    hs = params.hidden_size
    d_pred = 2.0 * (preds - targets) / targets.size
    g_w_out = acts["h_last"].T @ d_pred
    g_b_out = d_pred.sum(axis=0)
    dh = d_pred @ params.w_out.T
    g_w_x = np.zeros_like(params.w_x)
    g_w_h = np.zeros_like(params.w_h)
    g_b = np.zeros_like(params.b)

    if params.cell == "lstm":
        dc = np.zeros((bsz, hs))
        for t in range(m - 1, -1, -1):
            i, f, g, o = (acts[key][t] for key in ("i", "f", "g", "o"))
            tc = acts["tanh_c"][t]
            c_prev = acts["c"][t - 1] if t > 0 else np.zeros((bsz, hs))
            da_o = (dh * tc) * o * (1.0 - o)
            dc = dc + dh * o * (1.0 - tc * tc)
            da_f = (dc * c_prev) * f * (1.0 - f)
            da_i = (dc * g) * i * (1.0 - i)
            da_g = (dc * i) * (1.0 - g * g)
            da = np.concatenate([da_i, da_f, da_g, da_o], axis=1)
            g_w_x += x[:, t, :].T @ da
            g_w_h += acts["h_prev"][t].T @ da
            g_b += da.sum(axis=0)
            dh = da @ params.w_h.T
            dc = dc * f
    else:
        for t in range(m - 1, -1, -1):
            r, z, n, hh_n = (acts[key][t] for key in ("r", "z", "n", "hh_n"))
            h_prev = acts["h_prev"][t]
            da_z = dh * (h_prev - n) * z * (1.0 - z)
            da_n = dh * (1.0 - z) * (1.0 - n * n)
            da_r = da_n * hh_n * r * (1.0 - r)
            da = np.concatenate([da_r, da_z, da_n], axis=1)
            g_w_x += x[:, t, :].T @ da
            g_b += da.sum(axis=0)
            g_w_h[:, : 2 * hs] += h_prev.T @ da[:, : 2 * hs]
            g_w_h[:, 2 * hs :] += h_prev.T @ (da_n * r)
            dh = (
                dh * z
                + da_r @ params.w_h[:, :hs].T
                + da_z @ params.w_h[:, hs : 2 * hs].T
                + (da_n * r) @ params.w_h[:, 2 * hs :].T
            )

    return {"w_x": g_w_x, "w_h": g_w_h, "b": g_b, "w_out": g_w_out, "b_out": g_b_out}
