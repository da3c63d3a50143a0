"""The forward pass with the sigmoid's halving left in the activation.

The same operations as `nn.forward` but that each step evaluates the sigmoid
as 0.5 * tanh(0.5 x) + 0.5 on the unscaled pre-activation x, with one
strided pass for the sigmoid gates and one for tanh. Scaling by 0.5 is exact
in binary floating point, so `nn.forward`, which keeps that halving in the
weights, must agree with this one bit for bit on any machine, and so must
every gradient `nn.backward` takes from the two traces. Kept here, not in
the package, as the oracle for that check.
"""

from __future__ import annotations

import numpy as np

from v2x_loadcast.nn import SIGMOID_BLOCKS, ForwardTrace, _as_batch


def _logistic_inplace(a: np.ndarray) -> None:
    """a <- 1 / (1 + exp(-a)), computed as 0.5 * tanh(0.5 a) + 0.5."""
    a *= 0.5
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5


def forward(params, inputs: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    x = _as_batch(inputs, params.input_size)
    bsz, m, d = x.shape
    cell, hs = params.cell, params.hidden_size
    ns = SIGMOID_BLOCKS[cell] * hs
    xt = x.transpose(1, 0, 2).reshape(m * bsz, d)
    gates = (xt @ params.w_x).reshape(m, bsz, -1)
    gates += params.b
    w_h = params.w_h
    states = np.zeros((m + 1, bsz, hs))

    if cell == "lstm":
        cells = np.zeros((m + 1, bsz, hs))
        tanh_c = np.empty((m, bsz, hs))
        for t in range(m):
            a = gates[t]
            a += states[t] @ w_h
            _logistic_inplace(a[:, :ns])
            np.tanh(a[:, ns:], out=a[:, ns:])
            i, f, o, g = a[:, :hs], a[:, hs : 2 * hs], a[:, 2 * hs : ns], a[:, ns:]
            np.multiply(f, cells[t], out=cells[t + 1])
            cells[t + 1] += i * g
            np.tanh(cells[t + 1], out=tanh_c[t])
            np.multiply(o, tanh_c[t], out=states[t + 1])
        extra = {"cells": cells, "tanh_c": tanh_c}
    else:
        hh = np.empty_like(gates)
        for t in range(m):
            a = gates[t]
            np.matmul(states[t], w_h, out=hh[t])
            a[:, :ns] += hh[t, :, :ns]
            _logistic_inplace(a[:, :ns])
            r, z, n = a[:, :hs], a[:, hs:ns], a[:, ns:]
            n += r * hh[t, :, ns:]
            np.tanh(n, out=n)
            np.multiply(z, states[t], out=states[t + 1])
            states[t + 1] += (1.0 - z) * n
        extra = {"hh_n": hh[..., ns:]}
    preds = states[m] @ params.w_out + params.b_out
    return preds, ForwardTrace(x, preds, states, gates, **extra)
