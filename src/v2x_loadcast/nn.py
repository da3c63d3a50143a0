"""From-scratch recurrent forecaster: LSTM/GRU cell, linear head, BPTT.

One recurrent layer of H cells reads a window of M samples and a single
linear unit (no activation) maps the final hidden state to the predicted
call count. Gate equations, with sigmoid s and elementwise products:

LSTM (gate blocks i, f, o, g in the stacked weight matrices):
    i = s(x W_xi + h' W_hi + b_i)        f = s(x W_xf + h' W_hf + b_f)
    o = s(x W_xo + h' W_ho + b_o)        g = tanh(x W_xg + h' W_hg + b_g)
    c = f * c' + i * g                   h = o * tanh(c)

GRU (blocks r, z, n; a single bias per block, reset gate applied to the
recurrent part of the candidate):
    r = s(x W_xr + h' W_hr + b_r)        z = s(x W_xz + h' W_hz + b_z)
    n = tanh(x W_xn + r * (h' W_hn) + b_n)
    h = z * h' + (1 - z) * n

`backward` returns exact analytic gradients of the batch-mean MSE with
respect to every parameter; everything runs in float64.

Layout. `ModelParameters` stores its five tensors as views of one contiguous
float64 vector `flat` of P elements: w_x, w_h, b, w_out, b_out, each
row-major. The gradient `backward` returns and the RMSProp accumulators are
(P,) vectors in the same layout, so the optimizer, copies and gradcheck work
on whole vectors; only `forward` and `backward` read the tensors, through
`ModelParameters.views`. `flat` may also be a (*lead, P) stack of models
(`ModelParameters.with_flat`), each tensor then a (*lead, ...) view; the
per-model shapes come from the trailing axes.

Kernel. Parameters and gradients are stored in the block order the kernel
runs, sigmoid blocks first (LSTM i, f, o, g; GRU r, z, n). `init_parameters`
draws the LSTM weights as blocks i, f, g, o and swaps the g and o blocks
once, so a seed gives the same gate weights in either layout. Sigmoid is
evaluated as s(x) = 0.5 * tanh(0.5 x) + 0.5, which cannot overflow, and the
halving of x lives in the weights: each call multiplies the sigmoid columns
of W_x, W_h and b by 0.5, which is exact in binary floating point, so the
halved pre-activations are bit for bit 0.5 times the plain ones. An LSTM
step then activates its whole (B, 4H) row with one tanh and one
`a * scale + offset` (0.5 and 0.5 on the sigmoid columns, 1 and 0 on g);
the GRU does the same on its r, z columns before n, which needs r. One GEMM
computes the input projection of the whole window into a time-major
(M, B, G*H) buffer; each step adds h' W_h to its slice and activates it in
place, and hidden (and LSTM cell) states go into preallocated (M+1, B, H)
buffers whose first row is the zero initial state. `backward` writes each
step's pre-activation gradients into one (M, B, G*H) buffer and computes the
W_x, W_h and b gradients after the loop with one GEMM or sum each.

`forward` takes a (B, M, D) batch of windows only (one window is B = 1) and
broadcasts over the leading model axes of a stacked `flat`: every model
reads the same inputs, the GEMMs are stacked `matmul`s, and time stays
the first axis, so the gate buffer is (M, *lead, B, G*H) and the states
(M+1, *lead, B, H). The gate buffer is the one input GEMM's
(*lead, M*B, G*H) result made C-contiguous and time-major by one line: for
a stack an owned copy, made once per call, so each step's h' W_h add and
activation run on contiguous rows rather than on a strided view; for a
single model (lead = ()) the result itself, already time-major. The biases
broadcast over B as (*lead, 1, ...), so one model and a stack run the same
lines. `backward` takes a single model only; its targets, like those of
`gradcheck.numerical_gradients`, are (B, T_out).

`ForwardTrace`: `inputs` (B, M, D) as given and `preds` (*lead, B, T_out),
then, time-major, `states` (M+1, *lead, B, H) and the activated `gates`
(M, *lead, B, G*H); LSTM adds `cells` (M+1, *lead, B, H) and `tanh_c`
(M, *lead, B, H), GRU adds `hh_n` (M, *lead, B, H), the h' W_hn term the
reset gate scales. `h_prev` is a view of `states`.
"""

from __future__ import annotations

import copy
import ctypes
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch

GATE_BLOCKS = {"lstm": 4, "gru": 3}
SIGMOID_BLOCKS = {"lstm": 3, "gru": 2}  # leading gate blocks
TENSOR_NAMES = ("w_x", "w_h", "b", "w_out", "b_out")  # their order in `ModelParameters.flat`
TENSOR_NDIMS = (2, 2, 1, 2, 1)  # the axes of each per model, after any leading model axes
# glibc's name for each heap threshold: its mallopt parameter and the value
# glibc's dynamic mmap threshold rule tops out at on 64-bit (32 MiB, and twice
# that for the trim threshold).
HEAP_THRESHOLDS = {"mmap_threshold": (-3, 32 << 20), "trim_threshold": (-1, 64 << 20)}


def pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for this process (and its forks).

    Left dynamic, glibc trims the top of the heap after a call frees its
    arrays and maps arrays larger than the biggest block freed so far afresh,
    so the next call faults the same pages back in: 30-100 minor faults per
    gradcheck model and about 380 per B=32 LSTM training step, depending on
    what the process freed before. Pinned, the heap keeps them. Arithmetic is
    untouched. A threshold already set through glibc's own environment
    (`MALLOC_TRIM_THRESHOLD_`, say, or `glibc.malloc.trim_threshold` in
    `GLIBC_TUNABLES`) is left as set. Does nothing where there is no C library
    handle or no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: Windows takes no None
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    for name, (param, value) in HEAP_THRESHOLDS.items():
        if f"MALLOC_{name.upper()}_" not in os.environ and f"glibc.malloc.{name}=" not in tunables:
            mallopt(param, value)


pin_heap_thresholds()  # once per process: every compute path imports nn


@dataclass
class ModelParameters:
    """All weights of the recurrent cell plus the linear head, in one vector.

    The constructor checks the five tensors, copies them into `flat`, one
    contiguous float64 (P,) vector holding w_x, w_h, b, w_out and b_out in
    that order, each row-major, and rebinds each field to its view of `flat`:
    a write through either shows in the other. Gradients from `backward` and
    the RMSProp accumulators are (P,) vectors in the same layout, and `views`
    names the tensors of any of them, or of a (*lead, P) stack of them.
    """

    cell: str
    w_x: np.ndarray  # (D, blocks*H) input weights, gate blocks LSTM i, f, o, g / GRU r, z, n
    w_h: np.ndarray  # (H, blocks*H) recurrent weights, same block order
    b: np.ndarray  # (blocks*H,) same block order
    w_out: np.ndarray  # (H, T_out) linear head
    b_out: np.ndarray  # (T_out,)
    flat: np.ndarray = field(init=False, repr=False)  # (P,) or (*lead, P) storage behind the views

    def __post_init__(self):
        if self.cell not in GATE_BLOCKS:
            raise ShapeMismatch(f"unknown cell kind {self.cell!r}")
        blocks = GATE_BLOCKS[self.cell]
        d, gh = self.w_x.shape
        h = self.w_h.shape[0]
        if gh != blocks * h or self.w_h.shape != (h, blocks * h):
            raise ShapeMismatch(f"w_x {self.w_x.shape} / w_h {self.w_h.shape} inconsistent")
        if self.b.shape != (blocks * h,):
            raise ShapeMismatch(f"bias shape {self.b.shape} != ({blocks * h},)")
        if self.w_out.shape[0] != h or self.w_out.ndim != 2:
            raise ShapeMismatch(f"head shape {self.w_out.shape} does not map H={h}")
        if self.b_out.shape != (self.w_out.shape[1],):
            raise ShapeMismatch(f"head bias shape {self.b_out.shape}")
        tensors = [np.ravel(getattr(self, name)) for name in TENSOR_NAMES]
        self._bind(np.concatenate(tensors, dtype=np.float64))
        if not np.isfinite(self.flat).all():
            raise ShapeMismatch("non-finite parameter values")

    @property
    def input_size(self) -> int:
        return self.w_x.shape[-2]

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[-2]

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """The five tensors of a (..., P) vector laid out like `flat`, as views, keyed by name."""
        views, start = {}, 0
        for name, ndim in zip(TENSOR_NAMES, TENSOR_NDIMS):
            shape = getattr(self, name).shape[-ndim:]  # one model's
            stop = start + math.prod(shape)
            views[name] = vector[..., start:stop].reshape(vector.shape[:-1] + shape)
            start = stop
        return views

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        for name, view in self.views(flat).items():
            setattr(self, name, view)

    def with_flat(self, flat: np.ndarray) -> "ModelParameters":
        """Parameters over `flat`, a (P,) vector or a (*lead, P) stack of models
        in this layout, sharing its memory. Not validated: training may leave
        non-finite weights, which `Diverged` reports."""
        clone = copy.copy(self)
        clone._bind(flat)
        return clone

    def copy(self) -> "ModelParameters":
        """A copy sharing no memory, not validated again."""
        return self.with_flat(self.flat.copy())


def init_parameters(
    cell: str,
    input_size: int,
    hidden_size: int,
    rng: np.random.Generator,
    out_size: int = 1,
) -> ModelParameters:
    """Uniform init in [-1/sqrt(H), 1/sqrt(H)]; LSTM forget bias starts at +1."""
    if cell not in GATE_BLOCKS:
        raise ShapeMismatch(f"unknown cell kind {cell!r}")
    blocks = GATE_BLOCKS[cell]
    h = hidden_size
    scale = 1.0 / np.sqrt(h)
    w_x = rng.uniform(-scale, scale, (input_size, blocks * h))
    w_h = rng.uniform(-scale, scale, (h, blocks * h))
    b = np.zeros(blocks * h)
    if cell == "lstm":
        b[h : 2 * h] = 1.0
        # Drawn as blocks i, f, g, o and stored as i, f, o, g (b's g and o are both 0).
        order = np.r_[: 2 * h, 3 * h : 4 * h, 2 * h : 3 * h]
        w_x, w_h = w_x[:, order], w_h[:, order]
    w_out = rng.uniform(-scale, scale, (h, out_size))
    b_out = np.zeros(out_size)
    return ModelParameters(cell, w_x, w_h, b, w_out, b_out)


def _activate(a: np.ndarray, scale, offset) -> None:
    """a <- tanh(a) * scale + offset, in place.

    With scale = offset = 0.5 on a pre-activation already halved this is the
    sigmoid, 0.5 * tanh(0.5 x) + 0.5, which cannot overflow; with scale 1 and
    offset 0 it is tanh.
    """
    np.tanh(a, out=a)
    a *= scale
    a += offset


@dataclass
class ForwardTrace:
    """Activations retained for backpropagation through time, time-major but for `inputs`."""

    inputs: np.ndarray  # (B, M, D) as given to `forward`
    preds: np.ndarray  # (*lead, B, T_out)
    states: np.ndarray  # (M+1, *lead, B, H) hidden state; states[0] = 0 enters step 0
    gates: np.ndarray  # (M, *lead, B, G*H) activated gates
    cells: np.ndarray | None = None  # LSTM (M+1, *lead, B, H) cell state; cells[0] = 0
    tanh_c: np.ndarray | None = None  # LSTM (M, *lead, B, H) tanh of cells[1:]
    hh_n: np.ndarray | None = None  # GRU (M, *lead, B, H) h_prev @ W_hn, for the reset gate

    @property
    def h_prev(self) -> np.ndarray:
        """(M, *lead, B, H) hidden state entering each step."""
        return self.states[:-1]


def _as_batch(inputs: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != d or x.shape[1] < 1:
        raise ShapeMismatch(f"inputs {x.shape} incompatible with input size {d}")
    return x


def forward(params: ModelParameters, inputs: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Run (B, M, D) windows through the cell; returns predictions (*lead, B, T_out) and the trace."""
    x = _as_batch(inputs, params.input_size)
    bsz, m, d = x.shape
    lead = params.flat.shape[:-1]  # () for one model
    cell, hs = params.cell, params.hidden_size
    ns = SIGMOID_BLOCKS[cell] * hs
    # Halving the sigmoid columns of the weights is exact in binary floating
    # point, so the halved pre-activations equal 0.5 * (x W_x + h' W_h + b).
    scale = np.ones(GATE_BLOCKS[cell] * hs)
    scale[:ns] = 0.5
    xt = x.transpose(1, 0, 2).reshape(m * bsz, d)  # time-major rows
    gates = (xt @ (params.w_x * scale)).reshape(*lead, m, bsz, -1)
    gates = np.ascontiguousarray(np.moveaxis(gates, len(lead), 0))  # copies a stack only
    gates += (params.b * scale)[..., None, :]  # biases broadcast over B
    w_h = params.w_h * scale
    states = np.zeros((m + 1, *lead, bsz, hs))

    if cell == "lstm":
        offset = 1.0 - scale
        cells = np.zeros((m + 1, *lead, bsz, hs))
        tanh_c = np.empty((m, *lead, bsz, hs))
        for t in range(m):
            a = gates[t]
            a += states[t] @ w_h
            _activate(a, scale, offset)
            i, f, o, g = a[..., :hs], a[..., hs : 2 * hs], a[..., 2 * hs : ns], a[..., ns:]
            np.multiply(f, cells[t], out=cells[t + 1])
            cells[t + 1] += i * g
            np.tanh(cells[t + 1], out=tanh_c[t])
            np.multiply(o, tanh_c[t], out=states[t + 1])
        extra = {"cells": cells, "tanh_c": tanh_c}
    else:
        hh = np.empty(gates.shape)  # time-major h_prev @ W_h per step, r and z columns halved
        for t in range(m):
            a = gates[t]
            np.matmul(states[t], w_h, out=hh[t])
            a[..., :ns] += hh[t][..., :ns]
            _activate(a[..., :ns], 0.5, 0.5)
            r, z, n = a[..., :hs], a[..., hs:ns], a[..., ns:]
            n += r * hh[t][..., ns:]
            np.tanh(n, out=n)
            np.multiply(z, states[t], out=states[t + 1])
            states[t + 1] += (1.0 - z) * n
        extra = {"hh_n": hh[..., ns:]}
    preds = states[m] @ params.w_out + params.b_out[..., None, :]
    return preds, ForwardTrace(x, preds, states, gates, **extra)


def backward(params: ModelParameters, trace: ForwardTrace, targets: np.ndarray) -> np.ndarray:
    """Exact gradient of mean((pred - target)^2) over the batch, as a (P,)
    vector laid out like `params.flat`.

    The trace must come from `forward` on the same parameters, one model,
    and `targets` must have the (B, T_out) shape of its predictions.
    """
    if params.flat.ndim != 1:
        raise ShapeMismatch(f"backward takes one model, got a stack of {params.flat.shape[:-1]}")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != trace.preds.shape:
        raise ShapeMismatch(f"targets {targets.shape} vs predictions {trace.preds.shape}")

    gates = trace.gates
    m, bsz, gh = gates.shape
    cell, hs = params.cell, params.hidden_size
    ns = SIGMOID_BLOCKS[cell] * hs
    d_pred = 2.0 * (trace.preds - targets) / targets.size  # (B, T_out)

    grad = np.empty_like(params.flat)
    grad_of = params.views(grad)  # each GEMM or sum below writes into its slice
    np.matmul(trace.states[-1].T, d_pred, out=grad_of["w_out"])
    d_pred.sum(axis=0, out=grad_of["b_out"])
    dh = d_pred @ params.w_out.T  # (B, H)
    w_h_t = params.w_h.T
    da = np.empty_like(gates)  # pre-activation gradients

    if cell == "lstm":
        # Activation derivatives from the outputs in one whole-row pass per step:
        # (sel - a) * a + (1 - sel) is s (1 - s) on the sigmoid columns, 1 - g^2 on g.
        sel = np.zeros(gh)
        sel[:ns] = 1.0
        unsel = 1.0 - sel
        dc = np.zeros((bsz, hs))
        for t in range(m - 1, -1, -1):
            a = gates[t]
            i, f, o, g = a[:, :hs], a[:, hs : 2 * hs], a[:, 2 * hs : ns], a[:, ns:]
            tc = trace.tanh_c[t]
            d = da[t]
            np.multiply(dh, tc, out=d[:, 2 * hs : ns])
            dc += dh * o * (1.0 - tc * tc)
            np.multiply(dc, g, out=d[:, :hs])
            np.multiply(dc, trace.cells[t], out=d[:, hs : 2 * hs])
            np.multiply(dc, i, out=d[:, ns:])
            dv = sel - a
            dv *= a
            dv += unsel
            d *= dv
            dh = d @ w_h_t
            dc *= f
    else:
        # da[t] first holds the gradient at the recurrent pre-activations h' W_h:
        # r and z see them directly, n through the reset gate (da_n * r).
        da_n = np.empty((m, bsz, hs))
        for t in range(m - 1, -1, -1):
            sig, n = gates[t, :, :ns], gates[t, :, ns:]
            r, z = sig[:, :hs], sig[:, hs:]
            d = da[t]
            np.multiply(dh, trace.states[t] - n, out=d[:, hs:ns])
            np.multiply(dh * (1.0 - z), 1.0 - n * n, out=da_n[t])
            np.multiply(da_n[t], trace.hh_n[t], out=d[:, :hs])
            d[:, :ns] *= sig * (1.0 - sig)
            np.multiply(da_n[t], r, out=d[:, ns:])
            dh = dh * z + d @ w_h_t

    da_flat = da.reshape(m * bsz, gh)
    np.matmul(trace.h_prev.reshape(m * bsz, hs).T, da_flat, out=grad_of["w_h"])
    if cell == "gru":
        da[..., ns:] = da_n  # W_x and b see n's pre-activation without the reset gate
    np.matmul(trace.inputs.transpose(1, 0, 2).reshape(m * bsz, -1).T, da_flat, out=grad_of["w_x"])
    da_flat.sum(axis=0, out=grad_of["b"])
    return grad
