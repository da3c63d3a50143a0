"""Finite-difference verification of the analytic BPTT gradients.

Central differences around every single parameter, in double precision:
relative error |a - n| / max(|a|, |n|, floor) must stay below the tolerance
for the check to pass. The denominator floor sits above the roundoff and
truncation noise of f64 central differences (about 1e-10 absolute for O(1)
losses), so parameters whose true gradient vanishes compare as numerical
noise instead of spurious mismatches; any systematically wrong gradient is
orders of magnitude above it.

The 2P perturbed copies of the (P,) parameter vector and, as row 2P, the
unperturbed vector go through `forward` as one stacked model axis, so a
tiny model's every central difference, and the trace `backward` takes the
analytic gradient from, come from one call. A large model's 2P + 1 rows run
in blocks sized so that each model's stack row and two (M, B, G*H) gate
buffers (a stack's `forward` holds the input GEMM's result and its
time-major copies at once) fit in `BLOCK_ELEMENTS` float64 elements. No
block's trace outlives it: before its losses are taken, the last block's
is replaced by a copy of its last row, the one-model trace of row 2P that
`numerical_gradients` returns, and every other block's is dropped. The
scaled weights, states and temporaries of `forward` add at most as much
again, so the traced peak stays under twice `BLOCK_ELEMENTS` elements
besides the (2P + 1,) losses (or twice one model's share, where that alone
is larger). Each copy's loss is its own MSE and row 2P's trace is that of
`params` itself, the same numbers a separate `forward` per row gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .nn import GATE_BLOCKS, ForwardTrace, ModelParameters, backward, forward, init_parameters

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
REL_FLOOR = 1e-6
BLOCK_ELEMENTS = 1 << 17  # float64 stack rows plus two gate buffers per model in one forward call


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool


@np.errstate(over="ignore", invalid="ignore")  # a loss that overflows fails grad_check as NaN
def numerical_gradients(
    params: ModelParameters,
    inputs: np.ndarray,
    targets: np.ndarray,
    step: float = DEFAULT_STEP,
) -> tuple[np.ndarray, ForwardTrace]:
    """Central-difference gradient of the MSE for every element of `params.flat`, as (P,),
    and the one-model trace of `params` itself, for `backward`.

    `targets` must have the (B, T_out) shape of one model's predictions.

    Row k of the (2P + 1, P) stack is `flat` with step added to element k,
    row P + k the same with step subtracted, and row 2P `flat` unchanged;
    `forward` runs a block of rows per call and each row's loss is the MSE
    of its predictions.
    """
    targets = np.asarray(targets, dtype=np.float64)
    flat = params.flat
    p = flat.size
    # Each model of a block holds its stack row and, while `forward` copies
    # the input GEMM's result time-major, two (M, B, G*H) gate buffers.
    gates = math.prod(np.shape(inputs)[:-1]) * GATE_BLOCKS[params.cell] * params.hidden_size
    rows = max(1, BLOCK_ELEMENTS // (p + 2 * gates))
    losses = np.empty(2 * p + 1)
    for start in range(0, 2 * p + 1, rows):
        block = np.arange(start, min(start + rows, 2 * p + 1))
        moved = block[block < 2 * p]  # row k perturbs element k % p
        stack = np.repeat(flat[None, :], len(block), axis=0)
        stack[np.arange(len(moved)), moved % p] += np.where(moved < p, step, -step)
        preds, trace = forward(params.with_flat(stack), inputs)
        trace = trace.model(-1) if block[-1] == 2 * p else None  # no block's trace outlives it
        if preds.shape[1:] != targets.shape:
            raise ShapeMismatch(f"predictions {preds.shape[1:]} vs targets {targets.shape}")
        losses[block] = np.mean((targets - preds) ** 2, axis=(-2, -1))
    return (losses[:p] - losses[p : 2 * p]) / (2.0 * step), trace


def grad_check(
    params: ModelParameters,
    inputs: np.ndarray,
    targets: np.ndarray,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GradCheckReport:
    """Compare analytic BPTT gradients against central differences."""
    numeric, trace = numerical_gradients(params, inputs, targets, step)
    analytic = backward(params, trace, targets)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    worst = float(np.max(np.abs(analytic - numeric) / denom))
    return GradCheckReport(worst, worst <= tolerance)


def check_random_model(
    seed: int,
    cell: str = "lstm",
    input_size: int = 3,
    hidden_size: int = 4,
    window: int = 5,
    batch: int = 2,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GradCheckReport:
    """Gradient-check one randomly initialized small model on random data."""
    rng = np.random.default_rng(seed)
    params = init_parameters(cell, input_size, hidden_size, rng)
    inputs = rng.normal(0.0, 1.0, (batch, window, input_size))
    targets = rng.normal(0.0, 1.0, (batch, 1))
    return grad_check(params, inputs, targets, step, tolerance)
