"""Finite-difference verification of the analytic BPTT gradients.

Central differences around every single parameter, in double precision:
relative error |a - n| / max(|a|, |n|, floor) must stay below the tolerance
for the check to pass. The denominator floor sits above the roundoff and
truncation noise of f64 central differences (about 1e-10 absolute for O(1)
losses), so parameters whose true gradient vanishes compare as numerical
noise instead of spurious mismatches; any systematically wrong gradient is
orders of magnitude above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import loss_mse
from .nn import ModelParameters, backward, forward, init_parameters

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
REL_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    tolerance: float
    step: float

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"gradcheck {verdict}: max relative error {self.max_rel_error:.3e} "
            f"(tolerance {self.tolerance:.1e}, step {self.step:.1e})"
        )


def _loss(params: ModelParameters, inputs: np.ndarray, targets: np.ndarray) -> float:
    preds, _ = forward(params, inputs)
    return loss_mse(preds, targets)


def numerical_gradients(
    params: ModelParameters,
    inputs: np.ndarray,
    targets: np.ndarray,
    step: float = DEFAULT_STEP,
) -> np.ndarray:
    """Central-difference gradient of the MSE for every element of `params.flat`, as (P,)."""
    flat = params.flat
    num = np.empty_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        up = _loss(params, inputs, targets)
        flat[k] = orig - step
        down = _loss(params, inputs, targets)
        flat[k] = orig
        num[k] = (up - down) / (2.0 * step)
    return num


def grad_check(
    params: ModelParameters,
    inputs: np.ndarray,
    targets: np.ndarray,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GradCheckReport:
    """Compare analytic BPTT gradients against central differences."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    preds, trace = forward(params, inputs)
    analytic = backward(params, trace, targets)
    numeric = numerical_gradients(params, inputs, targets, step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    worst = float(np.max(np.abs(analytic - numeric) / denom))
    return GradCheckReport(worst, worst <= tolerance, tolerance, step)


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
