"""Reference numerical gradient: one `forward` per perturbed parameter.

Each element of `params.flat` in turn is moved by +step and by -step, the
MSE of a separate single-model `forward` is taken each time, and the
central difference is their difference over 2 * step. The package computes
the same differences from a stacked forward; it is kept here, not in the
package, as the oracle for that comparison.
"""

from __future__ import annotations

import numpy as np

from v2x_loadcast.metrics import loss_mse
from v2x_loadcast.nn import forward


def reference_numerical_gradients(params, inputs, targets, step: float) -> np.ndarray:
    """Central-difference gradient of the MSE for every element of `params.flat`, as (P,)."""
    flat = params.flat
    num = np.empty_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        up = loss_mse(forward(params, inputs)[0], targets)
        flat[k] = orig - step
        down = loss_mse(forward(params, inputs)[0], targets)
        flat[k] = orig
        num[k] = (up - down) / (2.0 * step)
    return num
