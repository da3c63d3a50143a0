"""RMSProp: divide each gradient by a moving RMS of its recent magnitudes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .nn import ModelParameters

DEFAULT_LEARNING_RATE = 1e-3
DEFAULT_DECAY = 0.9
DEFAULT_EPSILON = 1e-8


@dataclass
class RMSPropState:
    """Squared-gradient accumulators in the layout of `ModelParameters.flat`, plus hyperparameters."""

    acc: np.ndarray  # (P,)
    learning_rate: float
    decay: float
    epsilon: float

    @classmethod
    def for_parameters(
        cls,
        params: ModelParameters,
        learning_rate: float = DEFAULT_LEARNING_RATE,
        decay: float = DEFAULT_DECAY,
        epsilon: float = DEFAULT_EPSILON,
    ) -> "RMSPropState":
        return cls(np.zeros_like(params.flat), learning_rate, decay, epsilon)


def rmsprop_step(params: ModelParameters, grads: np.ndarray, state: RMSPropState) -> None:
    """acc <- rho*acc + (1-rho)*g^2; theta <- theta - lr*g/sqrt(acc + eps).

    `grads` is a (P,) vector laid out like `params.flat`, as `backward`
    returns it. Updates parameters and state in place.
    """
    if grads.shape != params.flat.shape:
        raise ShapeMismatch(f"gradient shape {grads.shape} != parameter shape {params.flat.shape}")
    state.acc *= state.decay
    state.acc += (1.0 - state.decay) * grads * grads
    params.flat -= state.learning_rate * grads / np.sqrt(state.acc + state.epsilon)
