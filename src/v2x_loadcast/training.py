"""Mini-batch training loop with early stopping on validation MAE."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, Diverged, InsufficientData
from .features import WindowSet
from .metrics import loss_mse, metric_mae
from .nn import ModelParameters, backward, forward, init_parameters
from .optim import DEFAULT_DECAY, DEFAULT_EPSILON, DEFAULT_LEARNING_RATE, RMSPropState, rmsprop_step

MAX_HIDDEN_SIZE = 1024  # a 32 MB recurrent weight matrix; the paper uses 32


@dataclass(frozen=True)
class TrainingConfig:
    cell: str = "lstm"  # lstm | gru
    hidden_size: int = 32
    learning_rate: float = DEFAULT_LEARNING_RATE
    rho: float = DEFAULT_DECAY
    epsilon: float = DEFAULT_EPSILON
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 5

    def __post_init__(self):
        # Written so that NaN fails every float check, and inf every open bound.
        checks = [
            (self.cell in ("lstm", "gru"), "cell must be lstm or gru"),
            (1 <= self.hidden_size <= MAX_HIDDEN_SIZE, f"hidden_size must be in [1, {MAX_HIDDEN_SIZE}]"),
            (0 < self.learning_rate < math.inf, "learning_rate must be finite and > 0"),
            (0 <= self.rho < 1, "rho must lie in [0, 1)"),
            (0 < self.epsilon < math.inf, "epsilon must be finite and > 0"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.max_epochs >= 1, "max_epochs must be >= 1"),
            (self.patience >= 1, "patience must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


@dataclass
class TrainingResult:
    params: ModelParameters  # weights at the best validation epoch
    train_losses: list[float] = field(default_factory=list)
    val_maes: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based


EVAL_BATCH = 512  # windows per evaluation forward call
# An epoch whose validation MAE is this many times the MAE of predicting zero
# (about what the untrained network, whose output starts near zero, scores)
# has diverged, even if every number is still finite.
DIVERGED_MAE_RATIO = 1e3


def evaluate_mae(params: ModelParameters, windows: WindowSet) -> float:
    preds = np.concatenate(
        [
            forward(params, windows.inputs(slice(s, s + EVAL_BATCH)))[0]
            for s in range(0, len(windows), EVAL_BATCH)
        ]
    )
    return metric_mae(preds, windows.targets)


@np.errstate(over="ignore", invalid="ignore")  # a diverging run raises Diverged instead
def train_forecaster(
    train: WindowSet,
    val: WindowSet,
    config: TrainingConfig,
    rng: np.random.Generator,
) -> TrainingResult:
    """Train with RMSProp; keep the weights of the best validation epoch.

    An epoch has diverged if its mean training loss or validation MAE is not
    finite, or if its validation MAE exceeds DIVERGED_MAE_RATIO times the mean
    absolute validation target. Such an epoch raises `Diverged` if no epoch
    has yet been kept, and otherwise ends training with the best epoch's
    weights.
    """
    if len(train) == 0 or len(val) == 0:
        raise InsufficientData("training and validation window sets must be non-empty")
    params = init_parameters(
        config.cell, train.input_dim, config.hidden_size, rng, out_size=train.horizon
    )
    state = RMSPropState.for_parameters(
        params, config.learning_rate, config.rho, config.epsilon
    )
    result = TrainingResult(params.copy())
    mae_limit = DIVERGED_MAE_RATIO * float(np.mean(np.abs(val.targets)))
    best_val = np.inf
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train))
        batch_losses = []
        for s in range(0, len(order), config.batch_size):
            idx = order[s : s + config.batch_size]
            preds, trace = forward(params, train.inputs(idx))
            batch_losses.append(loss_mse(preds, train.targets[idx]))
            grads = backward(params, trace, train.targets[idx])
            rmsprop_step(params, grads, state)
        train_loss = float(np.mean(batch_losses))
        result.train_losses.append(train_loss)
        val_mae = evaluate_mae(params, val)
        result.val_maes.append(val_mae)
        if not (np.isfinite(train_loss) and np.isfinite(val_mae) and val_mae <= mae_limit):
            if result.best_epoch == 0:
                over = f" > {mae_limit:.4g}, {DIVERGED_MAE_RATIO:g} times the MAE of predicting zero"
                raise Diverged(
                    f"epoch {epoch}: mean training loss {train_loss}, validation MAE {val_mae}"
                    + (over if val_mae > mae_limit else "")
                )
            break  # a diverged epoch's weights stay so; keep the best epoch's

        if val_mae < best_val:
            best_val = val_mae
            result.params = params.copy()
            result.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return result
