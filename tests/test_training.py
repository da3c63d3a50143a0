import math
from dataclasses import replace

import numpy as np
import pytest

import unfolded_nn
from v2x_loadcast import nn, training
from v2x_loadcast.errors import ConfigError, Diverged, InsufficientData
from v2x_loadcast.features import WindowSet
from v2x_loadcast.metrics import loss_mse
from v2x_loadcast.nn import forward, init_parameters, backward
from v2x_loadcast.optim import RMSPropState, rmsprop_step
from v2x_loadcast.training import TrainingConfig, evaluate_mae, train_forecaster


def last_value_windows(n, m, seed, horizon=1):
    """Windows over a random sequence whose target is the last input value."""
    rng = np.random.default_rng(seed)
    series = rng.normal(0.0, 1.0, n + m + horizon)
    inputs = np.stack([series[i : i + m] for i in range(n)])[:, :, None]
    targets = inputs[:, -1, :].repeat(horizon, axis=1)
    return WindowSet(inputs, targets)


def test_mse_drops_below_1e3_within_2000_steps():
    # Deterministic identity task at default hyperparameters.
    windows = last_value_windows(1024, 5, seed=42)
    params = init_parameters("lstm", 1, TrainingConfig().hidden_size, np.random.default_rng(0))
    state = RMSPropState.for_parameters(params)
    rng = np.random.default_rng(42)
    reached = None
    for step in range(2000):
        idx = rng.integers(0, len(windows), 32)
        preds, trace = forward(params, windows.inputs[idx])
        grads = backward(params, trace, windows.targets[idx])
        rmsprop_step(params, grads, state)
        if step % 100 == 99:
            full_preds, _ = forward(params, windows.inputs)
            if loss_mse(full_preds, windows.targets) < 1e-3:
                reached = step + 1
                break
    assert reached is not None, "MSE never dropped below 1e-3 in 2000 steps"


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_cells_are_interchangeable_in_the_loop(cell):
    train = last_value_windows(240, 6, seed=1)
    val = last_value_windows(60, 6, seed=2)
    config = TrainingConfig(cell=cell, hidden_size=8, max_epochs=3, patience=2)
    result = train_forecaster(train, val, config, np.random.default_rng(5))
    assert result.epochs_run >= 1
    assert len(result.train_losses) == result.epochs_run
    assert np.isfinite(result.val_maes).all()
    assert result.params.cell == cell


def test_training_is_deterministic_per_seed():
    train = last_value_windows(200, 5, seed=3)
    val = last_value_windows(50, 5, seed=4)
    config = TrainingConfig(hidden_size=6, max_epochs=4, patience=3)
    a = train_forecaster(train, val, config, np.random.default_rng(11))
    b = train_forecaster(train, val, config, np.random.default_rng(11))
    assert a.train_losses == b.train_losses
    assert a.val_maes == b.val_maes
    assert np.array_equal(a.params.w_x, b.params.w_x)


def test_early_stopping_keeps_best_epoch_weights():
    train = last_value_windows(300, 5, seed=6)
    val = last_value_windows(80, 5, seed=7)
    config = TrainingConfig(hidden_size=8, max_epochs=12, patience=2)
    result = train_forecaster(train, val, config, np.random.default_rng(2))
    best = min(result.val_maes)
    assert result.val_maes[result.best_epoch - 1] == best
    assert evaluate_mae(result.params, val) == pytest.approx(best, rel=1e-12)


def test_empty_windows_rejected():
    train = last_value_windows(10, 5, seed=8)
    empty = WindowSet(np.zeros((0, 5, 1)), np.zeros((0, 1)))
    with pytest.raises(InsufficientData):
        train_forecaster(train, empty, TrainingConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_training_bit_identical_to_unfolded_forward(cell, monkeypatch):
    # nn.forward keeps the sigmoid's halving in the weights; the unfolded
    # forward applies it to each pre-activation. Training with either must
    # give the same losses, weights, MAEs and gradients, bit for bit.
    train = last_value_windows(240, 6, seed=1)
    val = last_value_windows(60, 6, seed=2)
    test = last_value_windows(60, 6, seed=9)
    config = TrainingConfig(cell=cell, hidden_size=8, max_epochs=3, patience=3)
    runs = {}
    for kernel in (nn, unfolded_nn):
        for name in ("forward", "predict"):
            monkeypatch.setattr(training, name, getattr(kernel, name))
        result = train_forecaster(train, val, config, np.random.default_rng(5))
        _, trace = kernel.forward(result.params, test.inputs)
        grads = backward(result.params, trace, test.targets)
        runs[kernel] = (result, evaluate_mae(result.params, test), grads)
    (got, got_mae, got_grads), (ref, ref_mae, ref_grads) = runs[nn], runs[unfolded_nn]
    assert got.epochs_run == 3
    assert got.train_losses == ref.train_losses and got.val_maes == ref.val_maes
    assert got_mae == ref_mae
    assert np.array_equal(got.params.flat, ref.params.flat)
    assert np.array_equal(got_grads, ref_grads)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_nan_targets_raise_diverged(cell):
    train = last_value_windows(64, 5, seed=10)
    train = WindowSet(train.inputs, np.full_like(train.targets, np.nan))
    val = last_value_windows(16, 5, seed=11)
    config = TrainingConfig(cell=cell, hidden_size=4, max_epochs=3)
    with pytest.raises(Diverged, match="epoch 1: mean training loss nan, "):
        train_forecaster(train, val, config, np.random.default_rng(0))


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_huge_learning_rate_raises_diverged(cell):
    train = last_value_windows(240, 6, seed=1)
    val = last_value_windows(60, 6, seed=2)
    config = TrainingConfig(cell=cell, hidden_size=8, max_epochs=3, learning_rate=1e200)
    with pytest.raises(Diverged, match=r"epoch 1: mean training loss (nan|inf), "):
        train_forecaster(train, val, config, np.random.default_rng(5))


def test_nan_validation_targets_raise_diverged():
    train = last_value_windows(64, 5, seed=12)
    val = last_value_windows(16, 5, seed=13)
    val = WindowSet(val.inputs, np.full_like(val.targets, np.nan))
    message = r"epoch 1: mean training loss [0-9.e+-]+, validation MAE nan$"
    with pytest.raises(Diverged, match=message):
        train_forecaster(train, val, TrainingConfig(hidden_size=4), np.random.default_rng(0))


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_late_divergence_keeps_best_epoch(cell, monkeypatch):
    train = last_value_windows(240, 6, seed=1)
    val = last_value_windows(60, 6, seed=2)
    config = TrainingConfig(cell=cell, hidden_size=8, max_epochs=6, patience=3)
    first = train_forecaster(train, val, replace(config, max_epochs=1), np.random.default_rng(5))
    evaluate = training.evaluate_mae

    def evaluate_then_poison(params, windows):
        train.targets[:] = np.nan  # every later epoch trains on NaN targets
        return evaluate(params, windows)

    monkeypatch.setattr(training, "evaluate_mae", evaluate_then_poison)
    result = train_forecaster(train, val, config, np.random.default_rng(5))
    assert result.best_epoch == 1 and result.epochs_run == 2
    assert np.isnan(result.train_losses[1]) and np.isnan(result.val_maes[1])
    assert result.val_maes[0] == first.val_maes[0]
    assert np.array_equal(result.params.flat, first.params.flat)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_finite_blow_up_raises_diverged(cell):
    # A step this large leaves every number finite but about 1e100 too big.
    train = last_value_windows(240, 6, seed=1)
    val = last_value_windows(60, 6, seed=2)
    config = TrainingConfig(cell=cell, hidden_size=8, max_epochs=3, learning_rate=1e100)
    limit = training.DIVERGED_MAE_RATIO * np.mean(np.abs(val.targets))
    message = r"epoch 1: .* > [0-9.]+, 1000 times the MAE of predicting zero$"
    with pytest.raises(Diverged, match=message) as caught:
        train_forecaster(train, val, config, np.random.default_rng(5))
    mae = float(str(caught.value).split("validation MAE ")[1].split(" ")[0])
    assert limit < mae < np.inf


def test_late_finite_blow_up_keeps_best_epoch(monkeypatch):
    train = last_value_windows(240, 6, seed=1)
    val = last_value_windows(60, 6, seed=2)
    config = TrainingConfig(hidden_size=8, max_epochs=6, patience=3)
    first = train_forecaster(train, val, replace(config, max_epochs=1), np.random.default_rng(5))
    limit = training.DIVERGED_MAE_RATIO * np.mean(np.abs(val.targets))
    maes = iter([first.val_maes[0], 1.01 * limit])
    monkeypatch.setattr(training, "evaluate_mae", lambda params, windows: next(maes))
    result = train_forecaster(train, val, config, np.random.default_rng(5))
    assert result.best_epoch == 1 and result.epochs_run == 2
    assert np.array_equal(result.params.flat, first.params.flat)


@pytest.mark.parametrize("field, value", [
    ("cell", "rnn"),
    ("hidden_size", 0),
    ("learning_rate", 0.0),
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("rho", 1.0),
    ("rho", -0.1),
    ("rho", math.nan),
    ("epsilon", 0.0),
    ("epsilon", math.nan),
    ("epsilon", math.inf),
    ("batch_size", 0),
    ("max_epochs", 0),
    ("patience", 0),
])
def test_bad_training_config_is_config_error(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainingConfig(**{field: value})
