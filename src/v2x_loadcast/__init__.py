"""V2X highway call-trace synthesis and next-interval load forecasting."""

__version__ = "0.1.0"

from .calls import CallSeries, ScenarioConfig, expected_calls, simulate_calls
from .experiment import ExperimentSpec, RunReport, naive_baseline, run_experiment, run_scenario_grid
from .features import NormStats, discretize_speed, fit_normalizer, make_windows
from .gradcheck import grad_check
from .metrics import loss_mse, metric_mae
from .nn import ModelParameters, backward, forward, init_parameters
from .optim import RMSPropState, rmsprop_step
from .road import RoadSeries, correlation_report, parse_road_csv, synthesize_road_series
from .training import TrainingConfig, train_forecaster

__all__ = [
    "CallSeries",
    "ExperimentSpec",
    "ModelParameters",
    "NormStats",
    "RMSPropState",
    "RoadSeries",
    "RunReport",
    "ScenarioConfig",
    "TrainingConfig",
    "backward",
    "correlation_report",
    "discretize_speed",
    "expected_calls",
    "fit_normalizer",
    "forward",
    "grad_check",
    "init_parameters",
    "loss_mse",
    "make_windows",
    "metric_mae",
    "naive_baseline",
    "parse_road_csv",
    "rmsprop_step",
    "run_experiment",
    "run_scenario_grid",
    "simulate_calls",
    "synthesize_road_series",
    "train_forecaster",
]
