"""Per-interval cellular call counts generated from a road series.

Generative model, per 5-minute interval with measured flow F and average
speed s:

* vehicle entries form a homogeneous Poisson process of rate F per interval
  (realized as a Poisson count with entry instants uniform over the
  interval, which is the same process); `exact_flow` places exactly F
  entries instead;
* with probability h a vehicle enters mid-call and that handed-over call is
  counted at its entry instant;
* while inside the cell each vehicle generates new requests as a Poisson
  process of rate `lam` per minute over its dwell time
  `cell range / entry-interval speed` (speeds below 5 mph are raised to the
  floor, dwell is capped at 60 min);
* every call is counted in the interval containing its instant; dwell may
  spill across intervals, and calls falling outside the recorded series
  (past its end or inside a day gap) are dropped.

The whole simulation is a pure function of (series, config): one seeded
generator drives every draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ZeroSpeedInterval
from .road import RoadSeries

DWELL_CAP_MIN = 60.0
SPEED_FLOOR_MPH = 5.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Stochastic-model and cell parameters for one scenario."""

    lam: float  # new service requests per minute per vehicle
    handover_prob: float
    cell_range_miles: float
    delta_s: int = 300
    seed: int = 0
    exact_flow: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError(f"lam {self.lam} < 0")
        if not 0.0 <= self.handover_prob <= 1.0:
            raise ConfigError(f"handover_prob {self.handover_prob} outside [0, 1]")
        if self.cell_range_miles <= 0:
            raise ConfigError(f"cell_range_miles {self.cell_range_miles} <= 0")
        if self.delta_s <= 0:
            raise ConfigError(f"delta_s {self.delta_s} <= 0")


@dataclass(frozen=True)
class CallSeries:
    """Counts aligned 1:1 with the source road series, plus simulation tallies."""

    counts: np.ndarray  # int64, one per interval
    vehicles_total: int = 0
    zero_speed_intervals: int = 0  # intervals with speed == 0 and flow > 0 (5 mph floor applied)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if (counts < 0).any():
            raise ValueError("call counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)


def dwell_minutes(speed_mph: float | np.ndarray, cell_range_miles: float):
    """Dwell time in minutes at the given entry speed (5 mph floor, 60 min cap)."""
    floored = np.maximum(speed_mph, SPEED_FLOOR_MPH)
    return np.minimum(DWELL_CAP_MIN, cell_range_miles / floored * 60.0)


def expected_calls(flow: float, speed: float, config: ScenarioConfig) -> float:
    """Closed-form mean count for one interval: F * (h + lam * dwell).

    Serves as the statistical oracle for `simulate_calls`; applies the same
    5 mph speed floor and 60 min dwell cap as the simulator.
    """
    if flow == 0:
        return 0.0
    if speed <= 0:
        raise ZeroSpeedInterval(f"speed {speed} <= 0 with flow {flow} > 0: dwell undefined")
    dwell = float(dwell_minutes(speed, config.cell_range_miles))
    return flow * (config.handover_prob + config.lam * dwell)


def simulate_calls(series: RoadSeries, config: ScenarioConfig) -> CallSeries:
    """Draw one realization of the call process over the whole road series."""
    rng = np.random.default_rng(config.seed)
    n = len(series)
    flows = series.flows
    speeds = series.speeds
    timestamps = series.timestamps
    delta = float(config.delta_s)

    zero_speed = int(np.count_nonzero((speeds == 0.0) & (flows > 0)))
    dwell_min = dwell_minutes(speeds, config.cell_range_miles)  # per interval
    counts = np.zeros(n, dtype=np.int64)

    if config.exact_flow:
        vehicles = flows.copy()
    else:
        vehicles = rng.poisson(flows)
    total_vehicles = int(vehicles.sum())
    if total_vehicles == 0:
        return CallSeries(counts, 0, zero_speed)

    entry_interval = np.repeat(np.arange(n), vehicles)
    entry_offset = rng.uniform(0.0, delta, total_vehicles)

    if config.handover_prob > 0:
        handed = rng.random(total_vehicles) < config.handover_prob
        counts += np.bincount(entry_interval[handed], minlength=n)

    if config.lam > 0:
        per_vehicle = rng.poisson(config.lam * dwell_min[entry_interval])
        total_calls = int(per_vehicle.sum())
        if total_calls:
            src = np.repeat(np.arange(total_vehicles), per_vehicle)
            entry_abs = timestamps[entry_interval] + entry_offset
            dwell_s = dwell_min[entry_interval] * 60.0
            call_abs = entry_abs[src] + rng.uniform(0.0, 1.0, total_calls) * dwell_s[src]
            # Map instants back onto recorded intervals; instants past the end
            # or inside a day gap are not served by this series and drop out.
            idx = np.searchsorted(timestamps, call_abs, side="right") - 1
            idx = np.clip(idx, 0, n - 1)
            inside = (call_abs >= timestamps[idx]) & (call_abs < timestamps[idx] + delta)
            counts += np.bincount(idx[inside], minlength=n)

    return CallSeries(counts, total_vehicles, zero_speed)
