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
generator drives every draw, in this order and these sizes (V vehicles,
C calls): `poisson(flows)` (skipped with `exact_flow`), `uniform(0, delta, V)`
entry offsets, `random(V)` handover flags (only if h > 0), `poisson(lam *
dwell, V)` calls per vehicle (only if lam > 0), then `uniform(0, 1, C)`
positions of each call within its vehicle's dwell. Vehicles are stored
interval by interval, so per-vehicle values are `np.repeat`s of per-interval
ones. The per-call stage runs in chunks of whole intervals holding about
`CHUNK_CALLS` calls each, drawing that chunk's part of the last uniform
stream, which bounds the memory held per call without changing any draw.

A call at instant t is binned on the series' 300-s grid (every timestamp
lies on the grid of the first): k = floor((t - t0) / 300), lowered by one
where an exact comparison puts t before grid point k, names the last
interval i at or before that point, and the call counts there if
t < timestamps[i] + delta. This is the rule `searchsorted(timestamps, t,
"right") - 1`, clipped to the series, then `timestamps[i] <= t <
timestamps[i] + delta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ConfigError, ShapeMismatch
from .road import SLOT_SECONDS, RoadSeries

DWELL_CAP_MIN = 60.0
SPEED_FLOOR_MPH = 5.0
CHUNK_CALLS = 1 << 20  # calls drawn and binned per chunk of whole intervals
MAX_LAM = 1000.0  # requests per minute per vehicle; the paper's rates are 0.2 and 0.6


@dataclass(frozen=True)
class ScenarioConfig:
    """Stochastic-model and cell parameters for one scenario.

    `lam` lies in [0, MAX_LAM]: a thousand requests per minute per vehicle,
    over a thousand times the paper's rates, keeps each vehicle's Poisson
    mean (lam times a dwell of at most 60 min) far inside what numpy draws.
    """

    lam: float  # new service requests per minute per vehicle
    handover_prob: float
    cell_range_miles: float
    delta_s: int = 300
    seed: int = 0
    exact_flow: bool = False

    def __post_init__(self):
        # Written so that NaN fails every float check, and inf every open bound.
        if not 0.0 <= self.lam <= MAX_LAM:
            raise ConfigError(f"lam must be in [0, {MAX_LAM:g}], got {self.lam}")
        if not 0.0 <= self.handover_prob <= 1.0:
            raise ConfigError(f"handover_prob {self.handover_prob} outside [0, 1]")
        if not 0.0 < self.cell_range_miles < math.inf:
            raise ConfigError(f"cell_range_miles must be finite and > 0, got {self.cell_range_miles}")
        if self.delta_s <= 0:
            raise ConfigError(f"delta_s {self.delta_s} <= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CallSeries:
    """Counts aligned 1:1 with the source road series, plus simulation tallies."""

    counts: np.ndarray  # int64, one per interval
    vehicles_total: int = 0
    zero_speed_intervals: int = 0  # intervals with speed == 0 and flow > 0 (5 mph floor applied)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ShapeMismatch("counts must be one-dimensional")
        if (counts < 0).any():
            raise BoundsError("call counts must be non-negative")
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
    dwell = float(dwell_minutes(speed, config.cell_range_miles))
    return flow * (config.handover_prob + config.lam * dwell)


def _starts(sizes: np.ndarray) -> np.ndarray:
    """[0, s0, s0 + s1, ...]: where each of consecutive blocks of these sizes starts, then the end."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def _interval_sums(values: np.ndarray, vehicles: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per interval, the sum of `values` over its vehicles `first[i]:first[i + 1]`."""
    sums = np.zeros(len(vehicles), dtype=np.int64)
    occupied = vehicles > 0
    sums[occupied] = np.add.reduceat(values, first[:-1][occupied], dtype=np.int64)
    return sums


class _SlotGrid:
    """Exact interval lookup for instants on a series whose timestamps share one 300-s grid.

    Arrays are indexed by grid point + 1 over the points -1 .. K+1, where K
    is the last timestamp's point: `point` is the point's instant, `owner`
    the last interval at or before it and `end` that interval's end
    (timestamp + delta; -inf at point -1, so nothing is counted there).
    """

    def __init__(self, timestamps: np.ndarray, delta: float):
        self.base = float(timestamps[0] - SLOT_SECONDS)
        self.top = (int(timestamps[-1]) - int(timestamps[0])) // SLOT_SECONDS + 2
        points = timestamps[0] + SLOT_SECONDS * np.arange(-1, self.top)
        self.point = points.astype(np.float64)
        self.owner = np.maximum(np.searchsorted(timestamps, points, side="right") - 1, 0)
        self.end = timestamps[self.owner] + delta
        self.end[0] = -np.inf

    def slots(self, instants: np.ndarray) -> np.ndarray:
        """Index of the grid point at or before each instant, 0 where no interval covers it.

        The rule is `searchsorted(timestamps, t, "right") - 1` clipped to the
        series, then kept only if `timestamps[i] <= t < timestamps[i] + delta`.
        """
        # Grid offsets are exact integers and rounding is monotone, so the
        # quotient is never below the true point; next to a point it can be
        # one above, which one exact comparison with that point undoes.
        x = (instants - self.base) / SLOT_SECONDS
        np.clip(x, 1.0, self.top, out=x)
        k = x.astype(np.intp)
        k -= instants < self.point[k]
        k *= instants < self.end[k]
        return k


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

    vehicles = flows.copy() if config.exact_flow else rng.poisson(flows)
    total_vehicles = int(vehicles.sum())
    if total_vehicles == 0:
        return CallSeries(counts, 0, zero_speed)
    first = _starts(vehicles)  # interval i holds vehicles first[i]:first[i + 1]
    entry_offset = rng.uniform(0.0, delta, total_vehicles)

    if config.handover_prob > 0:
        handed = rng.random(total_vehicles) < config.handover_prob
        counts += _interval_sums(handed, vehicles, first)

    if config.lam > 0:
        per_vehicle = rng.poisson(np.repeat(config.lam * dwell_min, vehicles))
        per_interval = _interval_sums(per_vehicle, vehicles, first)
        calls_before = _starts(per_interval)
        total_calls = int(calls_before[-1])
        if total_calls:
            grid = _SlotGrid(timestamps, delta)
            hits = np.zeros(len(grid.point), dtype=np.int64)
            entry_ts = timestamps.astype(np.float64)
            dwell_s = dwell_min * 60.0
            # Chunks of whole intervals with about CHUNK_CALLS calls each; the
            # per-call uniforms are drawn chunk by chunk, which is the same stream.
            cuts = np.searchsorted(calls_before, np.arange(CHUNK_CALLS, total_calls, CHUNK_CALLS))
            edges = np.unique(np.concatenate(([0], cuts, [n])))
            for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
                calls = per_interval[a:b]
                own = slice(first[a], first[b])  # the chunk's vehicles
                call_abs = np.repeat(entry_ts[a:b], calls) + np.repeat(
                    entry_offset[own], per_vehicle[own]
                )
                call_abs += rng.uniform(0.0, 1.0, len(call_abs)) * np.repeat(dwell_s[a:b], calls)
                hits += np.bincount(grid.slots(call_abs), minlength=len(hits))
            np.add.at(counts, grid.owner[1:], hits[1:])

    return CallSeries(counts, total_vehicles, zero_speed)
