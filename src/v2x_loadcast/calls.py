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
C calls): `poisson(flows)` (skipped with `exact_flow`), `uniform(0, 300, V)`
entry offsets, `random(V)` handover flags (only if h > 0), `poisson(lam *
dwell, V)` calls per vehicle (a mean of 0 draws nothing), then
`uniform(0, 1, C)` positions of each call within its vehicle's dwell.
Vehicles are stored interval by interval, so per-vehicle values are
`np.repeat`s of per-interval ones.

The generator is PCG64, and each `uniform` or `random` value is one 64-bit
output. So after `poisson(flows)` every stream position is known except
inside the Poisson draws, whose length varies: the V entry offsets start at
0, the V handover flags at V, the Poisson draws at V (or 2V when h > 0) and
the per-call uniforms where the Poisson draws stop. The calls per vehicle
come first, from a copy of the generator advanced (`advance`, which is
exact) to where the Poisson draws begin, and the handover flags from a copy
advanced by V. Then, chunk by chunk, the generator itself draws the
vehicles' entry offsets and the copy goes on to draw the uniforms of their
calls, which are binned into the slots from the chunk's first interval's
on. The draws stay the same, and all of it runs on the calling thread.

Handover flags and Poisson draws run in blocks of whole intervals holding
about `CHUNK_CALLS` vehicles. The per-call stage runs in chunks of
consecutive vehicles holding about `CHUNK_CALLS` calls and vehicles
together, cut at the first vehicle boundary at or past each multiple of
`CHUNK_CALLS`, so a busy interval is split between chunks. A chunk holds at
most one vehicle's calls (under 2^16) more than `CHUNK_CALLS`, whatever the
rate, the cell or the road, and consecutive slices of one draw are that
draw, so this bounds the work arrays without changing any value. A call's
instant is its vehicle's offset, repeated onto the call, plus its
interval's timestamp, plus its position times the dwell; one scratch array
per chunk holds the positions, then the slot arithmetic. What grows with the
road is what is held across the stages: per interval a few counts and, per
vehicle, its call count in the narrowest unsigned type that holds every
draw: one byte when no vehicle's mean exceeds 64 calls (the paper's rates
reach 12), else two.

The work grows with the calls drawn, so before any draw `check_call_budget`
sums the closed-form mean `expected_calls` over the road and refuses, with
one `ConfigError`, a scenario that expects more than `CALL_BUDGET` calls.

A call at instant t is binned on the series' 300-s grid (every timestamp
lies on the grid of the first, t0): its slot is k = floor((t - t0) / 300),
capped at the slot just past the last interval, and it counts in the
interval whose timestamp is t0 + 300 k, if there is one. Slots inside a day
gap and the one past the end name no interval, so calls there are dropped.
This is the rule `searchsorted(timestamps, t, "right") - 1`, clipped to the
series, then `timestamps[i] <= t < timestamps[i] + 300`. Every instant is
at or after t0: an entry lies at or after its interval's start, and a call
at or after its vehicle's entry.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import BoundsError, ConfigError, ShapeMismatch
from .road import SLOT_SECONDS, RoadSeries

DWELL_CAP_MIN = 60.0
SPEED_FLOOR_MPH = 5.0
# Vehicles per block, or calls and vehicles per chunk, drawn at once. One chunk
# is live at a time, so 2^16 holds what two threads' live chunks of 2^15 held.
CHUNK_CALLS = 1 << 16
MAX_LAM = 1000.0  # requests per minute per vehicle; the paper's rates are 0.2 and 0.6
CALL_BUDGET = 2e9  # expected calls per simulation: about 25 s at the 8e7 calls/s of one core of a 2-core host


@dataclass(frozen=True)
class ScenarioConfig:
    """Stochastic-model and cell parameters for one scenario.

    Calls are counted in the road's own 5-minute intervals (`SLOT_SECONDS`),
    so the interval length is not a parameter. `lam` lies in [0, MAX_LAM]: a
    thousand requests per minute per vehicle, over a thousand times the
    paper's rates, keeps each vehicle's Poisson mean (lam times a dwell of at
    most 60 min) far inside what numpy draws. `seed` and `exact_flow` are
    keyword-only.
    """

    lam: float  # new service requests per minute per vehicle
    handover_prob: float
    cell_range_miles: float
    _: KW_ONLY
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


def expected_calls(flow, speed, config: ScenarioConfig):
    """Closed-form mean count per interval: F * (h + lam * dwell), elementwise over arrays.

    Serves as the statistical oracle for `simulate_calls`; applies the same
    5 mph speed floor and 60 min dwell cap as the simulator.
    """
    dwell = dwell_minutes(speed, config.cell_range_miles)
    return flow * (config.handover_prob + config.lam * dwell)


def check_call_budget(series: RoadSeries, config: ScenarioConfig) -> None:
    """Raise ConfigError if `config` expects more than CALL_BUDGET calls on `series`."""
    expected = float(expected_calls(series.flows, series.speeds, config).sum())
    if not expected <= CALL_BUDGET:
        raise ConfigError(
            f"the scenario expects {expected:.3g} calls on this road, past the budget of {CALL_BUDGET:.0e}"
        )


def _starts(sizes: np.ndarray) -> np.ndarray:
    """[0, s0, s0 + s1, ...]: where each of consecutive blocks of these sizes starts, then the end."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def _interval_sums(values: np.ndarray, vehicles: np.ndarray, first: np.ndarray, a: int, b: int):
    """Per interval of `a:b`, the sum over its own vehicles of `values`, one per vehicle of `a:b`."""
    sums = np.zeros(b - a, dtype=np.int64)
    occupied = vehicles[a:b] > 0
    sums[occupied] = np.add.reduceat(values, (first[a:b] - first[a])[occupied], dtype=np.int64)
    return sums


class _SlotGrid:
    """Exact slot lookup for instants on a series whose timestamps share one 300-s grid.

    Slot k starts at `t0 + 300 k`; `interval_slot` is each interval's slot
    and `top` the slot just past the last interval.
    """

    def __init__(self, timestamps: np.ndarray):
        self.t0 = int(timestamps[0])
        self.interval_slot = (timestamps - self.t0) // SLOT_SECONDS
        self.top = int(self.interval_slot[-1]) + 1

    def slots(self, instants: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The slot of each instant, capped at `top`; every instant must be >= t0.

        `work` is a float array as long as `instants`, which this overwrites.
        """
        # Slot starts are exact integers and rounding is monotone, so the
        # quotient is never below the true slot; next to a slot start it can
        # be one above, which one exact comparison with that start undoes.
        x = np.subtract(instants, self.t0, out=work)
        x /= SLOT_SECONDS
        np.minimum(x, self.top, out=x)
        k = x.astype(np.intp)
        np.multiply(k, SLOT_SECONDS, out=x)
        x += self.t0  # each slot's start, exact: every one is an integer below 2^53
        k -= instants < x
        return k


def _jumped(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A new generator whose stream is `rng`'s from `draws` 64-bit outputs on; `rng` is untouched."""
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = rng.bit_generator.state
    bit_generator.advance(draws)
    return np.random.Generator(bit_generator)


def _blocks(before: np.ndarray) -> list[tuple[int, int]]:
    """Runs `a:b` of whole intervals holding about CHUNK_CALLS items each, in order.

    `before` is `_starts` of the per-interval item counts.
    """
    cuts = np.searchsorted(before, np.arange(CHUNK_CALLS, before[-1], CHUNK_CALLS))
    edges = np.unique(np.concatenate(([0], cuts, [len(before) - 1]))).tolist()
    return list(zip(edges[:-1], edges[1:]))


def _chunks(first, calls_before, per_vehicle) -> tuple[np.ndarray, np.ndarray]:
    """Chunks of consecutive vehicles holding about CHUNK_CALLS calls and vehicles each, in order.

    Returns the vehicles and the calls before each cut, from 0 to the totals:
    chunk k holds vehicles `v[k]:v[k + 1]` and their calls `c[k]:c[k + 1]`. A
    cut falls at the first vehicle boundary at or past each multiple of
    CHUNK_CALLS items, inside an interval or at its end, so a chunk holds at
    most one vehicle's calls more than CHUNK_CALLS. Only the per-vehicle
    counts of the intervals that hold a cut are summed.
    """
    before = first + calls_before  # items (vehicles and calls) before each interval
    targets = np.arange(CHUNK_CALLS, before[-1], CHUNK_CALLS)
    holding = np.searchsorted(before, targets, "right") - 1  # the interval of each target
    intervals, where = np.unique(holding, return_index=True)
    vehicle_cuts, call_cuts = [first[:1]], [calls_before[:1]]
    for i, group in zip(intervals.tolist(), np.split(targets, where[1:])):
        calls = _starts(per_vehicle[first[i] : first[i + 1]])  # before each of its vehicles
        j = np.searchsorted(before[i] + np.arange(len(calls)) + calls, group)
        vehicle_cuts.append(first[i] + j)
        call_cuts.append(calls_before[i] + calls[j])
    vehicle_cuts.append(first[-1:])
    call_cuts.append(calls_before[-1:])
    # Several targets inside one vehicle's calls, or at an interval's end and the next one's start, cut once.
    vehicles, kept = np.unique(np.concatenate(vehicle_cuts), return_index=True)
    return vehicles, np.concatenate(call_cuts)[kept]


def _per_vehicle_calls(rng, means, vehicles, first, blocks, per_vehicle):
    """Fill `per_vehicle` with new calls per vehicle, Poisson with its interval's mean.

    Returns their per-interval sums. A draw past what the unsigned type of
    `per_vehicle` holds raises `BoundsError` instead of wrapping round.
    """
    top = np.iinfo(per_vehicle.dtype).max
    per_interval = np.empty(len(vehicles), dtype=np.int64)
    for a, b in blocks:
        drawn = rng.poisson(np.repeat(means[a:b], vehicles[a:b]))
        if drawn.max(initial=0) > top:
            raise BoundsError(
                f"a vehicle drew {drawn.max()} calls, past the {top} of its {per_vehicle.dtype} count"
            )
        per_vehicle[first[a] : first[b]] = drawn
        per_interval[a:b] = _interval_sums(drawn, vehicles, first, a, b)
    return per_interval


def simulate_calls(series: RoadSeries, config: ScenarioConfig) -> CallSeries:
    """Draw one realization of the call process over the whole road series."""
    check_call_budget(series, config)
    rng = np.random.default_rng(config.seed)
    flows = series.flows
    speeds = series.speeds
    timestamps = series.timestamps

    zero_speed = int(np.count_nonzero((speeds == 0.0) & (flows > 0)))
    dwell_min = dwell_minutes(speeds, config.cell_range_miles)  # per interval
    counts = np.zeros(len(series), dtype=np.int64)

    vehicles = flows if config.exact_flow else rng.poisson(flows)
    first = _starts(vehicles)  # interval i holds vehicles first[i]:first[i + 1]
    total_vehicles = int(first[-1])
    vehicle_blocks = _blocks(first)
    handover = config.handover_prob > 0

    # The Poisson draws start after the entry offsets and the handover flags.
    after = _jumped(rng, total_vehicles * (2 if handover else 1))
    means = config.lam * dwell_min
    # The narrowest unsigned type that holds every draw. A Poisson draw of mean
    # m reaches k > m with probability below exp(-m) (e m / k)^k (Chernoff):
    # under 1e-70 for 256 at m = 64, under 1e-100 for 2^16 at the largest
    # mean, MAX_LAM * DWELL_CAP_MIN = 60 000. `_per_vehicle_calls` checks anyway.
    per_vehicle = np.empty(total_vehicles, dtype=np.uint8 if means.max() <= 64.0 else np.uint16)
    calls_before = _starts(_per_vehicle_calls(after, means, vehicles, first, vehicle_blocks, per_vehicle))
    if handover:  # `rng` stays where the entry offsets begin; the flags follow them
        flags = _jumped(rng, total_vehicles)
        for a, b in vehicle_blocks:
            handed = flags.random(first[b] - first[a]) < config.handover_prob
            counts[a:b] += _interval_sums(handed, vehicles, first, a, b)

    grid = _SlotGrid(timestamps)
    stamps = timestamps.astype(np.float64)
    dwell_s = dwell_min * 60.0
    hits = np.zeros(grid.top + 1, dtype=np.int64)
    v, c = (cuts.tolist() for cuts in _chunks(first, calls_before, per_vehicle))
    # Chunk k's vehicles v[k]:v[k + 1] lie in the intervals a:b.
    starts = (np.searchsorted(first, v[:-1], "right") - 1).tolist()
    ends = np.searchsorted(first, v[1:]).tolist()
    for k, (a, b) in enumerate(zip(starts, ends)):
        calls = np.diff(np.clip(calls_before[a : b + 1], c[k], c[k + 1]))  # the chunk's, per interval
        offsets = rng.uniform(0.0, SLOT_SECONDS, v[k + 1] - v[k])
        instants = np.repeat(offsets, per_vehicle[v[k] : v[k + 1]])
        instants += np.repeat(stamps[a:b], calls)  # each call's vehicle's entry instant
        work = after.uniform(0.0, 1.0, len(instants))
        work *= np.repeat(dwell_s[a:b], calls)
        instants += work
        lo = grid.interval_slot[a]  # no call lies before its chunk's first slot
        slots = grid.slots(instants, work)
        slots -= lo
        span = np.bincount(slots)
        hits[lo : lo + len(span)] += span
    counts += hits[grid.interval_slot]
    return CallSeries(counts, total_vehicles, zero_speed)
