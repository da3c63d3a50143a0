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
dwell, V)` calls per vehicle (only if lam > 0), then `uniform(0, 1, C)`
positions of each call within its vehicle's dwell. Vehicles are stored
interval by interval, so per-vehicle values are `np.repeat`s of per-interval
ones.

The generator is PCG64, and each `uniform` or `random` value is one 64-bit
output. So after `poisson(flows)` every stream position is known except
inside the Poisson draws, whose length varies: the V entry offsets start at
0, the V handover flags at V, the Poisson draws at V (or 2V when h > 0) and
the per-call uniforms where the Poisson draws stop. Each part draws from its
own copy of the generator advanced (`advance`, which is exact) to where it
begins, on its own thread, and the draws stay the same. When lam > 0 the
work runs in two stages, each split between the calling thread and one
helper thread from a one-worker pool that is joined before `simulate_calls`
returns:

* vehicles: the helper draws the calls per vehicle, the calling thread the
  handover flags (only if h > 0). The entry offsets are not drawn here.
* calls: the chunks below are split into two contiguous halves (the second
  is empty when there is one chunk). For each chunk a thread draws its
  vehicles' entry offsets, then the uniforms of their calls. The calling
  thread takes the first half, with the entry offsets from the start and the
  uniforms from where the Poisson draws stopped; the helper takes the
  second, from copies advanced by the vehicles and by the calls before its
  first interval. Each half bins into its own per-slot counts, which are
  summed.

Handover flags and Poisson draws run in blocks of whole intervals holding
about `CHUNK_CALLS` vehicles, and the per-call stage in chunks holding about
`CHUNK_CALLS` calls: consecutive slices of one draw are that draw, so this
bounds the work arrays without changing any value. What is held across the
stages per vehicle is its call count, 4 bytes.

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
CHUNK_CALLS = 1 << 16  # calls, or vehicles, drawn per block of whole intervals
MAX_LAM = 1000.0  # requests per minute per vehicle; the paper's rates are 0.2 and 0.6


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

    def slots(self, instants: np.ndarray) -> np.ndarray:
        """The slot of each instant, capped at `top`; every instant must be >= t0."""
        # Slot starts are exact integers and rounding is monotone, so the
        # quotient is never below the true slot; next to a slot start it can
        # be one above, which one exact comparison with that start undoes.
        x = (instants - self.t0) / SLOT_SECONDS
        np.minimum(x, self.top, out=x)
        k = x.astype(np.intp)
        k -= instants < self.t0 + SLOT_SECONDS * k
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


def _per_vehicle_calls(rng, means, vehicles, first, blocks, per_vehicle):
    """Fill `per_vehicle` with new calls per vehicle, Poisson with its interval's mean.

    Returns their per-interval sums. The counts are int32: a mean is at most
    MAX_LAM * DWELL_CAP_MIN = 60 000, so a draw that reached 2^31 would lie
    millions of standard deviations above it.
    """
    per_interval = np.empty(len(vehicles), dtype=np.int64)
    for a, b in blocks:
        own = per_vehicle[first[a] : first[b]]
        own[:] = rng.poisson(np.repeat(means[a:b], vehicles[a:b]))
        per_interval[a:b] = _interval_sums(own, vehicles, first, a, b)
    return per_interval


def simulate_calls(series: RoadSeries, config: ScenarioConfig) -> CallSeries:
    """Draw one realization of the call process over the whole road series."""
    rng = np.random.default_rng(config.seed)
    n = len(series)
    flows = series.flows
    speeds = series.speeds
    timestamps = series.timestamps

    zero_speed = int(np.count_nonzero((speeds == 0.0) & (flows > 0)))
    dwell_min = dwell_minutes(speeds, config.cell_range_miles)  # per interval
    counts = np.zeros(n, dtype=np.int64)

    vehicles = flows.copy() if config.exact_flow else rng.poisson(flows)
    total_vehicles = int(vehicles.sum())
    if total_vehicles == 0:
        return CallSeries(counts, 0, zero_speed)
    first = _starts(vehicles)  # interval i holds vehicles first[i]:first[i + 1]
    vehicle_blocks = _blocks(first)
    handover = config.handover_prob > 0

    def handovers():
        # `rng` stays where the entry offsets begin; the flags follow them.
        if handover:
            flags = _jumped(rng, total_vehicles)
            for a, b in vehicle_blocks:
                handed = flags.random(first[b] - first[a]) < config.handover_prob
                counts[a:b] += _interval_sums(handed, vehicles, first, a, b)

    if config.lam == 0:
        handovers()
        return CallSeries(counts, total_vehicles, zero_speed)

    # Imported here: at module import it would add ~10 ms, mostly logging, to every CLI start.
    from concurrent.futures.thread import ThreadPoolExecutor

    # The Poisson stage starts after the entry offsets and the handover flags.
    after = _jumped(rng, total_vehicles * (2 if handover else 1))
    # Allocated here, not on the helper: in the helper thread's malloc arena a
    # freed block of this size was often not reused by the next, slightly
    # larger one, so repeated calls paged in a second copy of it.
    per_vehicle = np.empty(total_vehicles, dtype=np.int32)
    # Leaving the block, by a return or an error on either thread, joins the helper.
    with ThreadPoolExecutor(1, thread_name_prefix="simulate_calls") as helper:
        drawn = helper.submit(
            _per_vehicle_calls,
            after, config.lam * dwell_min, vehicles, first, vehicle_blocks, per_vehicle,
        )
        handovers()
        per_interval = drawn.result()
        calls_before = _starts(per_interval)
        if calls_before[-1] == 0:
            return CallSeries(counts, total_vehicles, zero_speed)

        grid = _SlotGrid(timestamps)
        dwell_s = dwell_min * 60.0

        def bin_calls(entries, gen, chunks):
            """Per grid slot, the calls of these chunks' vehicles, each uniform over its dwell.

            `entries` draws the chunks' entry offsets and `gen` their calls' positions.
            """
            hits = np.zeros(grid.top + 1, dtype=np.int64)
            for a, b in chunks:
                entry_abs = np.repeat(timestamps[a:b].astype(np.float64), vehicles[a:b])
                entry_abs += entries.uniform(0.0, SLOT_SECONDS, len(entry_abs))
                call_abs = np.repeat(entry_abs, per_vehicle[first[a] : first[b]])
                dwell = np.repeat(dwell_s[a:b], per_interval[a:b])
                call_abs += gen.uniform(0.0, 1.0, len(call_abs)) * dwell
                hits += np.bincount(grid.slots(call_abs), minlength=len(hits))
            return hits

        chunks = _blocks(calls_before)
        half = (len(chunks) + 1) // 2  # the late half is empty when there is one chunk
        cut = chunks[half - 1][1]  # the late half's first interval
        late = _jumped(rng, int(first[cut])), _jumped(after, int(calls_before[cut]))
        late_hits = helper.submit(bin_calls, *late, chunks[half:])
        hits = bin_calls(rng, after, chunks[:half])
        hits += late_hits.result()
    counts += hits[grid.interval_slot]
    return CallSeries(counts, total_vehicles, zero_speed)
