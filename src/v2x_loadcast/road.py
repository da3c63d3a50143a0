"""Road measurement series: parsing, validation, synthesis.

A road series holds 5-minute observations covering whole days of 288 slots
each, as three read-only numpy columns: timestamps, vehicle flows and average
speeds. `RoadSeries` enforces the column types, the sanity bounds and the
slot grid; `parse_road_csv` adds line-numbered checks of each CSV field and
fills the columns directly; `synthesize_road_series` produces a
deterministic stand-in with weekday commute structure (two flow peaks, speed
collapse under congestion) for runs without a real measurement CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    GapError,
    MalformedRow,
    ShapeMismatch,
)

SLOT_SECONDS = 300
POINTS_PER_DAY = 288  # 24 h / 5 min
# Epoch seconds of the first and last slot an ISO timestamp can name; within
# them every slot of a day fits in int64 and renders in error messages.
EPOCH_MIN = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
EPOCH_MAX = int(datetime(9999, 12, 31, 23, 55, tzinfo=timezone.utc).timestamp())
SPEED_MAX_MPH = 120.0
# Vehicles in one 5-minute interval (a bound on each interval, not on a series'
# total): a lane carries about 200 at capacity, so this is about fifty lanes.
FLOW_MAX = 10_000
FLOW_MAX_SYNTH = 600
SPEED_FLOOR_SYNTH = 5.0
SPEED_CEIL_SYNTH = 75.0
MAX_SYNTH_DAYS = 36_525  # a century, about 10^7 intervals

# Monday 2021-03-29 00:00:00 UTC; any 00:00-aligned epoch works.
DEFAULT_START_EPOCH = 1_616_976_000


def _column(values, name: str, dtype) -> np.ndarray:
    """A read-only 1-D `dtype` copy of `values`; integer columns must hold whole numbers.

    A cast to int64 turns 3.7 into 3 and NaN or 1e30 into arbitrary integers
    (with a warning on numpy >= 1.24), so the cast is compared with its input
    and any difference is an error.
    """
    raw = np.asarray(values)
    if raw.ndim != 1:
        raise ShapeMismatch(f"{name} must be 1-D, got shape {raw.shape}")
    if raw.dtype.kind not in "iuf":
        raise MalformedRow(f"{name} must be numeric, got dtype {raw.dtype}")
    with np.errstate(invalid="ignore"):
        col = raw.astype(dtype)
    if dtype is np.int64:
        inexact = col != raw
        if inexact.any():
            k = int(np.argmax(inexact))
            raise MalformedRow(f"{name}[{k}] = {raw[k].item()!r} is not an int64 integer")
    col.flags.writeable = False
    return col


@dataclass(frozen=True, eq=False)
class RoadSeries:
    """Validated, whole-day road series held as three read-only columns.

    `timestamps` are epoch seconds (UTC, int64), `flows` vehicles per
    interval (int64) and `speeds` average mph (float64); the constructor
    stores read-only copies of what it is given. Invariants enforced at
    construction: the columns are 1-D and of one length, a multiple of 288;
    flows are whole numbers in [0, FLOW_MAX] and speeds lie in [0, 120];
    timestamps strictly increase, within each day block of 288 records
    consecutive timestamps differ by exactly 300 s, and every timestamp lies
    on the 300-s grid of the first one. Blocks may be separated by larger
    gaps (skipped weekends in work-day data).
    """

    timestamps: np.ndarray
    flows: np.ndarray
    speeds: np.ndarray

    def __post_init__(self):
        ts = _column(self.timestamps, "timestamps", np.int64)
        flows = _column(self.flows, "flows", np.int64)
        speeds = _column(self.speeds, "speeds", np.float64)
        if not len(ts) == len(flows) == len(speeds):
            raise ShapeMismatch(
                f"column lengths differ: timestamps {len(ts)}, flows {len(flows)}, "
                f"speeds {len(speeds)}"
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "speeds", speeds)
        negative = flows < 0
        if negative.any():
            k = int(np.argmax(negative))
            raise BoundsError(f"flows[{k}] = {flows[k]} < 0 at timestamp {ts[k]}")
        too_many = flows > FLOW_MAX
        if too_many.any():
            k = int(np.argmax(too_many))
            raise BoundsError(f"flows[{k}] = {flows[k]} > {FLOW_MAX} at timestamp {ts[k]}")
        out_of_range = ~((speeds >= 0.0) & (speeds <= SPEED_MAX_MPH))  # NaN included
        if out_of_range.any():
            k = int(np.argmax(out_of_range))
            raise BoundsError(
                f"speeds[{k}] = {speeds[k].item()!r} outside [0, {SPEED_MAX_MPH}] "
                f"at timestamp {ts[k]}"
            )
        n = len(ts)
        if n == 0:
            raise GapError("empty road series")
        if n % POINTS_PER_DAY != 0:
            raise GapError(
                f"series length {n} is not a whole number of {POINTS_PER_DAY}-slot days"
            )
        step = np.diff(ts)
        bad = (step <= 0) | ((step != SLOT_SECONDS) & (np.arange(1, n) % POINTS_PER_DAY != 0))
        if bad.any():
            k = int(np.argmax(bad)) + 1
            if step[k - 1] <= 0:
                raise MalformedRow(f"timestamps not strictly increasing at index {k}")
            raise GapError(
                f"non-{SLOT_SECONDS}s spacing inside a day at timestamp {ts[k]}",
                slot=int(ts[k - 1]) + SLOT_SECONDS,
            )
        off_grid = (ts - ts[0]) % SLOT_SECONDS != 0
        if off_grid.any():
            k = int(np.argmax(off_grid))
            raise GapError(
                f"timestamp {ts[k]} at index {k} is off the {SLOT_SECONDS}s grid of the first "
                f"timestamp {ts[0]}"
            )

    def __reduce__(self):
        # Through the constructor, so an unpickled series is validated and read-only again.
        return type(self), (self.timestamps, self.flows, self.speeds)

    @property
    def days(self) -> int:
        return len(self) // POINTS_PER_DAY

    def __len__(self) -> int:
        return len(self.timestamps)

    def gap_indices(self) -> tuple[int, ...]:
        """Indices i whose record is not 300 s after record i-1 (day-boundary gaps)."""
        dt = np.diff(self.timestamps)
        return tuple(int(i) + 1 for i in np.flatnonzero(dt != SLOT_SECONDS))


def _parse_timestamp(text: str, line: int) -> int:
    text = text.strip()
    try:
        stamp = int(text)
    except ValueError:
        try:
            parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError as exc:
            raise MalformedRow(f"line {line}: bad timestamp {text!r}") from exc
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        stamp = int(parsed.timestamp())
    if not EPOCH_MIN <= stamp <= EPOCH_MAX:
        raise MalformedRow(f"line {line}: timestamp {text!r} is outside the years 1-9999")
    return stamp


def _parse_flow(text: str, line: int) -> int:
    try:
        value = float(text)
    except ValueError as exc:
        raise MalformedRow(f"line {line}: bad flow {text!r}") from exc
    if not value.is_integer():
        raise MalformedRow(f"line {line}: flow {text!r} is not an integer count")
    if value < 0:
        raise BoundsError(f"line {line}: flow {text!r} < 0")
    if value > FLOW_MAX:
        raise BoundsError(f"line {line}: flow {text!r} > {FLOW_MAX}")
    return int(value)


def _parse_speed(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise MalformedRow(f"line {line}: bad speed {text!r}") from exc
    if not math.isfinite(value):
        raise MalformedRow(f"line {line}: non-finite speed {text!r}")
    if value < 0 or value > SPEED_MAX_MPH:
        raise BoundsError(f"line {line}: speed {text!r} outside [0, {SPEED_MAX_MPH}]")
    return value


def _slot_iso(slot: int) -> str:
    # isoformat zero-pads the year, which strftime("%Y") does not do on glibc.
    return datetime.fromtimestamp(slot, tz=timezone.utc).isoformat().replace("+00:00", "Z")


def parse_road_csv(
    path: str,
    column_map: dict[str, str] | None = None,
    impute: str = "none",
) -> RoadSeries:
    """Read a `timestamp,flow,speed` CSV into a validated RoadSeries.

    `column_map` renames the documented columns to those present in the file
    (e.g. {"flow": "Total Flow"}). Timestamps may be epoch seconds or
    ISO-8601 (naive values are taken as UTC). Missing 5-minute slots raise
    GapError unless `impute="hold"`, which repeats the most recent earlier
    record into each missing slot.
    """
    if impute not in ("none", "hold"):
        raise ConfigError(f"unknown impute mode {impute!r}")
    names = {"timestamp": "timestamp", "flow": "flow", "speed": "speed"}
    if column_map:
        unknown = set(column_map) - set(names)
        if unknown:
            raise ConfigError(f"column_map keys must be timestamp/flow/speed, got {sorted(unknown)}")
        names.update(column_map)

    # An undecodable byte becomes U+FFFD, which no parsed field accepts.
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in names.values() if c not in header]
            if missing:
                raise MalformedRow(f"header {header} lacks required column(s) {missing}")
            # A repeated name reads its last column; a short row reads "" past its end.
            column = {name: i for i, name in enumerate(header)}
            t_col, f_col, s_col = (column[names[c]] for c in ("timestamp", "flow", "speed"))
            width = max(t_col, f_col, s_col) + 1
            stamps: list[int] = []
            flows: list[int] = []
            speeds: list[float] = []
            # Rows are numbered from the header on; a blank line is no row.
            for line, row in enumerate(filter(None, reader), start=2):
                if len(row) < width:
                    row += [""] * (width - len(row))
                ts = _parse_timestamp(row[t_col], line)
                if ts % SLOT_SECONDS != 0:
                    raise MalformedRow(
                        f"line {line}: timestamp {ts} not aligned to the {SLOT_SECONDS}s slot grid"
                    )
                stamps.append(ts)
                flows.append(_parse_flow(row[f_col], line))
                speeds.append(_parse_speed(row[s_col], line))
        except csv.Error as exc:  # a field over the csv module's size limit, say
            # The reader's count includes the line that failed, blank lines too.
            raise MalformedRow(f"line {reader.line_num}: {exc}") from None

    if not stamps:
        raise GapError("CSV contains no data rows")
    ts = np.array(stamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    duplicate = np.flatnonzero(np.diff(ts) == 0)
    if duplicate.size:
        raise MalformedRow(f"duplicate timestamp {ts[duplicate[0]]}")

    # Every slot of each day that has a row, and the last row at or before it.
    days = np.unique(ts // 86_400)
    slots = (days[:, None] * 86_400 + np.arange(POINTS_PER_DAY) * SLOT_SECONDS).ravel()
    at = np.searchsorted(ts, slots, side="right") - 1
    gap = at < 0
    if impute == "none":
        gap |= ts[at] != slots
    if gap.any():
        slot = int(slots[np.argmax(gap)])
        raise GapError(f"missing 5-minute slot at {_slot_iso(slot)}", slot=slot)
    rows = order[at]
    return RoadSeries(
        slots, np.array(flows, dtype=np.int64)[rows], np.array(speeds, dtype=np.float64)[rows]
    )


def serialize_road_csv(series: RoadSeries, path: str) -> None:
    """Write the documented `timestamp,flow,speed` CSV (epoch-second timestamps)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "flow", "speed"])
        writer.writerows(
            zip(series.timestamps.tolist(), series.flows.tolist(), map(repr, series.speeds.tolist()))
        )


def _gaussian_bump(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def synthesize_road_series(days: int, seed: int) -> RoadSeries:
    """Deterministic weekday-like series: bimodal flow, congestion speed dips.

    Flow follows a two-peak commute profile with per-day amplitude variation
    and multiplicative slot noise; speed starts near free flow, sags as flow
    approaches capacity, and collapses during randomly injected congestion
    events (preferentially inside the peaks). Flow lands in [0, 600] veh/5min
    and speed in [5, 75] mph; at peak hours the two are negatively correlated.
    """
    if not 1 <= days <= MAX_SYNTH_DAYS:
        raise ConfigError(f"days must be in [1, {MAX_SYNTH_DAYS}], got {days}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    hours = (np.arange(POINTS_PER_DAY) * SLOT_SECONDS / 3600.0) % 24.0
    all_flow = np.empty(days * POINTS_PER_DAY)
    all_speed = np.empty(days * POINTS_PER_DAY)

    # Slow multiplicative demand envelope (AR(1), ~2 h correlation time)
    # carried across days; commute peaks move, rescale and stretch day by day.
    env_phi = 0.96
    env_step = 0.14 * np.sqrt(1.0 - env_phi**2)
    env_state = rng.normal(0.0, 0.14)

    for day in range(days):
        amp_morning = 430.0 * (1.0 + 0.22 * rng.standard_normal())
        amp_evening = 470.0 * (1.0 + 0.22 * rng.standard_normal())
        center_morning = 7.9 + rng.normal(0.0, 0.7)
        center_evening = 17.3 + rng.normal(0.0, 0.7)
        width_morning = 1.1 * rng.uniform(0.85, 1.25)
        width_evening = 1.4 * rng.uniform(0.85, 1.25)
        profile = (
            25.0
            + amp_morning * _gaussian_bump(hours, center_morning, width_morning)
            + amp_evening * _gaussian_bump(hours, center_evening, width_evening)
            + 240.0 * _gaussian_bump(hours, 12.8, 3.6)
        )
        envelope = np.empty(POINTS_PER_DAY)
        for k, step in enumerate(rng.normal(0.0, env_step, POINTS_PER_DAY).tolist()):
            env_state = env_phi * env_state + step
            envelope[k] = env_state
        flow = profile * np.exp(envelope + rng.normal(0.0, 0.015, POINTS_PER_DAY))

        # Free-flow speed minus a congestion sag as flow nears capacity.
        free_flow = 67.0
        sag = 26.0 / (1.0 + np.exp(-(flow - 380.0) / 60.0))
        speed = free_flow - sag + rng.normal(0.0, 1.2, POINTS_PER_DAY)

        # Stop-and-go congestion regimes inside the commute peaks (plus
        # occasional midday incidents): while a regime lasts, jam episodes of
        # light/heavy/severe depth alternate with partial recoveries, so speed
        # keeps crossing discretization levels the way queued traffic does.
        regimes = []
        for (lo, hi), prob, dur_lo, dur_hi in (
            ((6.4, 9.0), 0.97, 50.0, 130.0),
            ((15.3, 18.2), 0.97, 50.0, 130.0),
            ((9.5, 15.0), 0.5, 20.0, 60.0),
        ):
            if rng.random() < prob:
                onset = rng.uniform(lo, hi)
                regimes.append((onset, onset + rng.uniform(dur_lo, dur_hi) / 60.0))
        for onset, end in regimes:
            idx = np.flatnonzero((hours >= onset) & (hours < end))
            k = 0
            jammed = True
            while k < idx.size:
                if jammed:
                    span = int(rng.integers(2, 6))
                    cap = rng.choice([17.5, 22.0, 30.0]) + rng.normal(0.0, 1.5)
                else:
                    span = int(rng.integers(1, 4))
                    cap = rng.uniform(45.0, 60.0)
                sl = idx[k : k + span]
                speed[sl] = np.minimum(
                    speed[sl], cap + rng.normal(0.0, 1.0, sl.size)
                )
                flow[sl] *= rng.uniform(0.78, 0.9) if jammed else rng.uniform(0.9, 1.0)
                jammed = not jammed
                k += span

        sl = slice(day * POINTS_PER_DAY, (day + 1) * POINTS_PER_DAY)
        all_flow[sl] = flow
        all_speed[sl] = speed

    flow_int = np.clip(np.rint(all_flow), 0, FLOW_MAX_SYNTH).astype(np.int64)
    speed_clipped = np.clip(all_speed, SPEED_FLOOR_SYNTH, SPEED_CEIL_SYNTH)
    timestamps = DEFAULT_START_EPOCH + SLOT_SECONDS * np.arange(days * POINTS_PER_DAY, dtype=np.int64)
    return RoadSeries(timestamps, flow_int, speed_clipped)

