import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import no_thread, steady_series
from reference_calls import reference_simulate_calls
from v2x_loadcast import calls as calls_module
from v2x_loadcast.calls import (
    MAX_LAM,
    CallSeries,
    ScenarioConfig,
    _SlotGrid,
    dwell_minutes,
    expected_calls,
    simulate_calls,
)
from v2x_loadcast.errors import BoundsError, ConfigError
from v2x_loadcast.experiment import table_scenarios
from v2x_loadcast.road import (
    POINTS_PER_DAY,
    SLOT_SECONDS,
    RoadSeries,
    synthesize_road_series,
)

# 35 whole days ~= 10^4 intervals for the statistical checks
DAYS_10K = 35


def mc_mean_check(series, config, expected):
    """Monte Carlo mean vs analytic expectation, three standard errors."""
    counts = simulate_calls(series, config).counts.astype(float)
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - expected) <= 3 * se, (counts.mean(), expected, se)


class TestExpectedCalls:
    def test_pure_handover(self):
        cfg = ScenarioConfig(lam=0.0, handover_prob=1.0, cell_range_miles=1.5)
        assert expected_calls(100, 60.0, cfg) == 100.0

    def test_no_vehicles(self):
        cfg = ScenarioConfig(lam=0.7, handover_prob=1.0, cell_range_miles=1.5)
        assert expected_calls(0, 0.0, cfg) == 0.0

    def test_hand_evaluated_mixed_case(self):
        cfg = ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5)
        # 100 * (0.5 + 0.2 * 1.5) with a 1.5-minute dwell at 60 mph
        assert expected_calls(100, 60.0, cfg) == pytest.approx(80.0, abs=1e-12)

    def test_zero_speed_uses_floor(self):
        # The oracle applies the simulator's 5 mph floor instead of failing.
        cfg = ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5)
        assert expected_calls(10, 0.0, cfg) == expected_calls(10, 5.0, cfg)
        assert expected_calls(10, 0.0, cfg) == pytest.approx(10 * (0.5 + 0.2 * 18.0))

    def test_dwell_cap_and_floor(self):
        assert dwell_minutes(1.0, 100.0) == 60.0  # floored to 5 mph, capped at 60 min
        assert dwell_minutes(30.0, 1.5) == pytest.approx(3.0)

    @settings(max_examples=50, deadline=None)
    @given(
        flow=st.integers(min_value=0, max_value=500),
        speed=st.floats(min_value=1.0, max_value=90.0),
        lam=st.floats(min_value=0.0, max_value=2.0),
        h1=st.floats(min_value=0.0, max_value=1.0),
        h2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_handover_prob(self, flow, speed, lam, h1, h2):
        lo, hi = sorted([h1, h2])
        c_lo = ScenarioConfig(lam=lam, handover_prob=lo, cell_range_miles=1.5)
        c_hi = ScenarioConfig(lam=lam, handover_prob=hi, cell_range_miles=1.5)
        assert expected_calls(flow, speed, c_lo) <= expected_calls(flow, speed, c_hi)


class TestSimulate:
    def test_no_generation_mechanism(self):
        series = steady_series(2, 120, 55.0)
        cfg = ScenarioConfig(lam=0.0, handover_prob=0.0, cell_range_miles=1.5, seed=9)
        assert simulate_calls(series, cfg).counts.sum() == 0

    def test_deterministic(self):
        series = steady_series(2, 80, 50.0)
        cfg = ScenarioConfig(lam=0.3, handover_prob=0.4, cell_range_miles=1.5, seed=21)
        a = simulate_calls(series, cfg)
        b = simulate_calls(series, cfg)
        assert np.array_equal(a.counts, b.counts)
        assert a.vehicles_total == b.vehicles_total

    def test_pure_handover_mean(self):
        series = steady_series(DAYS_10K, 100, 60.0)
        cfg = ScenarioConfig(lam=0.0, handover_prob=1.0, cell_range_miles=1.5, seed=17)
        mc_mean_check(series, cfg, 100.0)

    def test_pure_poisson_mean(self):
        # dwell 1.5 min at 60 mph over 1.5 miles: E = 100 * 0.2 * 1.5 = 30
        series = steady_series(DAYS_10K, 100, 60.0)
        cfg = ScenarioConfig(lam=0.2, handover_prob=0.0, cell_range_miles=1.5, seed=29)
        mc_mean_check(series, cfg, 30.0)

    def test_handover_coupling_monotone(self):
        # Same seed consumes the same draws, so counts are pointwise monotone in h.
        series = steady_series(4, 90, 55.0)
        lo = simulate_calls(
            series, ScenarioConfig(lam=0.2, handover_prob=0.3, cell_range_miles=1.5, seed=5)
        )
        hi = simulate_calls(
            series, ScenarioConfig(lam=0.2, handover_prob=0.8, cell_range_miles=1.5, seed=5)
        )
        assert np.all(hi.counts >= lo.counts)

    def test_full_handover_floors_total_at_vehicle_count(self):
        series = steady_series(DAYS_10K, 100, 60.0)
        cfg = ScenarioConfig(lam=0.2, handover_prob=1.0, cell_range_miles=1.5, seed=3)
        calls = simulate_calls(series, cfg)
        assert calls.vehicles_total > 0
        assert calls.counts.sum() >= 0.99 * calls.vehicles_total

    def test_variance_matches_poisson_mean_for_small_per_vehicle_rate(self):
        # 0.5-minute dwell (0.5 mi at 60 mph), lam 0.1/min: per-vehicle mean 0.05,
        # so the per-interval count is Poisson to within half a percent.
        days = 348  # > 1e5 intervals
        series = steady_series(days, 100, 60.0)
        cfg = ScenarioConfig(lam=0.1, handover_prob=0.0, cell_range_miles=0.5, seed=13)
        counts = simulate_calls(series, cfg).counts.astype(float)
        assert counts.size >= 100_000
        ratio = counts.var() / counts.mean()
        assert abs(ratio - 1.0) < 0.10

    def test_exact_flow_places_measured_vehicles(self):
        series = steady_series(1, 42, 60.0)
        cfg = ScenarioConfig(
            lam=0.0, handover_prob=1.0, cell_range_miles=1.5, seed=1, exact_flow=True
        )
        calls = simulate_calls(series, cfg)
        assert calls.vehicles_total == 42 * POINTS_PER_DAY
        assert calls.counts.sum() == calls.vehicles_total

    def test_zero_speed_interval_floored_and_counted(self):
        flows = np.full(POINTS_PER_DAY, 10)
        speeds = np.full(POINTS_PER_DAY, 60.0)
        speeds[3] = 0.0
        flows[4], speeds[4] = 0, 0.0  # zero flow: not a warning
        series = RoadSeries(SLOT_SECONDS * np.arange(POINTS_PER_DAY), flows, speeds)
        cfg = ScenarioConfig(lam=0.2, handover_prob=0.0, cell_range_miles=1.5, seed=2)
        calls = simulate_calls(series, cfg)
        assert calls.zero_speed_intervals == 1
        assert (calls.counts >= 0).all()

    def test_zero_speed_mean_matches_floored_oracle(self):
        series = steady_series(DAYS_10K, 100, 0.0)
        cfg = ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5, seed=31)
        mc_mean_check(series, cfg, expected_calls(100, 0.0, cfg))

    def test_dwell_spills_into_following_intervals(self):
        # One vehicle-heavy interval, then empty ones; a 60-minute dwell spreads
        # calls over the following 12 slots.
        flows = np.zeros(POINTS_PER_DAY, dtype=np.int64)
        speeds = np.full(POINTS_PER_DAY, 60.0)
        flows[0], speeds[0] = 400, 5.0  # dwell capped at 60 min
        series = RoadSeries(SLOT_SECONDS * np.arange(POINTS_PER_DAY), flows, speeds)
        cfg = ScenarioConfig(
            lam=0.5, handover_prob=0.0, cell_range_miles=5.0, seed=11, exact_flow=True
        )
        calls = simulate_calls(series, cfg)
        assert calls.counts[1:13].sum() > 0
        assert calls.counts[14:].sum() == 0

    def test_calls_outside_recorded_days_dropped(self):
        # Two day blocks separated by a weekend: dwell from Friday's last slot
        # must not leak into Monday's first interval.
        day = SLOT_SECONDS * np.arange(POINTS_PER_DAY)
        flows = np.zeros(2 * POINTS_PER_DAY, dtype=np.int64)
        speeds = np.full(2 * POINTS_PER_DAY, 60.0)
        flows[POINTS_PER_DAY - 1], speeds[POINTS_PER_DAY - 1] = 500, 5.0  # Friday's last slot
        series = RoadSeries(np.concatenate([day, 3 * 86_400 + day]), flows, speeds)
        cfg = ScenarioConfig(
            lam=1.0, handover_prob=0.0, cell_range_miles=5.0, seed=7, exact_flow=True
        )
        calls = simulate_calls(series, cfg)
        assert calls.counts[POINTS_PER_DAY - 1] > 0  # entry interval itself
        assert calls.counts[POINTS_PER_DAY:].sum() == 0  # nothing lands on Monday


class TestTypes:
    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(lam=-0.1, handover_prob=0.5, cell_range_miles=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(lam=0.1, handover_prob=1.5, cell_range_miles=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(lam=0.1, handover_prob=0.5, cell_range_miles=0.0)

    def test_seed_and_exact_flow_are_keyword_only(self):
        # A fourth positional value is refused, not taken as the seed.
        with pytest.raises(TypeError):
            ScenarioConfig(0.1, 0.5, 1.5, 300)

    @pytest.mark.parametrize("fields", [
        {"lam": float("nan")},
        {"lam": float("inf")},
        {"handover_prob": float("nan")},
        {"cell_range_miles": float("nan")},
        {"cell_range_miles": float("inf")},
        {"seed": -1},
    ])
    def test_non_finite_or_negative_scenario_value_is_config_error(self, fields):
        valid = {"lam": 0.1, "handover_prob": 0.5, "cell_range_miles": 1.5}
        with pytest.raises(ConfigError, match=next(iter(fields))):
            ScenarioConfig(**{**valid, **fields})

    def test_call_series_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            CallSeries(np.array([1, -2, 3]))


def record_count_buffers(monkeypatch) -> list[np.ndarray]:
    """The per-vehicle call-count buffer of every `_per_vehicle_calls` call from now on."""
    draw = calls_module._per_vehicle_calls
    stored = []

    def recorded(*args):
        result = draw(*args)
        stored.append(args[-1])  # the per-vehicle buffer the draw filled
        return result

    monkeypatch.setattr(calls_module, "_per_vehicle_calls", recorded)
    return stored


def gapped_series(seed: int, days: int, start: int, gaps: list[int]) -> RoadSeries:
    """Random day blocks, block d + 1 starting gaps[d] slots after block d ends.

    About a fifth of the flows and of the speeds are zero.
    """
    rng = np.random.default_rng(seed)
    n = days * POINTS_PER_DAY
    slots = np.arange(n) + np.repeat(np.cumsum([0] + gaps), POINTS_PER_DAY)
    flows = np.where(rng.random(n) < 0.2, 0, rng.integers(0, 12, n))
    speeds = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 120.0, n))
    return RoadSeries(start + SLOT_SECONDS * slots, flows, speeds)


def record_chunks(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """The vehicle and call cuts of every `_chunks` call from now on."""
    cut = calls_module._chunks
    seen = []

    def recorded(*args):
        seen.append(cut(*args))
        return seen[-1]

    monkeypatch.setattr(calls_module, "_chunks", recorded)
    return seen


def simulate_in_chunks(series, config, parts, monkeypatch):
    """`simulate_calls` with `CHUNK_CALLS` set to cut its calls and vehicles into about `parts` chunks.

    Returns the result and the vehicles and the calls before each cut.
    """
    seen = record_chunks(monkeypatch)
    simulate_calls(series, config)
    vehicles, calls = seen[-1]
    total_items = int(vehicles[-1] + calls[-1])
    monkeypatch.setattr(calls_module, "CHUNK_CALLS", -(-total_items // parts))
    got = simulate_calls(series, config)
    return (got, *seen[-1])


def chunk_items(vehicle_cuts, call_cuts) -> np.ndarray:
    """The calls and vehicles of each chunk between these cuts."""
    return np.diff(vehicle_cuts) + np.diff(call_cuts)


class TestAgainstReference:
    """`simulate_calls` against the gather-and-searchsorted oracle: identical counts."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        days=st.integers(min_value=1, max_value=3),
        start=st.sampled_from([0, 300, 1_616_976_000, 4_102_444_800]),
        gaps=st.lists(st.sampled_from([0, 1, 3, 12, 288, 1000]), min_size=2, max_size=2),
        lam=st.sampled_from([0.0, 0.05, 0.4, 1.5]),
        handover=st.sampled_from([0.0, 0.3, 1.0]),
        cell_range=st.sampled_from([0.2, 1.5, 6.0]),
        exact_flow=st.booleans(),
        chunk=st.sampled_from([1, 2, 7, 1 << 16, 1 << 20]),
    )
    def test_counts_identical(
        self, seed, days, start, gaps, lam, handover, cell_range, exact_flow, chunk
    ):
        series = gapped_series(seed, days, start, gaps[: days - 1])
        cfg = ScenarioConfig(lam, handover, cell_range, seed=seed, exact_flow=exact_flow)
        want = reference_simulate_calls(series, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(calls_module, "CHUNK_CALLS", chunk)
            got = simulate_calls(series, cfg)
        assert np.array_equal(got.counts, want.counts)
        assert got.vehicles_total == want.vehicles_total
        assert got.zero_speed_intervals == want.zero_speed_intervals

    def test_table_scenarios_identical(self):
        series = synthesize_road_series(5, 3)
        for k, scenario in enumerate(table_scenarios()):
            cfg = ScenarioConfig(
                scenario.lam, scenario.handover_prob, scenario.cell_range_miles, seed=k
            )
            want = reference_simulate_calls(series, cfg)
            got = simulate_calls(series, cfg)
            assert np.array_equal(got.counts, want.counts), k
            assert got.vehicles_total == want.vehicles_total

    @pytest.mark.parametrize("parts", [1, 3, 5])
    def test_one_chunk_or_an_odd_number(self, parts, monkeypatch):
        # One chunk takes every draw at once; an odd number of chunks cuts
        # the road at points that no even split shares.
        series = gapped_series(4, 2, 300, [3])
        cfg = ScenarioConfig(0.4, 0.3, 1.5, seed=9)
        got, vehicle_cuts, _ = simulate_in_chunks(series, cfg, parts, monkeypatch)
        assert len(vehicle_cuts) == parts + 1
        want = reference_simulate_calls(series, cfg)
        assert np.array_equal(got.counts, want.counts)
        assert got.vehicles_total == want.vehicles_total

    def test_second_half_entry_offsets_start_mid_series(self, monkeypatch):
        # Fast vehicles with few calls, then slow ones with many: cut in two
        # chunks, the second starts mid-series with about twice as many
        # vehicles before it as calls, so its entry offsets and its call
        # positions start at different points of the stream.
        n = POINTS_PER_DAY
        speeds = np.where(np.arange(n) < n // 2, 90.0, 10.0)
        series = RoadSeries(SLOT_SECONDS * np.arange(n), np.full(n, 6), speeds)
        cfg = ScenarioConfig(0.4, 0.3, 0.5, seed=8, exact_flow=True)
        got, vehicle_cuts, call_cuts = simulate_in_chunks(series, cfg, 2, monkeypatch)
        assert len(vehicle_cuts) == 3
        middle, calls_before = vehicle_cuts[1], call_cuts[1]
        assert 6 * (n // 2) < middle < 6 * n and middle > 1.5 * calls_before
        want = reference_simulate_calls(series, cfg)
        assert np.array_equal(got.counts, want.counts)

    def test_largest_per_vehicle_mean(self, monkeypatch):
        # MAX_LAM over a dwell capped at 60 min at the 5 mph floor: a Poisson
        # mean of 60 000 calls per vehicle, past the int16 range. Chunks of
        # 2^15 items, so that every vehicle is larger than a chunk.
        monkeypatch.setattr(calls_module, "CHUNK_CALLS", 1 << 15)
        flows = np.zeros(POINTS_PER_DAY, dtype=np.int64)
        flows[::48] = 2
        series = RoadSeries(SLOT_SECONDS * np.arange(POINTS_PER_DAY), flows,
                            np.full(POINTS_PER_DAY, 3.0))
        cfg = ScenarioConfig(MAX_LAM, 0.5, 5.0, seed=6, exact_flow=True)
        assert dwell_minutes(3.0, 5.0) == 60.0
        stored = record_count_buffers(monkeypatch)
        chunks = record_chunks(monkeypatch)
        got = simulate_calls(series, cfg)
        assert stored[0].dtype == np.uint16 and len(stored[0]) == 12
        assert stored[0].min() > 2**15
        # Every vehicle holds more calls than a chunk, so each one is a chunk of its own.
        vehicle_cuts, _ = chunks[0]
        assert stored[0].min() > calls_module.CHUNK_CALLS
        assert vehicle_cuts.tolist() == list(range(13))
        want = reference_simulate_calls(series, cfg)
        assert np.array_equal(got.counts, want.counts)
        assert got.counts.sum() > 12 * 2**15

    def test_busy_interval_is_split_at_its_vehicles(self, monkeypatch):
        # 600 slow vehicles in one interval at lam 5: a 60-min dwell and a mean
        # of 300 calls each, about 180 000 calls, several chunks' worth, among
        # quiet intervals of 3 vehicles and about 75 calls. Chunks of 2^15
        # items, so that the busy interval holds at least 4 cuts.
        monkeypatch.setattr(calls_module, "CHUNK_CALLS", 1 << 15)
        flows = np.full(POINTS_PER_DAY, 3)
        speeds = np.full(POINTS_PER_DAY, 60.0)
        flows[100], speeds[100] = 600, 5.0
        series = RoadSeries(SLOT_SECONDS * np.arange(POINTS_PER_DAY), flows, speeds)
        cfg = ScenarioConfig(5.0, 0.5, 5.0, seed=3, exact_flow=True)
        stored = record_count_buffers(monkeypatch)
        chunks = record_chunks(monkeypatch)
        got = simulate_calls(series, cfg)
        vehicle_cuts, call_cuts = chunks[0]
        first = calls_module._starts(flows)
        assert np.count_nonzero((vehicle_cuts > first[100]) & (vehicle_cuts < first[101])) >= 4
        # A chunk ends at the first vehicle past its share, so it overshoots by at most one vehicle.
        items = chunk_items(vehicle_cuts, call_cuts)
        assert items.max() <= calls_module.CHUNK_CALLS + 1 + stored[0].max()
        assert items.sum() == first[-1] + stored[0].sum(dtype=np.int64)  # every vehicle and call, once
        want = reference_simulate_calls(series, cfg)
        assert np.array_equal(got.counts, want.counts)

    def test_late_half_starts_inside_an_interval(self, monkeypatch):
        # Most calls in one interval mid-road: cut in two chunks, the second
        # begins among that interval's vehicles, so its entry offsets and its
        # call positions start part way through one interval's draws.
        n = POINTS_PER_DAY
        flows = np.full(n, 2)
        speeds = np.full(n, 60.0)
        flows[150], speeds[150] = 300, 10.0
        series = RoadSeries(SLOT_SECONDS * np.arange(n), flows, speeds)
        cfg = ScenarioConfig(2.0, 0.3, 1.5, seed=5, exact_flow=True)
        got, vehicle_cuts, _ = simulate_in_chunks(series, cfg, 2, monkeypatch)
        first = calls_module._starts(flows)
        assert len(vehicle_cuts) == 3 and first[150] < vehicle_cuts[1] < first[151]
        want = reference_simulate_calls(series, cfg)
        assert np.array_equal(got.counts, want.counts)

    def test_table_scenarios_fill_a_one_byte_buffer(self, monkeypatch):
        # Stopped traffic raises every dwell to its cap, so the paper's rates
        # reach their largest means: 12 calls per vehicle (lam 0.2 over the
        # wide cell's 60 min) and 10.8 (lam 0.6 over 18 min), far inside the
        # 64 up to which a byte is used.
        stored = record_count_buffers(monkeypatch)
        series = gapped_series(2, 2, 0, [0])
        scenarios = [s for s in table_scenarios() if s.lam > 0]
        largest = [s.lam * dwell_minutes(series.speeds, s.cell_range_miles).max() for s in scenarios]
        assert max(largest) == pytest.approx(12.0) and sorted(largest)[-2] == pytest.approx(10.8)
        for scenario in scenarios:
            simulate_calls(series, scenario)
        assert len(stored) == len(scenarios)
        assert all(buffer.dtype == np.uint8 and len(buffer) > 0 for buffer in stored)

    def test_draw_past_the_buffer_type_is_bounds_error(self):
        # A mean of 1000 calls in a one-byte buffer would wrap round modulo 256.
        vehicles = np.array([0, 5, 3])
        first = calls_module._starts(vehicles)
        buffer = np.zeros(8, dtype=np.uint8)
        with pytest.raises(BoundsError, match="past the 255 of its uint8 count"):
            calls_module._per_vehicle_calls(
                np.random.default_rng(1), np.full(3, 1000.0), vehicles, first, [(0, 3)], buffer
            )

    def test_repeated_call_identical_over_many_chunks(self):
        # Enough vehicles and calls for several blocks and chunks.
        series = synthesize_road_series(10, 8)
        cfg = replace(table_scenarios()[5], seed=12)
        a, b = simulate_calls(series, cfg), simulate_calls(series, cfg)
        assert a.counts.sum() > 8 * calls_module.CHUNK_CALLS
        assert np.array_equal(a.counts, b.counts)
        assert a.vehicles_total == b.vehicles_total

    @pytest.mark.parametrize("start", [0, 1_616_976_000])
    def test_slot_lookup_at_grid_points(self, start):
        # Instants on and one ulp either side of every slot start from t0 to 30
        # slots past the end, across a day gap, against the searchsorted rule.
        series = gapped_series(1, 2, start, [5])
        ts = series.timestamps
        grid = _SlotGrid(ts)
        points = (ts[0] + SLOT_SECONDS * np.arange(grid.top + 30)).astype(np.float64)
        t = np.concatenate([points, np.nextafter(points, -np.inf)[1:], np.nextafter(points, np.inf)])
        idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1)
        inside = (t >= ts[idx]) & (t < ts[idx] + SLOT_SECONDS)
        k = grid.slots(t, np.empty_like(t))
        assert k.min() >= 0 and k.max() == grid.top
        per_slot = np.bincount(k, minlength=grid.top + 1)
        assert np.array_equal(per_slot[grid.interval_slot], np.bincount(idx[inside], minlength=len(ts)))
        assert np.array_equal(grid.interval_slot[idx[inside]], k[inside])


class TestThreads:
    """`simulate_calls` runs on the calling thread alone."""

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", no_thread)  # none may start
        series = synthesize_road_series(2, 4)
        before = threading.active_count()
        for scenario in table_scenarios():
            simulate_calls(series, scenario)
            assert threading.active_count() == before


def traced_peak(series, config) -> tuple[int, int]:
    """The peak bytes `tracemalloc` traces while `simulate_calls` runs, and its vehicles."""
    tracemalloc.start()
    try:
        calls = simulate_calls(series, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, calls.vehicles_total


@pytest.fixture(scope="module")
def roads_20_and_60_days():
    return synthesize_road_series(20, 1), synthesize_road_series(60, 1)


class TestMemory:
    """Memory `simulate_calls` holds per vehicle, as `tracemalloc` traces it."""

    @pytest.mark.parametrize("lam", [0.0, 0.001, 0.2, 0.6])
    def test_marginal_traced_bytes_per_vehicle(self, roads_20_and_60_days, lam):
        # What the 40 extra days add per extra vehicle: a one-byte count and
        # a share of the per-interval arrays (with lam = 0, only the latter).
        # The work arrays are cut on calls and vehicles, so they do not grow
        # with the road, even at a rate so low that a chunk of calls alone
        # would span almost every vehicle.
        cfg = ScenarioConfig(lam=lam, handover_prob=0.5, cell_range_miles=1.5, seed=4)
        (peak20, vehicles20), (peak60, vehicles60) = (
            traced_peak(series, cfg) for series in roads_20_and_60_days
        )
        assert vehicles60 - vehicles20 > 2 * 10**6
        assert (peak60 - peak20) / (vehicles60 - vehicles20) < 2.0

    def test_peak_does_not_grow_with_the_call_rate(self):
        # A 1000-mile cell caps every dwell at 60 min, so on a one-day road
        # lam = 30 draws about 10^8 calls, 30 times as many as lam = 1. Chunks
        # are cut inside the busiest intervals, so the work arrays stay the
        # same size (when they held whole intervals, the peak was 70 MB higher).
        series = synthesize_road_series(1, 7)
        low, high = (
            traced_peak(series, ScenarioConfig(lam, 0.5, 1000.0, seed=1))[0] for lam in (1.0, 30.0)
        )
        assert high - low < 4 * 2**20
