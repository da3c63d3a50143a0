import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_series
from v2x_loadcast.cli import dispatch
from v2x_loadcast.errors import (
    BoundsError,
    ConfigError,
    GapError,
    MalformedRow,
    ShapeMismatch,
)
from v2x_loadcast.road import (
    FLOW_MAX,
    POINTS_PER_DAY,
    SLOT_SECONDS,
    RoadSeries,
    _parse_timestamp,
    parse_road_csv,
    serialize_road_csv,
    synthesize_road_series,
)


def write_csv(path, rows, header="timestamp,flow,speed"):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def same_columns(a: RoadSeries, b: RoadSeries) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("timestamps", "flows", "speeds")
    )


def slot_walk(rows, impute):
    """Per-slot oracle of `parse_road_csv`: the expected (ts, flow, speed) rows,
    or the slot of the first GapError.

    Every slot of each day that has a row, in time order; a missing slot is a
    gap unless `impute == "hold"` and an earlier slot, of any day, had a row.
    """
    present = {ts: (flow, speed) for ts, flow, speed in rows}
    out, last = [], None
    for day in sorted({ts // 86_400 for ts, _, _ in rows}):
        for k in range(POINTS_PER_DAY):
            slot = day * 86_400 + k * SLOT_SECONDS
            if slot in present:
                last = present[slot]
            elif impute != "hold" or last is None:
                return slot
            out.append((slot, *last))
    return out


class TestParse:
    def test_one_full_day(self, one_day_csv):
        series = parse_road_csv(str(one_day_csv))
        assert series.days == 1
        assert len(series.timestamps) == POINTS_PER_DAY

    def test_negative_speed_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["0,10,-4", "300,10,60"])
        with pytest.raises(BoundsError):
            parse_road_csv(path)

    def test_overspeed_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["0,10,121"])
        with pytest.raises(BoundsError):
            parse_road_csv(path)

    def test_gap_identifies_missing_slot(self, tmp_path):
        path = write_csv(tmp_path / "gap.csv", ["0,10,60", "600,12,61"])
        with pytest.raises(GapError) as exc:
            parse_road_csv(path)
        assert exc.value.slot == 300

    def test_gap_message_names_a_slot_that_parses_back(self, tmp_path, capsys):
        # The first slot of year 1: glibc's strftime("%Y") would write "1-01-01".
        path = write_csv(tmp_path / "gap.csv", ["-62135596800,1,60"])
        assert dispatch(["ingest", "--input", path]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: GapError: missing 5-minute slot at 0001-01-01T00:05:00Z"
        assert _parse_timestamp(err.rsplit(" ", 1)[1], 2) == -62135596800 + SLOT_SECONDS

    def test_impute_hold_repeats_previous_record(self, tmp_path):
        rows = [f"{k * SLOT_SECONDS},{k},60" for k in range(POINTS_PER_DAY)]
        del rows[5]  # drop slot 1500
        path = write_csv(tmp_path / "gap.csv", rows)
        series = parse_road_csv(path, impute="hold")
        assert len(series) == POINTS_PER_DAY
        assert series.flows[5] == series.flows[4] == 4
        assert series.timestamps[5] == 1500

    def test_impute_cannot_fill_leading_gap(self, tmp_path):
        rows = [f"{k * SLOT_SECONDS},{k},60" for k in range(1, POINTS_PER_DAY)]
        path = write_csv(tmp_path / "gap.csv", rows)
        with pytest.raises(GapError):
            parse_road_csv(path, impute="hold")

    def test_iso_timestamps_and_z_suffix(self, tmp_path):
        rows = []
        for k in range(POINTS_PER_DAY):
            minutes = k * 5
            stamp = f"1970-01-01T{minutes // 60:02d}:{minutes % 60:02d}:00Z"
            rows.append(f"{stamp},7,55")
        path = write_csv(tmp_path / "iso.csv", rows)
        series = parse_road_csv(path)
        assert series.timestamps[1] == SLOT_SECONDS

    def test_column_mapping(self, tmp_path):
        rows = [f"{k * SLOT_SECONDS},55.5,{k % 9}" for k in range(POINTS_PER_DAY)]
        path = write_csv(tmp_path / "mapped.csv", rows, header="Timestamp,Avg Speed,Total Flow")
        series = parse_road_csv(
            path,
            column_map={"timestamp": "Timestamp", "flow": "Total Flow", "speed": "Avg Speed"},
        )
        assert series.flows[4] == 4
        assert series.speeds[4] == 55.5

    def test_bad_numeric_field(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["0,ten,60"])
        with pytest.raises(MalformedRow):
            parse_road_csv(path)

    def test_fractional_flow_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["0,10.5,60"])
        with pytest.raises(MalformedRow):
            parse_road_csv(path)

    def test_off_grid_timestamp_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["7,10,60"])
        with pytest.raises(MalformedRow):
            parse_road_csv(path)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["0,10,60", "0,11,61"])
        with pytest.raises(MalformedRow):
            parse_road_csv(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["0,10"], header="timestamp,flow")
        with pytest.raises(MalformedRow):
            parse_road_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(
        first_day=st.sampled_from([0, 18_715, 47_482]),  # 1970, 2021 and 2100 (epochs > 2^31)
        day_offsets=st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**32 - 1),
        drop_rate=st.sampled_from([0.0, 0.01, 0.2]),
        drop_day_start=st.booleans(),
    )
    def test_random_drops_match_slot_oracle(
        self, first_day, day_offsets, seed, drop_rate, drop_day_start
    ):
        rng = np.random.default_rng(seed)
        days = [first_day + d for d in sorted(day_offsets)]
        slots = [day * 86_400 + k * SLOT_SECONDS for day in days for k in range(POINTS_PER_DAY)]
        keep = rng.random(len(slots)) >= drop_rate
        if drop_day_start:  # of a later day, whose gap hold fills from the day before
            day = int(rng.integers(1, len(days))) if len(days) > 1 else 0
            keep[day * POINTS_PER_DAY] = False
        rows = [
            (ts, int(rng.integers(0, 500)), float(rng.uniform(0.0, 120.0)))
            for ts, kept in zip(slots, keep)
            if kept
        ]
        shuffled = [rows[k] for k in rng.permutation(len(rows))]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "road.csv", [f"{t},{f},{v!r}" for t, f, v in shuffled])
            for impute in (None, "hold"):
                want = slot_walk(rows, impute)
                if isinstance(want, int):
                    with pytest.raises(GapError) as info:
                        parse_road_csv(path, impute=impute)
                    assert info.value.slot == want
                else:
                    series = parse_road_csv(path, impute=impute)
                    assert series.timestamps.tolist() == [t for t, _, _ in want]
                    assert series.flows.tolist() == [f for _, f, _ in want]
                    assert series.speeds.tolist() == [v for _, _, v in want]


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self, one_day_csv, tmp_path):
        series = parse_road_csv(str(one_day_csv))
        out = tmp_path / "echo.csv"
        serialize_road_csv(series, str(out))
        again = parse_road_csv(str(out))
        assert same_columns(again, series)

    def test_reserialized_numeric_content_matches_source(self, one_day_csv, tmp_path):
        out = tmp_path / "echo.csv"
        serialize_road_csv(parse_road_csv(str(one_day_csv)), str(out))
        src = [l.split(",") for l in one_day_csv.read_text().splitlines()[1:]]
        echo = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(src) == len(echo)
        for (ts_a, f_a, s_a), (ts_b, f_b, s_b) in zip(src, echo):
            assert int(ts_a) == int(ts_b)
            assert int(f_a) == int(f_b)
            assert float(s_a) == float(s_b)


class TestSynthesize:
    def test_deterministic_per_seed(self):
        a = synthesize_road_series(1, 7)
        b = synthesize_road_series(1, 7)
        assert same_columns(a, b)
        assert not same_columns(a, synthesize_road_series(1, 8))

    def test_twenty_days_length(self):
        assert len(synthesize_road_series(20, 1)) == 5760

    def test_value_ranges(self):
        series = synthesize_road_series(3, 11)
        assert series.flows.min() >= 0 and series.flows.max() <= 600
        assert series.speeds.min() >= 5.0 and series.speeds.max() <= 75.0

    def test_peak_hours_negatively_correlated(self):
        series = synthesize_road_series(5, 3)
        hours = (series.timestamps % 86_400) / 3600.0
        peak = ((hours >= 7) & (hours < 10)) | ((hours >= 16) & (hours < 19))
        flow = series.flows[peak].astype(float)
        speed = series.speeds[peak]
        # Pearson correlation evaluated directly from its definition.
        fc = flow - flow.mean()
        sc = speed - speed.mean()
        r = float((fc * sc).sum() / np.sqrt((fc**2).sum() * (sc**2).sum()))
        assert r < 0

    def test_days_must_be_positive(self):
        with pytest.raises(ValueError):
            synthesize_road_series(0, 1)

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed"):
            synthesize_road_series(1, -1)


class TestInvariants:
    def test_record_bounds(self):
        one_day = SLOT_SECONDS * np.arange(POINTS_PER_DAY)
        with pytest.raises(BoundsError):
            constant_series(one_day, flow=-1)
        with pytest.raises(BoundsError):
            constant_series(one_day, speed=130.0)

    @settings(max_examples=60, deadline=None)
    @given(
        mutation=st.sampled_from(["drop", "shift_ts", "swap", "partial"]),
        index=st.integers(min_value=1, max_value=POINTS_PER_DAY - 1),
    )
    def test_random_invalid_mutations_rejected(self, mutation, index):
        ts = [k * SLOT_SECONDS for k in range(POINTS_PER_DAY)]
        if mutation == "drop":
            del ts[index]
        elif mutation == "shift_ts":
            ts[index] += 60
        elif mutation == "swap":
            ts[index - 1], ts[index] = ts[index], ts[index - 1]
        elif mutation == "partial":
            ts = ts[:index]
        with pytest.raises((GapError, MalformedRow)):
            constant_series(ts)

    def test_day_block_off_the_grid_rejected(self):
        # A second day block shifted by 60 s keeps its in-day spacing but
        # leaves the first block's 300-s grid.
        day = SLOT_SECONDS * np.arange(POINTS_PER_DAY)
        with pytest.raises(GapError, match="off the 300s grid"):
            constant_series(np.concatenate([day, 86_400 + 60 + day]))

    def test_validation_names_first_bad_record(self):
        base = SLOT_SECONDS * np.arange(2 * POINTS_PER_DAY)
        repeated = base.copy()
        repeated[8] = 7 * SLOT_SECONDS
        with pytest.raises(MalformedRow, match="not strictly increasing at index 8$"):
            constant_series(repeated)
        moved = base.copy()
        moved[300] = 300 * SLOT_SECONDS + 600
        stamp = 300 * SLOT_SECONDS + 600
        with pytest.raises(GapError, match=f"inside a day at timestamp {stamp}$") as info:
            constant_series(moved)
        assert info.value.slot == 300 * SLOT_SECONDS

    def test_multi_day_gap_between_days_allowed(self):
        # Friday -> Monday style gap: day blocks need not be adjacent.
        day = SLOT_SECONDS * np.arange(POINTS_PER_DAY)
        series = constant_series(np.concatenate([day, 3 * 86_400 + day]))
        assert series.days == 2
        assert series.gap_indices() == (POINTS_PER_DAY,)


class TestColumns:
    """`RoadSeries` column types, bounds and ownership."""

    DAY = SLOT_SECONDS * np.arange(POINTS_PER_DAY)

    def columns(self):
        """One valid day; flows as float64, so that a test can store 3.7 in them."""
        return self.DAY, np.full(POINTS_PER_DAY, 10.0), np.full(POINTS_PER_DAY, 60.0)

    def test_dtypes_and_values(self):
        series = RoadSeries(self.DAY.tolist(), [10.0] * POINTS_PER_DAY, [60] * POINTS_PER_DAY)
        assert series.timestamps.tolist() == self.DAY.tolist()
        assert series.timestamps.dtype == np.int64
        assert series.flows.dtype == np.int64
        assert series.speeds.dtype == np.float64
        assert series.flows.tolist() == [10] * POINTS_PER_DAY

    def test_nan_speed_rejected(self):
        ts, flows, speeds = self.columns()
        speeds[3] = np.nan
        with pytest.raises(BoundsError, match=r"speeds\[3\] = nan outside"):
            RoadSeries(ts, flows, speeds)

    @pytest.mark.parametrize("speed", [-0.5, 120.5, np.inf])
    def test_out_of_range_speed_rejected(self, speed):
        ts, flows, speeds = self.columns()
        speeds[7] = speed
        with pytest.raises(BoundsError, match=r"speeds\[7\] = "):
            RoadSeries(ts, flows, speeds)

    def test_negative_flow_rejected(self):
        ts, flows, speeds = self.columns()
        flows[5] = -5
        with pytest.raises(BoundsError, match=r"flows\[5\] = -5 < 0"):
            RoadSeries(ts, flows, speeds)

    def test_flow_bound_is_inclusive(self):
        ts, flows, speeds = self.columns()
        flows[11] = FLOW_MAX
        assert RoadSeries(ts, flows, speeds).flows[11] == FLOW_MAX
        flows[11] = FLOW_MAX + 1
        with pytest.raises(BoundsError, match=rf"flows\[11\] = {FLOW_MAX + 1} > {FLOW_MAX} at"):
            RoadSeries(ts, flows, speeds)

    @pytest.mark.parametrize("flow", [3.7, np.nan, 1e30])
    def test_non_integer_flow_rejected(self, flow):
        ts, flows, speeds = self.columns()
        flows[9] = flow
        with pytest.raises(MalformedRow, match=r"flows\[9\] = .* is not an int64 integer"):
            RoadSeries(ts, flows, speeds)

    def test_non_numeric_column_rejected(self):
        with pytest.raises(MalformedRow, match="speeds must be numeric"):
            RoadSeries(self.DAY, np.full(POINTS_PER_DAY, 10), ["60"] * POINTS_PER_DAY)

    def test_column_not_one_dimensional(self):
        ts, flows, speeds = self.columns()
        with pytest.raises(ShapeMismatch, match=r"flows must be 1-D, got shape \(2, 144\)"):
            RoadSeries(ts, flows.reshape(2, -1), speeds)

    def test_column_lengths_differ(self):
        ts, flows, speeds = self.columns()
        with pytest.raises(ShapeMismatch, match="column lengths differ"):
            RoadSeries(ts, flows, speeds[:-1])

    def test_columns_read_only(self):
        series = RoadSeries(*self.columns())
        for name in ("timestamps", "flows", "speeds"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(series, name)[0] = 5

    def test_series_owns_copies(self):
        ts, flows, speeds = self.columns()
        series = RoadSeries(ts, flows, speeds)
        flows[0] = -5
        speeds[0] = 999.0
        assert series.flows[0] == 10
        assert series.speeds[0] == 60.0

    def test_pickle_round_trip_is_validated_and_read_only(self):
        ts, flows, speeds = self.columns()
        series = RoadSeries(ts, flows, speeds)
        payload = pickle.dumps(series)
        again = pickle.loads(payload)
        assert same_columns(again, series)
        assert not any(getattr(again, n).flags.writeable for n in ("timestamps", "flows", "speeds"))
        bad = series.flows.copy()
        bad[7] = -1
        with pytest.raises(BoundsError, match=r"flows\[7\] = -1"):
            pickle.loads(payload.replace(series.flows.tobytes(), bad.tobytes(), 1))


class TestExactText:
    """CSV text of values that need every digit: numpy scalar reprs must not leak."""

    START = 4_102_444_800  # 2100-01-01, above 2^31

    def series(self):
        flows = np.zeros(POINTS_PER_DAY, dtype=np.int64)
        flows[:3] = (7, 3, 2)
        speeds = np.full(POINTS_PER_DAY, 60.0)
        speeds[:2] = (0.1 + 0.2, 119.99999999999999)
        return RoadSeries(self.START + SLOT_SECONDS * np.arange(POINTS_PER_DAY), flows, speeds)

    def test_serialized_lines(self, tmp_path):
        path = tmp_path / "road.csv"
        serialize_road_csv(self.series(), str(path))
        lines = path.read_text().splitlines()
        assert lines[:4] == [
            "timestamp,flow,speed",
            "4102444800,7,0.30000000000000004",
            "4102445100,3,119.99999999999999",
            "4102445400,2,60.0",
        ]
        assert lines[-1] == "4102530900,0,60.0"

    def test_simulated_lines(self, tmp_path, capsys):
        road, out = tmp_path / "road.csv", tmp_path / "calls.csv"
        serialize_road_csv(self.series(), str(road))
        # Every vehicle hands over exactly once and makes no other call: calls == flow.
        code = dispatch(["simulate", "--road", str(road), "--lambda", "0", "--h", "1",
                         "--range", "1.5", "--exact-flow", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[:4] == [
            "timestamp,flow,speed,calls",
            "4102444800,7,0.30000000000000004,7",
            "4102445100,3,119.99999999999999,3",
            "4102445400,2,60.0,2",
        ]
        assert lines[-1] == "4102530900,0,60.0,0"
