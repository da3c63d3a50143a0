import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2x_loadcast.errors import BoundsError, DegenerateSeries, GapError, MalformedRow
from v2x_loadcast.road import (
    POINTS_PER_DAY,
    SLOT_SECONDS,
    RoadRecord,
    RoadSeries,
    correlation_report,
    parse_road_csv,
    serialize_road_csv,
    synthesize_road_series,
)


def write_csv(path, rows, header="timestamp,flow,speed"):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


class TestParse:
    def test_one_full_day(self, one_day_csv):
        series = parse_road_csv(str(one_day_csv))
        assert series.days == 1
        assert len(series.records) == POINTS_PER_DAY

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

    def test_impute_hold_repeats_previous_record(self, tmp_path):
        rows = [f"{k * SLOT_SECONDS},{k},60" for k in range(POINTS_PER_DAY)]
        del rows[5]  # drop slot 1500
        path = write_csv(tmp_path / "gap.csv", rows)
        series = parse_road_csv(path, impute="hold")
        assert len(series) == POINTS_PER_DAY
        assert series.records[5].flow == series.records[4].flow == 4
        assert series.records[5].timestamp == 1500

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
        assert series.records[1].timestamp == SLOT_SECONDS

    def test_column_mapping(self, tmp_path):
        rows = [f"{k * SLOT_SECONDS},55.5,{k % 9}" for k in range(POINTS_PER_DAY)]
        path = write_csv(tmp_path / "mapped.csv", rows, header="Timestamp,Avg Speed,Total Flow")
        series = parse_road_csv(
            path,
            column_map={"timestamp": "Timestamp", "flow": "Total Flow", "speed": "Avg Speed"},
        )
        assert series.records[4].flow == 4
        assert series.records[4].speed == 55.5

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


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self, one_day_csv, tmp_path):
        series = parse_road_csv(str(one_day_csv))
        out = tmp_path / "echo.csv"
        serialize_road_csv(series, str(out))
        again = parse_road_csv(str(out))
        assert again.records == series.records

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
        assert a.records == b.records
        assert a.records != synthesize_road_series(1, 8).records

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


class TestInvariants:
    def test_record_bounds(self):
        with pytest.raises(BoundsError):
            RoadRecord(0, -1, 60.0)
        with pytest.raises(BoundsError):
            RoadRecord(0, 1, 130.0)

    @settings(max_examples=60, deadline=None)
    @given(
        mutation=st.sampled_from(["drop", "shift_ts", "swap", "partial"]),
        index=st.integers(min_value=1, max_value=POINTS_PER_DAY - 1),
    )
    def test_random_invalid_mutations_rejected(self, mutation, index):
        base = [
            RoadRecord(k * SLOT_SECONDS, 10, 60.0) for k in range(POINTS_PER_DAY)
        ]
        if mutation == "drop":
            del base[index]
        elif mutation == "shift_ts":
            base[index] = RoadRecord(base[index].timestamp + 60, 10, 60.0)
        elif mutation == "swap":
            base[index - 1], base[index] = base[index], base[index - 1]
        elif mutation == "partial":
            base = base[:index]
        with pytest.raises((GapError, MalformedRow)):
            RoadSeries(tuple(base))

    def test_day_block_off_the_grid_rejected(self):
        # A second day block shifted by 60 s keeps its in-day spacing but
        # leaves the first block's 300-s grid.
        records = [RoadRecord(k * SLOT_SECONDS, 5, 60.0) for k in range(POINTS_PER_DAY)]
        records += [
            RoadRecord(86_400 + 60 + k * SLOT_SECONDS, 5, 60.0) for k in range(POINTS_PER_DAY)
        ]
        with pytest.raises(GapError, match="off the 300s grid"):
            RoadSeries(tuple(records))

    def test_validation_names_first_bad_record(self):
        base = [RoadRecord(k * SLOT_SECONDS, 10, 60.0) for k in range(2 * POINTS_PER_DAY)]
        repeated = list(base)
        repeated[8] = RoadRecord(7 * SLOT_SECONDS, 10, 60.0)
        with pytest.raises(MalformedRow, match="not strictly increasing at index 8$"):
            RoadSeries(tuple(repeated))
        moved = list(base)
        moved[300] = RoadRecord(300 * SLOT_SECONDS + 600, 10, 60.0)
        stamp = 300 * SLOT_SECONDS + 600
        with pytest.raises(GapError, match=f"inside a day at timestamp {stamp}$") as info:
            RoadSeries(tuple(moved))
        assert info.value.slot == 300 * SLOT_SECONDS

    def test_multi_day_gap_between_days_allowed(self):
        # Friday -> Monday style gap: day blocks need not be adjacent.
        records = [RoadRecord(k * SLOT_SECONDS, 5, 60.0) for k in range(POINTS_PER_DAY)]
        monday = 3 * 86_400
        records += [
            RoadRecord(monday + k * SLOT_SECONDS, 5, 60.0) for k in range(POINTS_PER_DAY)
        ]
        series = RoadSeries(tuple(records))
        assert series.days == 2
        assert series.gap_indices() == (POINTS_PER_DAY,)


class TestCorrelationReport:
    def test_perfect_anticorrelation(self):
        records = tuple(
            RoadRecord(k * SLOT_SECONDS, k % 200, 70.0 - 0.1 * (k % 200))
            for k in range(POINTS_PER_DAY)
        )
        mat = correlation_report(RoadSeries(records))
        assert mat.shape == (2, 2)
        assert abs(mat[0, 1] - (-1.0)) < 1e-12

    def test_constant_speed_degenerate(self):
        records = tuple(
            RoadRecord(k * SLOT_SECONDS, k % 100, 60.0) for k in range(POINTS_PER_DAY)
        )
        with pytest.raises(DegenerateSeries):
            correlation_report(RoadSeries(records))

    def test_synthesized_flow_speed_entry_negative(self):
        series = synthesize_road_series(20, 1)
        mat = correlation_report(series)
        flow = series.flows.astype(float)
        speed = series.speeds
        fc = flow - flow.mean()
        sc = speed - speed.mean()
        oracle = float((fc * sc).sum() / np.sqrt((fc**2).sum() * (sc**2).sum()))
        assert mat[0, 1] < 0
        assert mat[0, 1] == pytest.approx(oracle, abs=1e-12)

    def test_three_by_three_with_calls(self):
        series = synthesize_road_series(2, 4)
        calls = np.arange(len(series), dtype=float) % 37
        mat = correlation_report(series, calls)
        assert mat.shape == (3, 3)
        assert np.allclose(mat, mat.T)
        assert np.all(np.diag(mat) == 1.0)
        assert np.all((mat >= -1.0) & (mat <= 1.0))
