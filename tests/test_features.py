import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2x_loadcast.calls import CallSeries
from v2x_loadcast.errors import DegenerateFeature, InsufficientData, LoadcastError
from v2x_loadcast.features import (
    CALLS_COLUMN,
    FEATURE_NAMES,
    MODE_COLUMNS,
    WindowSet,
    build_feature_matrix,
    discretize_speeds,
    fit_normalizer,
    make_windows,
    select_mode_columns,
    split_day_counts,
)
from v2x_loadcast.road import parse_road_csv, synthesize_road_series

# Pinned 8-level mapping for the probe speeds.
PROBE_TABLE = {0: 1, 15: 1, 19.99: 1, 20: 2, 33: 3, 40: 5, 59.99: 7, 60: 8, 65: 8, 100: 8}


class TestDiscretize:
    def test_pinned_probe_table(self):
        assert discretize_speeds(list(PROBE_TABLE)).tolist() == list(PROBE_TABLE.values())

    def test_bin_formula_oracle(self):
        # Levels 2..7 partition [20, 60) into six equal bins of width 20/3.
        # Exact rational arithmetic; naive float division misplaces the
        # level-5 edge at exactly 40 mph.
        from fractions import Fraction

        width = Fraction(20, 3)
        speeds = np.linspace(0.0, 119.9, 1200)
        for speed, level in zip(speeds.tolist(), discretize_speeds(speeds).tolist()):
            s = Fraction(speed)
            if s < 20:
                want = 1
            elif s >= 60:
                want = 8
            else:
                want = 2 + min(int((s - 20) / width), 5)
            assert level == want, speed

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            discretize_speeds(-0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=0, max_value=120),
        b=st.floats(min_value=0, max_value=120),
    )
    def test_monotone_non_decreasing(self, a, b):
        lo, hi = discretize_speeds(sorted([a, b]))
        assert lo <= hi

    def test_surjective_onto_levels(self):
        levels = set(discretize_speeds(np.linspace(0, 120, 4001)).tolist())
        assert levels == set(range(1, 9))

    def test_vector_matches_scalar(self):
        speeds = np.linspace(0, 120, 977)
        vec = discretize_speeds(speeds)
        assert vec.tolist() == [int(discretize_speeds(s)) for s in speeds.tolist()]


class TestNormalizer:
    def test_two_point_statistics(self):
        stats = fit_normalizer(np.array([[10.0], [20.0]]), ("flow",))
        assert stats.mean[0] == 15.0
        assert stats.std[0] == 5.0  # population estimator, divisor n

    def test_constant_column_degenerate(self):
        x = np.column_stack([np.arange(10.0), np.full(10, 4.0)])
        with pytest.raises(DegenerateFeature, match="calls"):
            fit_normalizer(x, ("flow", "calls"))

    def test_transformed_column_is_standardized(self):
        rng = np.random.default_rng(3)
        x = rng.normal(37.0, 12.0, (1000, 1))
        stats = fit_normalizer(x, ("calls",))
        z = stats.transform(x)
        assert abs(z.mean()) < 1e-10
        assert abs(z.std() - 1.0) < 1e-10

    def test_requires_two_samples(self):
        with pytest.raises(InsufficientData):
            fit_normalizer(np.array([[1.0, 2.0, 3.0]]), FEATURE_NAMES)

    def test_checksum_tracks_content(self):
        x = np.arange(20.0).reshape(10, 2)
        a = fit_normalizer(x, ("flow", "calls"))
        b = fit_normalizer(x, ("flow", "calls"))
        c = fit_normalizer(x + 1.0, ("flow", "calls"))
        assert a.checksum() == b.checksum()
        assert a.checksum() != c.checksum()


class TestWindows:
    def test_single_split_counts(self):
        x = np.arange(60.0)
        split = make_windows(x, x, 18, 1, (1, 1, 1), 20)
        assert [len(ws) for ws in split] == [2, 2, 2]
        assert split.train.inputs().shape[1] == 18 and split.train.horizon == 1

    def test_boundary_insufficient(self):
        x = np.arange(54.0)
        with pytest.raises(InsufficientData):
            make_windows(x, x, 18, 1, (1, 1, 1), 18)

    def test_twenty_day_split_counts(self):
        n = 20 * 288
        x = np.arange(float(n))
        split = make_windows(x, x, 18, 1, (3, 1, 1))
        assert split_day_counts(20, (3, 1, 1)) == (12, 4, 4)
        assert len(split.train) == 12 * 288 - 18
        assert len(split.val) == 4 * 288 - 18
        assert len(split.test) == 4 * 288 - 18

    def test_windows_are_contiguous_slices(self):
        x = np.arange(120.0)
        for ws in make_windows(x, x, 5, 2, (1, 1, 1), 40):
            inputs = ws.inputs()
            for k in range(len(ws)):
                start = inputs[k, 0, 0]
                assert np.array_equal(inputs[k, :, 0], np.arange(start, start + 5))
                assert np.array_equal(ws.targets[k], np.arange(start + 5, start + 7))

    def test_no_window_crosses_split_boundary(self):
        n = 5 * 288
        x = np.arange(float(n))
        split = make_windows(x, x, 18, 1, (3, 1, 1))
        train_days, val_days, _ = split_day_counts(5, (3, 1, 1))
        train_end = train_days * 288
        val_end = train_end + val_days * 288
        assert split.train.targets.max() < train_end
        assert split.val.inputs().min() >= train_end
        assert split.val.targets.max() < val_end
        assert split.test.inputs().min() >= val_end

    def test_gap_windows_match_brute_force(self):
        n, m, t = 60, 6, 2
        x = np.arange(float(n))
        gaps = (13, 40)  # 40 is also the test split's first sample
        split = make_windows(x, x, m, t, (1, 1, 1), 20, gaps)
        # Brute-force oracle: enumerate starts, drop windows containing a break.
        breaks = (13, 20, 40)
        expected = [
            s
            for s in range(n - m - t + 1)
            if not any(s < g < s + m + t for g in breaks)
        ]
        got = np.concatenate([ws.inputs()[:, 0, 0] for ws in split])
        assert got.astype(int).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        slots=st.integers(min_value=1, max_value=12),
        days=st.integers(min_value=1, max_value=8),
        ratios=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3),
        d=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=1, max_value=12),
        t=st.integers(min_value=1, max_value=4),
        gaps=st.lists(st.integers(min_value=-5, max_value=100), max_size=6),
        strided=st.booleans(),
    )
    def test_windows_match_stacked_slices(self, slots, days, ratios, d, m, t, gaps, strided):
        # Per split, the windows equal the stacked slices at every start with
        # no split boundary or gap strictly inside, gathered whole or as a
        # shuffled batch, and come back C-contiguous even from a strided
        # column view, which every split set shares instead of copying it. A
        # split with no such start raises.
        n = slots * days
        rng = np.random.default_rng(n * 1000 + d)
        wide = rng.normal(size=(n, d + 2))
        x = wide[:, 1 : d + 1] if strided else np.ascontiguousarray(wide[:, :d])
        y = wide[:, -1]
        span = m + t
        try:
            counts = split_day_counts(days, ratios)
        except InsufficientData:
            with pytest.raises(InsufficientData):
                make_windows(x, y, m, t, ratios, slots, gaps)
            return
        ends = np.cumsum(counts) * slots
        per_split = [
            [s for s in range(lo, hi - span + 1) if not any(s < g < s + span for g in gaps)]
            for lo, hi in zip([0, *ends[:-1]], ends)
        ]
        if not all(per_split):
            with pytest.raises(InsufficientData):
                make_windows(x, y, m, t, ratios, slots, gaps)
            return
        split = make_windows(x, y, m, t, ratios, slots, gaps)
        for ws, starts in zip(split, per_split):
            assert np.shares_memory(ws.view, x)
            idx = rng.permutation(len(starts))[: (len(starts) + 1) // 2]
            for batch, picked in ((ws.inputs(), starts), (ws.inputs(idx), [starts[i] for i in idx])):
                assert np.array_equal(batch, np.stack([x[s : s + m] for s in picked]))
                assert batch.flags.c_contiguous
            assert np.array_equal(ws.targets, np.stack([y[s + m : s + span] for s in starts]))
            assert ws.targets.flags.c_contiguous

    def test_windows_are_not_copied(self):
        # A copy of every 18-sample window of 100 days would take 12.4 MB,
        # 18 times the series.
        x = np.random.default_rng(0).normal(size=(100 * 288, 3))
        tracemalloc.start()
        try:
            split = make_windows(x, x[:, -1], 18, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6
        assert all(np.shares_memory(ws.view, x) and not ws.view.flags.writeable for ws in split)

    def test_split_requires_whole_days(self):
        x = np.arange(100.0)
        with pytest.raises(InsufficientData):
            make_windows(x, x, 18, 1, (3, 1, 1))

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_day_counts(20, (3, 0, 1))


class TestFusion:
    def test_matrix_columns(self):
        road = synthesize_road_series(1, 2)
        calls = CallSeries(np.arange(len(road)))
        mat = build_feature_matrix(road, calls)
        assert mat.shape == (288, 3)
        assert np.array_equal(mat[:, 0], road.flows.astype(float))
        assert np.array_equal(mat[:, 1], discretize_speeds(road.speeds).astype(float))
        assert np.array_equal(mat[:, 2], np.arange(288.0))

    def test_misaligned_series_rejected(self):
        road = synthesize_road_series(1, 2)
        with pytest.raises(ValueError):
            build_feature_matrix(road, CallSeries(np.arange(100)))

    def test_mode_column_selection(self):
        mat = np.arange(30.0).reshape(10, 3)
        net = select_mode_columns(mat, "net")
        fused = select_mode_columns(mat, "net_road")
        assert net.shape == (10, 1)
        assert np.array_equal(net[:, 0], mat[:, 2])  # calls only
        assert np.array_equal(fused, mat)
        assert fused.flags.c_contiguous  # an F-ordered copy normalizes to other roundings
        with pytest.raises(ValueError):
            select_mode_columns(mat, "road")

    def test_calls_last_in_every_mode(self):
        # Callers take the calls column as the last selected one.
        assert all(cols[-1] == CALLS_COLUMN for cols in MODE_COLUMNS.values())

    def test_mode_window_dimensions(self):
        rng = np.random.default_rng(0)
        mat = rng.uniform(0, 10, (2 * 288 * 5, 3))
        for mode, dim in (("net", 1), ("net_road", 3)):
            sel = select_mode_columns(mat, mode)
            split = make_windows(sel, sel[:, -1], 18, 1, (3, 1, 1))
            assert split.train.input_dim == dim


@pytest.mark.parametrize(
    "call",
    [
        lambda: CallSeries(np.zeros((2, 2), dtype=np.int64)),
        lambda: CallSeries(np.array([1, -2, 3])),
        lambda: WindowSet(np.zeros((2, 3)), np.arange(2), np.zeros((2, 1))),
        lambda: WindowSet(np.zeros((2, 3, 1)), np.arange(2), np.zeros((3, 1))),
        lambda: make_windows(np.arange(30.0), np.arange(30.0), 0, 1, (1, 1, 1), 10),
        lambda: discretize_speeds(-1.0),
        lambda: discretize_speeds(np.array([10.0, np.nan])),
        lambda: select_mode_columns(np.zeros((4, 3)), "road"),
        lambda: build_feature_matrix(synthesize_road_series(1, 2), CallSeries(np.arange(10))),
        lambda: parse_road_csv("unused.csv", impute="mean"),
        lambda: parse_road_csv("unused.csv", impute=None),  # the config spells it "none"
        lambda: parse_road_csv("unused.csv", column_map={"volume": "Total Flow"}),
    ],
    ids=[
        "call-series-ndim",
        "call-series-negative",
        "window-set-ndim",
        "window-set-count",
        "make-windows-m",
        "discretize-speed",
        "discretize-speeds-nan",
        "select-mode-columns",
        "feature-matrix-length",
        "parse-impute",
        "parse-impute-none",
        "parse-column-map",
    ],
)
def test_data_path_errors_are_typed(call):
    # LoadcastError for the CLI, ValueError for callers that catch that.
    with pytest.raises(LoadcastError) as info:
        call()
    assert isinstance(info.value, ValueError)
