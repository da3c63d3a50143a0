import ctypes
import glob
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import src_env
from v2x_loadcast.calls import ScenarioConfig, simulate_calls
from v2x_loadcast import experiment
from v2x_loadcast.cli import dispatch
from v2x_loadcast.errors import ConfigError, DegenerateFeature, EmptyBatch
from v2x_loadcast.experiment import (
    ExperimentSpec,
    GridRow,
    RunReport,
    comparison_table,
    grid_specs,
    naive_baseline,
    prepare_windows,
    run_experiment,
    run_scenario_grid,
    table_scenarios,
)
from v2x_loadcast.features import WindowSet, fit_normalizer, FEATURE_NAMES
from v2x_loadcast.rng import derive_int, derive_rng
from v2x_loadcast.road import RoadSeries, synthesize_road_series
from v2x_loadcast.training import TrainingConfig

TINY = TrainingConfig(hidden_size=6, max_epochs=2, patience=2)


@pytest.fixture(scope="module")
def road6():
    return synthesize_road_series(6, 97)


def small_spec(scenario=None, mode="net_road", seed=1, training=TINY):
    scenario = scenario or ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5)
    return ExperimentSpec(scenario, mode, training=training, seed=seed)


# Pool sizes, and the in-process loop of a host without fork or a BLAS setter.
ROW_PATHS = [1, 2, "fallback"]


def use_row_path(monkeypatch, path) -> None:
    """Rows in a pool of `path` forked workers, or in process as on a host without a BLAS setter."""
    if path == "fallback":
        monkeypatch.setattr(experiment, "openblas_function", _no_blas_setter)
    else:
        monkeypatch.setenv(experiment.THREADS_ENV, str(path))


class TestSeedStreams:
    """Every run's randomness comes from these streams; a changed value changes every output."""

    def test_derived_seeds_are_pinned(self):
        got = [derive_int(s, label) for s in (0, 1, 2**32 + 5) for label in ("synth", "simulate")]
        assert got == [2040532768, 896789747, 962633333, 4063852668, 611569847, 4238636311]
        assert derive_rng(1, "train").integers(1 << 62) == 2791111243330841505

    @pytest.mark.parametrize("derive", [derive_int, derive_rng])
    def test_negative_root_seed_is_config_error(self, derive):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            derive(-1, "train")


class TestRunExperiment:
    def test_deterministic_given_seed(self, road6):
        a = run_experiment(small_spec(), road6).to_dict()
        b = run_experiment(small_spec(), road6).to_dict()
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

    def test_different_seeds_differ(self, road6):
        a = run_experiment(small_spec(seed=1), road6)
        b = run_experiment(small_spec(seed=2), road6)
        assert a.test_mae != b.test_mae

    def test_all_zero_calls_degenerate(self, road6):
        scenario = ScenarioConfig(lam=0.0, handover_prob=0.0, cell_range_miles=1.5)
        with pytest.raises(DegenerateFeature):
            run_experiment(small_spec(scenario), road6)

    def test_report_round_trips_losslessly(self, road6):
        report = run_experiment(small_spec(), road6)
        payload = json.loads(json.dumps(report.to_dict()))
        assert RunReport(**payload) == report

    def test_modes_share_the_pipeline(self, road6):
        net = run_experiment(small_spec(mode="net"), road6)
        fused = run_experiment(small_spec(mode="net_road"), road6)
        assert net.mode == "net" and fused.mode == "net_road"
        assert net.scenario_id == fused.scenario_id

    def test_raw_mae_is_std_scaled(self, road6):
        report = run_experiment(small_spec(), road6)
        spec = small_spec()
        _, stats = prepare_windows(spec, road6)
        assert report.test_mae_raw == pytest.approx(report.test_mae * stats.std[-1])
        assert report.norm_checksum == stats.checksum()


class TestLeakage:
    def test_normalizer_fitted_on_train_rows_only(self, road6):
        spec = small_spec()
        _, stats = prepare_windows(spec, road6)
        from v2x_loadcast.calls import simulate_calls
        from v2x_loadcast.experiment import derive_scenario
        from v2x_loadcast.features import build_feature_matrix

        calls = simulate_calls(road6, derive_scenario(spec))
        raw = build_feature_matrix(road6, calls)
        train_rows = 4 * 288  # 6 days split 3:1:1 -> 4/1/1
        refit = fit_normalizer(raw[:train_rows], FEATURE_NAMES)
        assert refit.checksum() == stats.checksum()
        val_fit = fit_normalizer(raw[train_rows : 5 * 288], FEATURE_NAMES)
        assert val_fit.checksum() != stats.checksum()


class TestBaseline:
    def test_constant_series_gives_zero_mae(self):
        inputs = np.full((7, 4, 1), 3.3)
        targets = np.full((7, 1), 3.3)
        assert naive_baseline(WindowSet(inputs, np.arange(7), targets)) == 0.0

    def test_alternating_series_error_is_step_size(self):
        # Series 0,1,0,1,...; persistence is wrong by exactly 1 at every step.
        series = np.array([0.0, 1.0] * 8)
        inputs = np.stack([series[i : i + 4] for i in range(10)])[:, :, None]
        targets = series[4:14, None]
        assert naive_baseline(WindowSet(inputs, np.arange(10), targets)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyBatch):
            naive_baseline(WindowSet(np.zeros((0, 3, 1)), np.arange(0), np.zeros((0, 1))))

    def test_trained_model_beats_persistence(self, road6):
        config = TrainingConfig(hidden_size=16, max_epochs=10, patience=4)
        report = run_experiment(small_spec(training=config), road6)
        assert report.test_mae < report.baseline_mae


class TestGrid:
    def test_table_has_seven_scenarios(self):
        scenarios = table_scenarios()
        assert len(scenarios) == 7
        assert {s.lam for s in scenarios} == {0.2, 0.6}
        assert {s.handover_prob for s in scenarios} == {1.0, 0.8, 0.5, 0.2, 0.0}
        assert {s.cell_range_miles for s in scenarios} == {1.5, 6.0}

    def test_grid_runs_every_cell(self, road6):
        specs = grid_specs(table_scenarios(), seeds=[1], training=TINY)
        rows = run_scenario_grid(specs, road6)
        assert len(rows) == 14  # seven scenarios x two modes
        assert all(row.report is not None for row in rows)
        table = comparison_table(rows)
        assert "Net&Road" in table and len(table.splitlines()) == 8

    def test_table_columns_stay_apart_for_wide_values(self):
        scenario = ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5)
        spec = ExperimentSpec(scenario)
        rows = []
        for mode, mae in (("net", 1522188.1), ("net_road", 2.9)):
            report = RunReport(
                spec.scenario_id, 0.2, 0.5, 1.5, mode, 1, mae, mae, mae, mae,
                1, 1, [1.0], [mae], "0" * 64, 1.0,
            )
            rows.append(GridRow(replace(spec, feature_mode=mode), report))
        header, line = comparison_table(rows).splitlines()
        fields = line.split()
        assert fields == [spec.scenario_id, "0.20", "0.50", "1.5", "1522188.1000", "2.9000"]
        assert len(header.split()) == 6

    def test_empty_grid_rejected(self, road6):
        with pytest.raises(ConfigError, match="empty scenario grid") as info:
            run_scenario_grid([], road6)
        assert isinstance(info.value, ValueError)

    def test_grid_deterministic_and_order_independent(self, road6, monkeypatch):
        specs = grid_specs(table_scenarios()[:2], seeds=[1], training=TINY)
        use_row_path(monkeypatch, "fallback")
        serial = run_scenario_grid(specs, road6)
        use_row_path(monkeypatch, 2)
        parallel = run_scenario_grid(specs, road6)
        assert [r.spec for r in parallel] == specs
        assert _reports(serial) == _reports(parallel)

    @pytest.mark.parametrize("missing", ["blas-setter", "fork"])
    def test_fallback_runs_rows_in_process_with_the_pool_reports(
        self, road6, monkeypatch, missing
    ):
        specs = grid_specs(table_scenarios()[:2], seeds=[1], training=TINY)
        use_row_path(monkeypatch, 2)
        pooled = run_scenario_grid(specs, road6)
        if missing == "fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", _spawn_only)
        else:
            use_row_path(monkeypatch, "fallback")
        assert _reports(run_scenario_grid(specs, road6)) == _reports(pooled)
        monkeypatch.setattr(experiment, "run_experiment", _pid)
        assert [row.report for row in run_scenario_grid(specs, road6)] == [os.getpid()] * len(specs)

    def test_workers_get_the_road_without_pickling_it(self, road6, monkeypatch):
        specs = grid_specs(table_scenarios()[:2], seeds=[1], training=TINY)
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        serial = run_scenario_grid(specs, road6)
        monkeypatch.setattr(RoadSeries, "__reduce_ex__", _refuse_pickle)
        monkeypatch.setenv(experiment.THREADS_ENV, "2")
        parallel = run_scenario_grid(specs, road6)
        for a, b in zip(serial, parallel):
            da, db = a.report.to_dict(), b.report.to_dict()
            da.pop("wall_ms"), db.pop("wall_ms")
            assert da == db

    def test_failing_row_recorded_grid_continues(self, road6, monkeypatch):
        dead = ScenarioConfig(lam=0.0, handover_prob=0.0, cell_range_miles=1.5)
        live = ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5)
        specs = grid_specs([dead, live], seeds=[1, 2], modes=("net_road",), training=TINY)
        monkeypatch.setenv(experiment.THREADS_ENV, "2")
        rows = run_scenario_grid(specs, road6)
        assert all(r.report is None and "DegenerateFeature" in r.error for r in rows[:2])
        assert all(r.report is not None and r.error is None for r in rows[2:])

    @pytest.mark.parametrize("workers", ROW_PATHS)
    def test_diverged_row_recorded_grid_continues(self, road6, monkeypatch, workers):
        ok = small_spec()
        diverging = small_spec(training=replace(TINY, learning_rate=1e200))
        use_row_path(monkeypatch, workers)
        rows = run_scenario_grid([diverging, ok], road6)
        assert rows[0].report is None and rows[0].error.startswith("Diverged: epoch 1:")
        assert rows[1].report is not None and rows[1].error is None

    @pytest.mark.parametrize("workers", ROW_PATHS)
    def test_unexpected_error_reaches_caller_with_its_type(self, road6, monkeypatch, workers):
        monkeypatch.setattr(experiment, "run_experiment", _raise_lookup_error)
        specs = grid_specs(table_scenarios()[:2], seeds=[1], training=TINY)
        use_row_path(monkeypatch, workers)
        with pytest.raises(LookupError, match="not a LoadcastError"):
            run_scenario_grid(specs, road6)

    @pytest.mark.parametrize("workers", ROW_PATHS)
    def test_memory_error_row_recorded_grid_continues(self, road6, monkeypatch, workers):
        monkeypatch.setattr(experiment, "run_experiment", _seed_or_no_memory_on_seed_2)
        specs = grid_specs(table_scenarios()[:1], seeds=[1, 2, 3], modes=("net",))
        use_row_path(monkeypatch, workers)
        rows = run_scenario_grid(specs, road6)
        assert [row.report for row in rows] == [1, None, 3]
        assert rows[1].error.startswith("MemoryError: Unable to allocate"), rows[1].error

    @pytest.mark.parametrize("workers", ROW_PATHS)
    def test_row_error_with_a_line_break_recorded_on_one_line(self, road6, monkeypatch, workers):
        monkeypatch.setattr(experiment, "run_experiment", _two_line_error)
        use_row_path(monkeypatch, workers)
        [row] = run_scenario_grid([small_spec()], road6)
        assert row.report is None and row.error == "DegenerateFeature: first line second line"

    @pytest.mark.parametrize("workers", ROW_PATHS)
    def test_row_without_a_helper_thread_recorded_grid_continues(self, road6, monkeypatch, workers):
        monkeypatch.setattr(experiment, "run_experiment", _seed_or_simulate_on_seed_2)
        monkeypatch.setattr(threading.Thread, "start", _start_unless_simulate_calls)
        specs = grid_specs(table_scenarios()[:1], seeds=[1, 2, 3], modes=("net",))
        use_row_path(monkeypatch, workers)
        rows = run_scenario_grid(specs, road6)
        assert [row.report for row in rows] == [1, None, 3]
        assert rows[1].error == (
            "ResourceExhausted: cannot start the simulate_calls helper thread: can't start new thread"
        )

    def test_no_process_outlives_the_grid(self, road6, monkeypatch):
        specs = grid_specs(table_scenarios()[:2], seeds=[1], training=TINY)
        monkeypatch.setenv(experiment.THREADS_ENV, "2")
        run_scenario_grid(specs, road6)
        assert multiprocessing.active_children() == []
        assert _child_pids() == []

    def test_killed_worker_fails_its_row_and_the_rest_are_written(
        self, tmp_path, monkeypatch, capsys
    ):
        if experiment.openblas_function(experiment.BLAS_SETTERS) is None:
            pytest.skip("no OpenBLAS thread setter in this process, so rows run serially")
        real, parent = experiment.run_experiment, os.getpid()

        def die_on_seed_2(spec, road):
            # Seed 2's worker kills itself once seeds 1 and 3 have finished.
            if spec.seed != 2:
                report = real(spec, road)
                (tmp_path / f"done{spec.seed}").touch()
                return report
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("done*"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)  # let the finished rows reach the parent
            assert os.getpid() != parent, "the row ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(experiment, "run_experiment", die_on_seed_2)
        monkeypatch.setenv(experiment.THREADS_ENV, "2")
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(
            "days = 6\nfeature_mode = net_road\nhidden_size = 6\nmax_epochs = 1\nseeds = 1,2,3\n"
        )
        assert dispatch(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: WorkerDied: "), err
        assert err[0].endswith("/net_road/seed2)"), err
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == ["1", "3"]
        assert len(list(out.glob("*.json"))) == 2
        assert multiprocessing.active_children() == []
        assert _child_pids() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
    def test_workers_die_with_their_parent(self):
        if experiment.openblas_function(experiment.BLAS_SETTERS) is None:
            pytest.skip("no OpenBLAS thread setter in this process, so rows run serially")
        # A grid whose two rows never finish, in a parent that is then killed.
        script = textwrap.dedent("""
            import time
            from v2x_loadcast import experiment
            from v2x_loadcast.road import synthesize_road_series
            experiment.run_experiment = lambda spec, road: time.sleep(60)
            specs = experiment.grid_specs(experiment.table_scenarios()[:2], seeds=[1])
            experiment.run_scenario_grid(specs, synthesize_road_series(1, 1))
        """)
        env = dict(src_env(), **{experiment.THREADS_ENV: "2"})
        parent = subprocess.Popen([sys.executable, "-c", script], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and time.monotonic() < deadline and parent.poll() is None:
                time.sleep(0.05)
                workers = _child_pids(parent.pid)
            assert len(workers) == 2, (workers, parent.poll())
            parent.kill()
            parent.wait()
            deadline = time.monotonic() + 2
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            parent.kill()
            parent.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(int(pid), signal.SIGKILL)

    def test_rows_run_in_workers_with_one_blas_thread(self, road6, monkeypatch):
        if experiment.openblas_function(experiment.BLAS_SETTERS) is None:
            pytest.skip("no OpenBLAS thread setter in this process")
        monkeypatch.setattr(experiment, "run_experiment", _worker_pid_and_blas_threads)
        specs = grid_specs(table_scenarios()[:2], seeds=[1], training=TINY)
        monkeypatch.setenv(experiment.THREADS_ENV, "2")
        rows = run_scenario_grid(specs, road6)
        assert all(pid != os.getpid() for pid, _ in (row.report for row in rows))
        assert [threads for _, threads in (row.report for row in rows)] == [1] * len(specs)

    @pytest.mark.parametrize("n_specs, cap", [(1, None), (2, "1")], ids=["one-spec", "cap-1"])
    def test_one_row_or_one_worker_still_runs_in_a_pinned_worker(
        self, road6, monkeypatch, n_specs, cap
    ):
        if experiment.openblas_function(experiment.BLAS_SETTERS) is None:
            pytest.skip("no OpenBLAS thread setter in this process")
        monkeypatch.setattr(experiment, "run_experiment", _worker_pid_and_blas_threads)
        specs = grid_specs(table_scenarios()[:1], seeds=[1], training=TINY)[:n_specs]
        if cap is None:
            monkeypatch.delenv(experiment.THREADS_ENV, raising=False)
        else:
            monkeypatch.setenv(experiment.THREADS_ENV, cap)
        pids, threads = zip(*(row.report for row in run_scenario_grid(specs, road6)))
        assert os.getpid() not in pids and threads == (1,) * n_specs

    def test_thread_cap_read_from_environment(self, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "3")
        assert experiment._worker_cap() == 3
        monkeypatch.setenv(experiment.THREADS_ENV, "0")
        assert experiment._worker_cap() == 1
        monkeypatch.delenv(experiment.THREADS_ENV)
        assert experiment._worker_cap() == len(os.sched_getaffinity(0))
        monkeypatch.setenv(experiment.THREADS_ENV, "two")
        with pytest.raises(ConfigError, match=experiment.THREADS_ENV):
            experiment._worker_cap()


def _reports(rows) -> list[dict]:
    """The rows' reports without their wall times."""
    dicts = [row.report.to_dict() for row in rows]
    for d in dicts:
        d.pop("wall_ms")
    return dicts


def _no_blas_setter(names):
    return None


def _spawn_only():
    return ["spawn"]


def _child_pids(pid="self") -> list[str]:
    children = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            children += Path(path).read_text().split()
        except FileNotFoundError:  # the thread ended after the glob; it has no children
            pass
    return children


def _running(pid: str) -> bool:
    """Whether process `pid` exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# Stand-ins for run_experiment. Workers are forked, so a monkeypatched module
# attribute is what they call.
def _raise_lookup_error(spec, road):
    raise LookupError("not a LoadcastError")


def _refuse_pickle(self, protocol):
    raise AssertionError("the road was pickled for a grid task")


def _pid(spec, road):
    return os.getpid()


def _seed_or_no_memory_on_seed_2(spec, road):
    if spec.seed == 2:
        np.empty(1 << 62, dtype=np.uint8)  # 4 EiB: numpy raises its own MemoryError subclass
    return spec.seed


def _two_line_error(spec, road):
    raise DegenerateFeature("first line\nsecond line")


def _seed_or_simulate_on_seed_2(spec, road):
    if spec.seed == 2:
        simulate_calls(road, spec.scenario)
    return spec.seed


_start_thread = threading.Thread.start


def _start_unless_simulate_calls(thread):
    """`Thread.start`, except that a `simulate_calls` helper cannot start."""
    if thread.name.startswith("simulate_calls"):
        raise RuntimeError("can't start new thread")
    _start_thread(thread)


def _worker_pid_and_blas_threads(spec, road):
    getter = experiment.openblas_function(
        [name.replace("_set_", "_get_") for name in experiment.BLAS_SETTERS]
    )
    getter.restype = ctypes.c_int
    return os.getpid(), getter()


class TestSpecValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            small_spec(mode="road_only")

    def test_bad_split_rejected(self):
        scenario = ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5)
        with pytest.raises(ValueError):
            ExperimentSpec(scenario, split=(3, 0, 1))

    @pytest.mark.parametrize("fields", [
        {"split": (3, 1)},
        {"split": (3, 1, 1, 1)},
        {"window": 0},
        {"horizon": 0},
        {"seed": -1},
    ])
    def test_bad_field_is_config_error(self, fields):
        scenario = ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5)
        with pytest.raises(ConfigError, match=next(iter(fields))):
            ExperimentSpec(scenario, **fields)

    def test_grid_specs_passes_fields_through(self):
        scenarios = table_scenarios()[:2]
        specs = grid_specs(scenarios, [4, 5], ("net",), window=6, training=TINY)
        assert [(s.scenario, s.seed) for s in specs] == [
            (sc, seed) for sc in scenarios for seed in (4, 5)
        ]
        assert {(s.feature_mode, s.window, s.horizon, s.split, s.training) for s in specs} == {
            ("net", 6, ExperimentSpec.horizon, ExperimentSpec.split, TINY)
        }

    def test_scenario_id_format(self):
        spec = small_spec()
        assert spec.scenario_id == "r1.5_l0.2_h0.5"
