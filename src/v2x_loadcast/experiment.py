"""End-to-end runs: simulate calls, build features, train, evaluate.

`run_experiment` executes one (scenario, feature mode, seed) cell and
returns a RunReport; `run_scenario_grid` sweeps a list of experiment specs
(typically the built-in seven-scenario grid in both feature modes) and
collects the per-run reports into a Net vs Net&Road comparison.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .calls import ScenarioConfig, check_call_budget, simulate_calls
from .errors import ConfigError, LoadcastError, WorkerDied, describe
from .features import (
    FEATURE_NAMES,
    MODE_COLUMNS,
    NormStats,
    SplitWindows,
    WindowSet,
    build_feature_matrix,
    fit_normalizer,
    make_windows,
    select_mode_columns,
    split_day_counts,
)
from .metrics import metric_mae
from .rng import derive_int, derive_rng
from .road import POINTS_PER_DAY, SLOT_SECONDS, RoadSeries
from .training import TrainingConfig, TrainingResult, evaluate_mae, train_forecaster

THREADS_ENV = "V2X_LOADCAST_THREADS"  # caps grid worker processes
# Thread-count setters of the OpenBLAS builds numpy ships or links against:
# numpy's own 64-bit build, a system 64-bit build, a system 32-bit build.
BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
FEATURE_MODES = tuple(MODE_COLUMNS)
PR_SET_PDEATHSIG = 1  # Linux prctl option: the signal a process gets when its parent thread exits


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of the ablation: scenario x feature mode x seed."""

    scenario: ScenarioConfig
    feature_mode: str = "net_road"
    window: int = 18  # M, observation steps
    horizon: int = 1  # T, prediction steps
    split: tuple[int, int, int] = (3, 1, 1)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 1

    def __post_init__(self):
        if self.feature_mode not in FEATURE_MODES:
            raise ConfigError(f"feature_mode must be one of {FEATURE_MODES}")
        if self.window < 1 or self.horizon < 1:
            raise ConfigError("window and horizon must be >= 1")
        if len(self.split) != 3 or any(r <= 0 for r in self.split):
            raise ConfigError(f"split must be three positive integers, got {self.split}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def scenario_id(self) -> str:
        s = self.scenario
        return f"r{s.cell_range_miles:g}_l{s.lam:g}_h{s.handover_prob:g}"


@dataclass
class RunReport:
    """Everything one run produced; JSON round-trips losslessly."""

    scenario_id: str
    lam: float
    handover_prob: float
    cell_range_miles: float
    mode: str
    seed: int
    test_mae: float
    test_mae_raw: float
    val_mae: float
    baseline_mae: float
    epochs: int
    best_epoch: int
    train_losses: list[float]
    val_maes: list[float]
    norm_checksum: str
    wall_ms: float

    def to_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)


def derive_scenario(spec: ExperimentSpec) -> ScenarioConfig:
    """Scenario with its simulation seed derived from the run seed."""
    return replace(spec.scenario, seed=derive_int(spec.seed, "simulate"))


def prepare_windows(spec: ExperimentSpec, road: RoadSeries) -> tuple[SplitWindows, NormStats]:
    """Simulate, fuse, normalize (train statistics only) and window the data.

    Returns the split windows and the normalizer fitted on the training rows.
    """
    calls = simulate_calls(road, derive_scenario(spec))
    raw = build_feature_matrix(road, calls)
    selected = select_mode_columns(raw, spec.feature_mode)
    names = tuple(FEATURE_NAMES[c] for c in MODE_COLUMNS[spec.feature_mode])

    train_days, _, _ = split_day_counts(road.days, spec.split)
    train_rows = train_days * POINTS_PER_DAY
    stats = fit_normalizer(selected[:train_rows], names)
    normalized = stats.transform(selected)

    windows = make_windows(
        normalized,
        normalized[:, -1],  # calls is last in every mode's columns
        spec.window,
        spec.horizon,
        spec.split,
        POINTS_PER_DAY,
        road.gap_indices(),
    )
    return windows, stats


def naive_baseline(windows: WindowSet) -> float:
    """Persistence floor: predict the last observed call count for every horizon step."""
    last = windows.view[windows.starts, -1, -1]  # calls is always the last feature
    preds = np.repeat(last[:, None], windows.horizon, axis=1)
    return metric_mae(preds, windows.targets)


def run_experiment(spec: ExperimentSpec, road: RoadSeries) -> RunReport:
    """Train on the first split, early-stop on the second, report on the third."""
    started = time.perf_counter()
    windows, stats = prepare_windows(spec, road)

    result: TrainingResult = train_forecaster(
        windows.train, windows.val, spec.training, derive_rng(spec.seed, "train")
    )
    test_mae = evaluate_mae(result.params, windows.test)
    wall_ms = (time.perf_counter() - started) * 1e3

    return RunReport(
        scenario_id=spec.scenario_id,
        lam=spec.scenario.lam,
        handover_prob=spec.scenario.handover_prob,
        cell_range_miles=spec.scenario.cell_range_miles,
        mode=spec.feature_mode,
        seed=spec.seed,
        test_mae=test_mae,
        test_mae_raw=test_mae * float(stats.std[-1]),  # calls is last in every mode
        val_mae=min(result.val_maes),
        baseline_mae=naive_baseline(windows.test),
        epochs=len(result.train_losses),
        best_epoch=result.best_epoch,
        train_losses=result.train_losses,
        val_maes=result.val_maes,
        norm_checksum=stats.checksum(),
        wall_ms=wall_ms,
    )


@dataclass
class GridRow:
    """Outcome of one grid cell: a report, or the error that stopped it."""

    spec: ExperimentSpec
    report: RunReport | None = None
    error: str | None = None


def _worker_cap() -> int:
    """`V2X_LOADCAST_THREADS` if set, else the cores this process may run on."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None


def openblas_function(names: Sequence[str]):
    """The first of `names` exported by an OpenBLAS mapped into this process, or None.

    Only Linux's /proc/self/maps is read; elsewhere the answer is None.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


def _grid_row(spec: ExperimentSpec, road: RoadSeries) -> GridRow:
    try:
        return GridRow(spec, report=run_experiment(spec, road))
    except (LoadcastError, MemoryError) as exc:
        return GridRow(spec, error=describe(exc))


_worker_road: RoadSeries | None = None  # the grid's road, in a forked worker


def _init_worker(set_blas_threads, road: RoadSeries, parent: int) -> None:
    """Tie the worker's life to its parent's, leave SIGINT to the parent, pin OpenBLAS to
    one thread and keep the road; `fork` hands the setter and the road over unpickled.

    Where the C library has Linux's prctl, the kernel sends the worker SIGKILL
    once the thread that forked it exits: the pool forks every worker from
    the thread that calls `run_scenario_grid` (on the first `submit`, for
    the fork context on Python 3.10 and 3.11), which joins them before it
    returns. A parent that died before that took effect is caught by the pid
    check.
    """
    global _worker_road
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, TypeError, AttributeError):  # no C library handle, or no prctl
        pass
    else:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)  # -1 only for an invalid signal
    if os.getppid() != parent:
        os._exit(1)
    # Ctrl-C reaches the whole process group; the parent alone answers it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_blas_threads(1)
    _worker_road = road


def _worker_row(spec: ExperimentSpec) -> GridRow:
    return _grid_row(spec, _worker_road)


def run_scenario_grid(specs: Sequence[ExperimentSpec], road: RoadSeries) -> list[GridRow]:
    """Run every spec; per-row failures are recorded and the grid continues.

    Every row runs in one of `min(len(specs), _worker_cap())` forked worker
    processes, one row or one worker included, with OpenBLAS pinned to one
    thread so that workers do not contend for cores. Workers get the road
    once, at fork, so tasks carry only their spec. The pool is created and
    joined inside the call, so no process outlives it; on Linux a worker is
    also killed when its parent dies. Only a host without `fork` or a known
    OpenBLAS setter runs the rows in this process, one after another.
    Reports come back in spec order and do not depend on the
    worker count. A row that runs out of memory fails with `MemoryError`. A
    worker that dies (killed by a signal, say) breaks the pool: every row
    not finished by then, its own and those running beside it, comes back
    failed with `WorkerDied`, and the finished rows keep their reports. A
    scenario that `check_call_budget` refuses fails the grid with
    `ConfigError` before any row starts. A `KeyboardInterrupt` (Ctrl-C, which
    the workers ignore) cancels the rows not started and terminates the
    workers before it propagates.
    """
    if not specs:
        raise ConfigError("empty scenario grid")
    for spec in specs:
        check_call_budget(road, spec.scenario)
    workers = min(len(specs), _worker_cap())
    # Imported here: at module import they would add ~15 ms to every CLI start.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    set_blas_threads = openblas_function(BLAS_SETTERS)
    if set_blas_threads is None or "fork" not in multiprocessing.get_all_start_methods():
        return [_grid_row(s, road) for s in specs]
    set_blas_threads.argtypes, set_blas_threads.restype = [ctypes.c_int], None
    forked_before = set(multiprocessing.active_children())
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(set_blas_threads, road, os.getpid()),
    ) as pool:
        rows = []
        try:
            futures = [pool.submit(_worker_row, spec) for spec in specs]
            for spec, future in zip(specs, futures):
                try:
                    rows.append(future.result())
                except BrokenProcessPool as exc:
                    rows.append(GridRow(spec, error=describe(WorkerDied(str(exc)))))
        except KeyboardInterrupt:
            # Drop the rows not started and stop the running ones: leaving the pool waits for neither.
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in set(multiprocessing.active_children()) - forked_before:
                worker.terminate()
            raise
        return rows


def table_scenarios(*, exact_flow: bool = False) -> list[ScenarioConfig]:
    """The built-in seven-scenario grid (handover sweep, rate bump, wide cell)."""
    one = 60.0 / SLOT_SECONDS  # one request per 5-minute interval, expressed per minute
    three = 180.0 / SLOT_SECONDS
    rows = [
        (one, 1.0, 1.5),
        (one, 0.8, 1.5),
        (one, 0.5, 1.5),
        (one, 0.2, 1.5),
        (one, 0.0, 1.5),
        (three, 0.5, 1.5),
        (one, 0.5, 6.0),
    ]
    return [
        ScenarioConfig(lam, h, rng_miles, exact_flow=exact_flow)
        for lam, h, rng_miles in rows
    ]


def grid_specs(
    scenarios: Sequence[ScenarioConfig],
    seeds: Sequence[int],
    modes: Sequence[str] = FEATURE_MODES,
    **fields: Any,
) -> list[ExperimentSpec]:
    """Every scenario x mode x seed; `fields` are the other `ExperimentSpec` fields."""
    return [
        ExperimentSpec(scenario, mode, seed=seed, **fields)
        for scenario in scenarios
        for mode in modes
        for seed in seeds
    ]


def comparison_table(rows: Sequence[GridRow]) -> str:
    """Two-column text table of mean test MAE per scenario: Net | Net&Road."""
    cells: dict[str, dict[str, list[float]]] = {}
    meta: dict[str, tuple[float, float, float]] = {}
    for row in rows:
        if row.report is None:
            continue
        r = row.report
        cells.setdefault(r.scenario_id, {}).setdefault(r.mode, []).append(r.test_mae)
        meta[r.scenario_id] = (r.lam, r.handover_prob, r.cell_range_miles)
    # A space separates every column, so a value wider than its column pushes
    # the rest of the row right instead of running into its neighbour.
    lines = [f"{'scenario':<22} {'lam':>6} {'h':>5} {'range':>6} {'Net':>9} {'Net&Road':>9}"]
    for sid, modes in cells.items():
        lam, h, rng_miles = meta[sid]
        net = np.mean(modes["net"]) if "net" in modes else float("nan")
        fused = np.mean(modes["net_road"]) if "net_road" in modes else float("nan")
        lines.append(
            f"{sid:<22} {lam:>6.2f} {h:>5.2f} {rng_miles:>6.1f} {net:>9.4f} {fused:>9.4f}"
        )
    return "\n".join(lines)
