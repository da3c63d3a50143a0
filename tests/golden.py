"""Golden outputs: values the package must keep producing, stored in golden.json.

Regenerate the file from the current code with

    PYTHONPATH=src python tests/golden.py

and say in CHANGES.md why any value moved. `test_golden.py` compares
against the file. The integer sections must match anywhere. The floats of
the trend runs depend on the numpy build, its BLAS and the CPU's SIMD
paths, so they are compared only where those match the recorded ones, and
so is the sha256 of the `metrics.csv` that the default run writes from them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from v2x_loadcast.calls import ScenarioConfig, simulate_calls
from v2x_loadcast.cli import _write_outputs
from v2x_loadcast.config import AppConfig
from v2x_loadcast.experiment import (ExperimentSpec, GridRow, derive_scenario, run_scenario_grid,
                                     table_scenarios)
from v2x_loadcast.rng import derive_int
from v2x_loadcast.road import RoadSeries, synthesize_road_series

GOLDEN = Path(__file__).with_name("golden.json")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
ROOT_SEED = 1
TREND_SEEDS = (1, 2, 3)
TREND_SCENARIOS = {
    "base": ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5),
    "h0": ScenarioConfig(lam=0.2, handover_prob=0.0, cell_range_miles=1.5),
    "h1": ScenarioConfig(lam=0.2, handover_prob=1.0, cell_range_miles=1.5),
    "wide": ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=6.0),
}
TREND_RUNS = [("base", "net"), ("base", "net_road"), ("h0", "net_road"),
              ("h1", "net_road"), ("wide", "net_road")]


def road20() -> RoadSeries:
    """The 20-day synthetic road of a `--days 20` run with root seed 1."""
    return synthesize_road_series(20, derive_int(ROOT_SEED, "synth"))


def trend_reports(road: RoadSeries) -> dict:
    """The 15 runs behind acceptance criteria 3-5: {(scenario_key, mode, seed): RunReport}."""
    keys = [(key, mode, seed) for key, mode in TREND_RUNS for seed in TREND_SEEDS]
    rows = run_scenario_grid(
        [ExperimentSpec(TREND_SCENARIOS[key], mode, seed=seed) for key, mode, seed in keys], road
    )
    failed = [f"{key}: {row.error}" for key, row in zip(keys, rows) if row.report is None]
    assert not failed, failed
    return {key: row.report for key, row in zip(keys, rows)}


def trend_floats(reports: dict) -> dict:
    return {
        "/".join(map(str, key)): {
            "test_mae": repr(report.test_mae),
            "val_mae": repr(report.val_mae),
            "epochs": report.epochs,
            "norm_checksum": report.norm_checksum,
        }
        for key, report in reports.items()
    }


def run_metrics_sha256(reports: dict) -> str:
    """sha256 of the `metrics.csv` of the default `run --days 20`, whose six runs are the `base` trend runs."""
    config = AppConfig(days=20)
    specs = config.specs(table=False)
    assert config.seed == ROOT_SEED and all(
        spec == ExperimentSpec(TREND_SCENARIOS["base"], spec.feature_mode, seed=spec.seed) for spec in specs
    ), "the default run is no longer the base trend runs"
    with tempfile.TemporaryDirectory() as out_dir:
        _write_outputs([GridRow(spec, reports["base", spec.feature_mode, spec.seed]) for spec in specs],
                       Path(out_dir))
        return hashlib.sha256((Path(out_dir) / "metrics.csv").read_bytes()).hexdigest()


def table_counts(road: RoadSeries) -> dict:
    """sha256 of each table scenario's call counts, as a seed-1 grid row simulates them."""
    return {
        spec.scenario_id: hashlib.sha256(
            simulate_calls(road, derive_scenario(spec)).counts.astype("<i8").tobytes()
        ).hexdigest()
        for spec in (ExperimentSpec(scenario, seed=1) for scenario in table_scenarios())
    }


def datapath_signature(seed: int = 1) -> dict:
    """Call totals and window counts of one operation of the `datapath` benchmark workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(workloads)
    with tempfile.TemporaryDirectory() as workdir:
        _, _, counts, windows = workloads.Datapath(seed, Path(workdir)).operation(lambda: None)
    return {
        "call_totals": [int(c.sum()) for c in counts],
        "windows": {f"{k}/{mode}": list(n) for (k, mode), n in sorted(windows.items())},
    }


def environment() -> dict:
    """What the trend floats depend on besides the code: numpy, its BLAS, the CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu_features": " ".join(sorted(name for name, on in __cpu_features__.items() if on)),
    }


def main() -> None:
    road = road20()
    reports = trend_reports(road)
    golden = {
        "environment": environment(),
        "table_counts": table_counts(road),
        "datapath": datapath_signature(),
        "trend": trend_floats(reports),
        "run_metrics_csv": run_metrics_sha256(reports),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
