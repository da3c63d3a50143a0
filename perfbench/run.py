"""Benchmark of v2x-loadcast: the ablation run, the 100-day data path and gradcheck.

Run from the repository root (needs only Python and numpy):

    python3 perfbench/run.py --workload ablation --seed 1 --seconds 30 --trace 0

One operation of the workload runs at a time in a closed loop, on the same
inputs each time, until --seconds have passed and at least MIN_OPS
operations are done. Every output is checked. The run prints the
environment, a summary under the workload's own metric names, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics: medians over operations, and
setup_s, the median over SETUP_PROBES fresh processes (spread over the run)
of the time from process start to the end of set-up. Each operation and
set-up probe is timed in segments bracketed by runs of a fixed calibration
kernel, and the times reported are rescaled to the kernel's reference speed
(hostspeed.py); the summary also prints the raw times. --trace 1 alternates
untraced and traced operations, checks that both give identical outputs, and
reports per-layer metrics (medians over traced operations, raw times), the
kernel table and the tracing overhead (in rescaled seconds, against the
untraced operations after the first). Thread variables (BLAS,
V2X_LOADCAST_THREADS) are recorded as found and never set. Result files and
spans go to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Layer, Tracer, leftover_wrappers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
MIN_OPS = 3
MIN_TRACED_OPS = 2  # of each kind, traced and untraced
SETUP_PROBES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "V2X_LOADCAST_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit. Busy and self times are per operation.
PER_LAYER = {
    "nn.forward.calls": "count",
    "nn.forward.busy_s": "s",
    "nn.forward.us_per_window": "us",
    "nn.backward.calls": "count",
    "nn.backward.busy_s": "s",
    "nn.backward.us_per_window": "us",
    "training.train_forecaster.busy_s": "s",
    "training.train_forecaster.self_s": "s",
    "training.evaluate_mae.busy_s": "s",
    "training.epochs": "count",
    "training.useful_epoch_ratio": "ratio",
    "optim.rmsprop_step.calls": "count",
    "optim.rmsprop_step.busy_s": "s",
    "metrics.loss_mse.busy_s": "s",
    "experiment.run_experiment.busy_s": "s",
    "experiment.run_scenario_grid.busy_s": "s",
    "experiment.run_scenario_grid.parallelism": "ratio",
    "cli.dispatch.self_s": "s",
    "calls.simulate_calls.calls": "count",
    "calls.simulate_calls.busy_s": "s",
    "calls.simulate_calls.calls_per_s": "1/s",
    "features.build_feature_matrix.busy_s": "s",
    "features.fit_normalizer.busy_s": "s",
    "features.make_windows.busy_s": "s",
    "features.make_windows.windows": "count",
    "road.synthesize_road_series.busy_s": "s",
    "road.serialize_road_csv.busy_s": "s",
    "road.parse_road_csv.busy_s": "s",
    "road.parse_road_csv.rows_per_s": "1/s",
    "gradcheck.numerical_gradients.busy_s": "s",
    "gradcheck.numerical_gradients.self_s": "s",
    "gradcheck.max_rel_error": "ratio",
    **{
        f"{fn}.{cell}.b{batch}_ms": "ms"
        for fn in ("nn.forward", "nn.backward", "optim.rmsprop_step")
        for cell in ("lstm", "gru")
        for batch in (32, 256)
    },
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ablation", "datapath", "gradcheck"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package() -> None:
    """Import v2x_loadcast from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import v2x_loadcast

    if Path(v2x_loadcast.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"v2x_loadcast was imported from {v2x_loadcast.__file__}, not {SRC}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = shutil.which("nproc")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": git_commit(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "nproc": subprocess.run([nproc], capture_output=True, text=True).stdout.strip() if nproc else "unavailable",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def setup_probe(args) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        ready = proc.stdout.readline().strip() == b"ready"
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def timed(workload, host, tracer=None):
    """Run one operation, traced if a tracer is given.

    Returns (raw seconds, seconds at the reference host speed, output, traceback).
    """
    host.start()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            raw, error = workload.operation(host.pause), None
    except Exception:
        raw, error = None, traceback.format_exc()
    host.pause()
    return host.raw_s, host.scaled_s, raw, error


def per_layer(tracer, traced) -> dict[str, float]:
    """Per-layer metrics of each traced operation, then the median over operations."""
    rows = []
    for op, (_, result) in enumerate(traced):
        layers = tracer.layers(op)
        get = lambda name: layers.get(name, Layer(0, 0.0, 0.0, 0))  # noqa: E731
        row = {}
        for name in ("nn.forward", "nn.backward"):
            layer = get(name)
            row[f"{name}.calls"] = layer.calls
            row[f"{name}.busy_s"] = layer.busy_s
            row[f"{name}.us_per_window"] = 1e6 * layer.busy_s / layer.work if layer.work else 0.0
        for name in ("training.train_forecaster", "gradcheck.numerical_gradients"):
            row[f"{name}.busy_s"] = get(name).busy_s
            row[f"{name}.self_s"] = get(name).self_s
        for name in ("training.evaluate_mae", "metrics.loss_mse", "experiment.run_scenario_grid",
                     "features.build_feature_matrix", "features.fit_normalizer",
                     "features.make_windows", "road.synthesize_road_series",
                     "road.serialize_road_csv", "road.parse_road_csv",
                     "calls.simulate_calls", "optim.rmsprop_step"):
            row[f"{name}.busy_s"] = get(name).busy_s
        row["optim.rmsprop_step.calls"] = get("optim.rmsprop_step").calls
        runs, grid = get("experiment.run_experiment"), get("experiment.run_scenario_grid")
        row["experiment.run_experiment.busy_s"] = runs.busy_s / runs.calls if runs.calls else 0.0
        row["experiment.run_scenario_grid.parallelism"] = runs.busy_s / grid.busy_s if grid.busy_s else 0.0
        row["cli.dispatch.self_s"] = get("cli.dispatch").self_s
        sim, parse = get("calls.simulate_calls"), get("road.parse_road_csv")
        row["calls.simulate_calls.calls"] = sim.calls
        row["calls.simulate_calls.calls_per_s"] = sim.work / sim.busy_s if sim.busy_s else 0.0
        row["road.parse_road_csv.rows_per_s"] = parse.work / parse.busy_s if parse.busy_s else 0.0
        row["features.make_windows.windows"] = get("features.make_windows").work
        epochs = result.values.get("epochs", 0)
        row["training.epochs"] = epochs
        row["training.useful_epoch_ratio"] = result.values.get("best_epochs", 0) / epochs if epochs else 0.0
        row["gradcheck.max_rel_error"] = result.values.get("max_rel_error", 0.0)
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import v2x_loadcast from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS))
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workdir: Path) -> int:
    env = environment(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

    plain, traced, probes, tracer = [], [], [], Tracer()
    # Seconds at the reference host speed of each untraced and traced operation; raw set-up times.
    scaled, traced_scaled, raw_probes = [], [], []
    probes_due = SETUP_PROBES if args.trace == 0 else 0
    min_ops = MIN_OPS if args.trace == 0 else MIN_TRACED_OPS
    with HostSpeed(workload.calibration) as host:

        def run_op(tracer=None):
            wall, wall_scaled, raw, error = timed(workload, host, tracer)
            if error is not None:
                result = workloads.OpResult(workload.attempted, workload.attempted, [error])
            else:
                result = workload.check(raw)
            return (wall, result), wall_scaled

        def probe():
            host.start()
            raw = setup_probe(args)
            host.pause()
            raw_probes.append(raw)
            probes.append(raw * host.scaled_s / host.raw_s)

        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or len(plain) < min_ops
               or (args.trace and len(traced) < min_ops)):
            if args.trace and len(traced) < len(plain):
                tracer.op = len(traced)
                op, wall_scaled = run_op(tracer)
                traced.append(op)
                traced_scaled.append(wall_scaled)
            else:
                op, wall_scaled = run_op()
                plain.append(op)
                scaled.append(wall_scaled)
            # Set-up probes are spread over the run so that they see the same mix
            # of fast and slow host periods as the operations do.
            while len(probes) < probes_due and (
                time.perf_counter() - start >= len(probes) * args.seconds / probes_due
            ):
                probe()
        while len(probes) < probes_due:
            probe()
        calibrations = host.calibrations

    ops = plain + traced
    attempted = sum(r.attempted for _, r in ops)
    failed = sum(r.failed for _, r in ops)
    problems = [p for _, r in ops for p in r.problems]
    if len({repr(r.signature) for _, r in ops}) != 1:
        problems.append("outputs differ between repetitions" + (" or with tracing" if traced else ""))
    leftovers = leftover_wrappers()
    if leftovers:
        problems.append(f"tracing left wrappers in place: {leftovers}")

    walls = [w for w, _ in plain]
    values = {
        "wall_s": statistics.median(scaled),
        "work_per_s": statistics.median(r.work / w for (_, r), w in zip(plain, scaled)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = {
        "wall_s": (values["wall_s"], "s"),
        "raw_wall_s": (statistics.median(walls), "s"),
        "raw_wall_max_s": (max(walls), "s"),
        "calibration_s": (statistics.median(calibrations), "s"),
        workload.throughput_name: (values["work_per_s"], "1/s"),
        "peak_rss_mb": (values["peak_rss_mb"], "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    if "mae_ratio" in plain[0][1].values:
        summary["mae_ratio"] = (plain[0][1].values["mae_ratio"], "ratio")
    if args.trace == 0:
        values["setup_s"] = statistics.median(probes)
        summary["setup_s"] = (values["setup_s"], "s")
        summary["raw_setup_s"] = (statistics.median(raw_probes), "s")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layers = per_layer(tracer, traced)
        layers.update(workloads.kernel_table(args.seed))
        # The first operation of a process runs cold, and it is always untraced.
        warm = statistics.median(scaled[1:])
        layers["trace.overhead_s"] = statistics.median(traced_scaled) - warm
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        tracer.write(RUNS / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {"env": env, "summary": summary, "op_walls_s": walls, "op_scaled_walls_s": scaled,
              "traced_op_walls_s": [w for w, _ in traced], "problems": problems, **result}
    (RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )

    print(f"env {json.dumps(env)}")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced operation(s), "
          f"{failed} of {attempted} sub-operation(s) failed")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for name, (value, unit) in summary.items():
        print(f"  {name:<24}{value:>16.6g} {unit}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<40}{entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
