"""The three benchmark workloads and the kernel table.

Each workload generates its inputs from the workload seed when it is built
(that is its set-up), names the parts of the host-speed calibration kernel
(hostspeed.py) that match its kind of work, then offers one repeatable
`operation(pause)` that drives the package through its public functions
(calling `pause()` between segments of a long operation, so that the host's
speed is measured between them), and a `check()` that turns the operation's
raw output into an `OpResult` outside the timed region. Every repetition of an operation gets the same inputs, so
its outputs must repeat exactly; `OpResult.signature` is what is compared.

Functions are always looked up on their module at call time
(`cli.dispatch`, not a local alias) so that tracing can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from v2x_loadcast import calls, cli, experiment, features, gradcheck, nn, optim, road

MODES = ("net", "net_road")
WINDOW, HORIZON, SPLIT = 18, 1, (3, 1, 1)


def derive(seed: int, label: str) -> int:
    """Stable 32-bit seed for one input stream of the workload seed."""
    return int(np.random.SeedSequence([seed, zlib.crc32(label.encode())]).generate_state(1)[0])


def split_days(days: int) -> tuple[int, int, int]:
    """Whole days per split for the 3:1:1 ratio (val and test at least one day).

    Computed here rather than by the package so that the window-count check
    does not trust the code it checks.
    """
    held_out = max(1, days // 5)
    return days - 2 * held_out, held_out, held_out


@dataclass
class OpResult:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    signature: object = None  # outputs that must repeat exactly
    work: float = 0.0  # the workload's unit of work done by this operation
    values: dict[str, float] = field(default_factory=dict)


class Ablation:
    """`run` via `cli.dispatch`: Net and Net&Road on a 20-day synthesized road.

    Early stopping is disabled (patience = max_epochs) so every operation
    trains the same number of epochs and its time does not depend on where
    validation MAE happens to stop improving.
    """

    name = "ablation"
    throughput_name = "train_windows_per_s"
    calibration = ("interpreter", "small_numpy", "matmul", "gather")
    DAYS = 20
    EPOCHS = 3
    attempted = len(MODES)  # one operation = one run per feature mode

    def __init__(self, seed: int, workdir: Path):
        series = road.synthesize_road_series(self.DAYS, derive(seed, "road"))
        road_csv = workdir / "road.csv"
        road.serialize_road_csv(series, str(road_csv))
        self.out_dir = workdir / "out"
        self.config = workdir / "ablation.cfg"
        self.config.write_text(
            f"road_csv = {road_csv}\n"
            "lambda_per_min = 0.2\n"
            "handover_prob = 0.5\n"
            "cell_range_miles = 1.5\n"
            "feature_mode = both\n"
            "cell = lstm\n"
            "hidden_size = 32\n"
            "batch_size = 32\n"
            f"max_epochs = {self.EPOCHS}\n"
            f"patience = {self.EPOCHS}\n"
            f"seeds = {derive(seed, 'run') % 1_000_000}\n"
            f"out_dir = {self.out_dir}\n",
            encoding="utf-8",
        )
        train_days = split_days(self.DAYS)[0]
        self.train_windows = train_days * road.POINTS_PER_DAY - WINDOW - HORIZON + 1

    def operation(self, pause):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.dispatch(["run", "--config", str(self.config)])
        return code, stderr.getvalue()

    def check(self, raw) -> OpResult:
        code, stderr = raw
        problems = [f"run exited {code}: {stderr.strip()}"] if code != 0 else []
        metrics_csv = self.out_dir / "metrics.csv"
        text = metrics_csv.read_text(encoding="utf-8") if metrics_csv.exists() else ""
        lines = text.splitlines()[1:]
        if len(lines) != len(MODES):
            problems.append(f"metrics.csv has {len(lines)} run line(s), expected {len(MODES)}")
        rows = {line.split(",")[4]: line.split(",") for line in lines}
        failed, mae, epochs, best = 0, {}, 0, 0
        for mode in MODES:
            row = rows.get(mode)
            reports = list(self.out_dir.glob(f"*_{mode}_seed*.json"))
            if row is None or len(reports) != 1:
                failed += 1
                problems.append(f"{mode}: missing metrics.csv line or JSON report")
                continue
            report = json.loads(reports[0].read_text(encoding="utf-8"))
            mae[mode] = float(row[6])
            if not (math.isfinite(mae[mode]) and mae[mode] == report["test_mae"]):
                failed += 1
                problems.append(f"{mode}: test MAE {row[6]} non-finite or not the reported one")
            epochs += report["epochs"]
            best += report["best_epoch"]
        if code != 0:
            failed = len(MODES)
        shutil.rmtree(self.out_dir, ignore_errors=True)  # the next run must write afresh
        values = {"epochs": epochs, "best_epochs": best}
        if len(mae) == len(MODES):
            values["mae_ratio"] = mae["net_road"] / mae["net"]
        return OpResult(
            self.attempted, failed, problems, text, epochs * self.train_windows, values
        )


class Datapath:
    """100-day road write/read, the seven table scenarios, features and windows."""

    name = "datapath"
    throughput_name = "sim_calls_per_s"
    calibration = ("gather",)  # large-array gathers, sorted search and bincount, as in simulate_calls
    DAYS = 100
    # A 5-standard-error band: the seven scenario checks share one seed, and
    # at 3 standard errors about one seed in fifty would fail by chance.
    MAX_Z = 5.0

    def __init__(self, seed: int, workdir: Path):
        self.road_seed = derive(seed, "road")
        self.road_csv = str(workdir / "road.csv")
        self.scenarios = [
            replace(s, seed=derive(seed, f"simulate{k}"))
            for k, s in enumerate(experiment.table_scenarios())
        ]
        # The road round trip, then one simulation and one windowing per mode per scenario.
        self.attempted = 1 + len(self.scenarios) * (1 + len(MODES))
        days = split_days(self.DAYS)
        self.train_rows = days[0] * road.POINTS_PER_DAY
        self.expected_windows = tuple(
            d * road.POINTS_PER_DAY - WINDOW - HORIZON + 1 for d in days
        )
        self._oracle = None

    def operation(self, pause):
        synthesized = road.synthesize_road_series(self.DAYS, self.road_seed)
        road.serialize_road_csv(synthesized, self.road_csv)
        parsed = road.parse_road_csv(self.road_csv)
        gaps = parsed.gap_indices()
        counts, windows = [], {}
        for k, scenario in enumerate(self.scenarios):
            pause()
            simulated = calls.simulate_calls(parsed, scenario)
            counts.append(simulated.counts)
            raw = features.build_feature_matrix(parsed, simulated)
            for mode in MODES:
                selected = features.select_mode_columns(raw, mode)
                names = features.FEATURE_NAMES if mode == "net_road" else ("calls",)
                stats = features.fit_normalizer(selected[: self.train_rows], names)
                z = stats.transform(selected)
                split = features.make_windows(
                    z, z[:, -1], WINDOW, HORIZON, SPLIT, road.POINTS_PER_DAY, gaps
                )
                windows[(k, mode)] = tuple(len(w) for w in split)
        return synthesized, parsed, counts, windows

    def oracle(self, series) -> list[tuple[float, float]]:
        """Per scenario: expected total calls and its standard deviation.

        Each interval's count is a Poisson(F) number of vehicles, each adding
        X = Bernoulli(h) + Poisson(lam * dwell) calls, so its variance is
        F * E[X^2]; `expected_calls` gives F * E[X] = F * (h + lam * dwell).
        """
        if self._oracle is None:
            self._oracle = []
            for scenario in self.scenarios:
                h = scenario.handover_prob
                mean = var = 0.0
                for flow, speed in zip(series.flows.tolist(), series.speeds.tolist()):
                    expected = calls.expected_calls(flow, speed, scenario)
                    if flow:
                        poisson = expected / flow - h
                        var += flow * (h + 2 * h * poisson + poisson + poisson**2)
                    mean += expected
                self._oracle.append((mean, math.sqrt(var)))
        return self._oracle

    def check(self, raw) -> OpResult:
        synthesized, parsed, counts, windows = raw
        failed, problems = 0, []
        same = len(parsed) == len(synthesized) and all(
            np.array_equal(getattr(parsed, a), getattr(synthesized, a))
            for a in ("timestamps", "flows", "speeds")
        )
        if not same:
            failed += 1
            problems.append("parsed road differs from the synthesized one")
        totals = [int(c.sum()) for c in counts]
        for k, (total, (mean, sd)) in enumerate(zip(totals, self.oracle(synthesized))):
            z = (total - mean) / sd
            if not abs(z) <= self.MAX_Z:
                failed += 1
                problems.append(f"scenario {k}: {total} calls, oracle {mean:.0f} (z = {z:.2f})")
        for key, got in sorted(windows.items()):
            if got != self.expected_windows:
                failed += 1
                problems.append(f"windows {key}: {got}, expected {self.expected_windows}")
        signature = (same, tuple(totals), tuple(sorted(windows.items())))
        return OpResult(self.attempted, failed, problems, signature, float(sum(totals)))


class Gradcheck:
    """Central-difference gradcheck of small random models (acceptance-1 recipe)."""

    name = "gradcheck"
    throughput_name = "gradcheck_models_per_s"
    calibration = ("tiny_rnn",)  # nearly all of gradcheck is tiny recurrent steps
    MODELS = 20
    SEGMENT = 5  # models between host-speed measurements
    TOLERANCE = 1e-4
    attempted = MODELS

    def __init__(self, seed: int, workdir: Path):
        self.first_seed = derive(seed, "models") % 1_000_000

    def operation(self, pause):
        errors = []
        for k in range(self.MODELS):
            if k and k % self.SEGMENT == 0:
                pause()
            errors.append(gradcheck.check_random_model(
                seed=self.first_seed + k,
                cell="lstm" if k % 2 == 0 else "gru",
                input_size=3 if k % 4 < 2 else 1,
                hidden_size=4,
                window=5,
                batch=2,
            ).max_rel_error)
        return errors

    def check(self, raw) -> OpResult:
        bad = [(k, e) for k, e in enumerate(raw) if not e <= self.TOLERANCE]
        problems = [f"model {self.first_seed + k}: max rel error {e:.3e}" for k, e in bad]
        return OpResult(
            self.attempted, len(bad), problems, tuple(raw), float(len(raw)),
            {"max_rel_error": max(raw)},
        )


WORKLOADS = {w.name: w for w in (Ablation, Datapath, Gradcheck)}


def kernel_table(seed: int) -> dict[str, float]:
    """Median forward/backward/rmsprop_step ms per cell at B in {32, 256}, M=18, H=32, D=3."""
    rng = np.random.default_rng(derive(seed, "kernels"))
    table = {}
    for cell in ("lstm", "gru"):
        for batch, repeats in ((32, 30), (256, 10)):
            params = nn.init_parameters(cell, 3, 32, rng)
            state = optim.RMSPropState.for_parameters(params)
            inputs = rng.normal(size=(batch, WINDOW, 3))
            targets = rng.normal(size=(batch, HORIZON))
            times = {"nn.forward": [], "nn.backward": [], "optim.rmsprop_step": []}
            for _ in range(repeats):
                t0 = time.perf_counter()
                _, trace = nn.forward(params, inputs)
                t1 = time.perf_counter()
                grads = nn.backward(params, trace, targets)
                t2 = time.perf_counter()
                optim.rmsprop_step(params, grads, state)
                t3 = time.perf_counter()
                times["nn.forward"].append(t1 - t0)
                times["nn.backward"].append(t2 - t1)
                times["optim.rmsprop_step"].append(t3 - t2)
            for name, samples in times.items():
                table[f"{name}.{cell}.b{batch}_ms"] = float(np.median(samples)) * 1e3
    return table
