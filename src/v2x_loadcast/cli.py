"""Command-line entry point.

Subcommands: ingest, synth, simulate, run, grid, gradcheck, report. Every
subcommand is deterministic given its seed inputs; `run`/`grid` write a
deterministic metrics CSV plus one JSON report per run. Failures print one
machine-readable `error: <Kind>: <message>` line (see `errors.describe`) and
exit 2 for a ConfigError, 1 for any other; an interrupt (Ctrl-C) prints
`error: KeyboardInterrupt: ` and exits 130.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .calls import ScenarioConfig, simulate_calls
from .config import AppConfig
from .errors import ConfigError, LoadcastError, MalformedReport, describe
from .experiment import GridRow, comparison_table, run_scenario_grid
from .gradcheck import DEFAULT_STEP, DEFAULT_TOLERANCE, check_random_model
from .rng import derive_int
from .road import parse_road_csv, serialize_road_csv, synthesize_road_series

# (CSV column, RunReport field) pairs. The run key leads every CSV row.
RUN_KEY = (
    ("scenario_id", "scenario_id"), ("lambda", "lam"), ("h", "handover_prob"),
    ("range", "cell_range_miles"), ("mode", "mode"), ("seed", "seed"),
)
METRICS_COLUMNS = (*RUN_KEY, ("test_mae", "test_mae"), ("val_mae", "val_mae"), ("epochs", "epochs"))
EPOCH_COLUMNS = (("train_loss", "train_losses"), ("val_mae", "val_maes"))  # one value per epoch
MAX_GRADCHECK_SEEDS = 100_000  # a few minutes of checks; a larger count is a typo


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _header(columns) -> str:
    return ",".join(name for name, _ in columns)


def _csv_row(values) -> str:
    return ",".join(map(_fmt, values))


def _parse_column_map(text: str) -> dict[str, str]:
    mapping = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"--map entries must look like field=column, got {part!r}")
        field, column = part.split("=", 1)
        mapping[field.strip()] = column.strip()
    return mapping


def _load_config(args: argparse.Namespace) -> AppConfig:
    overrides: dict[str, str] = {}
    for key in ("days", "seeds", "out_dir"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set entries must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.config:
        return AppConfig.from_file(args.config, overrides)
    return AppConfig.from_mapping(overrides)


def _load_road(config: AppConfig):
    if config.road_csv:
        return parse_road_csv(config.road_csv, impute=config.impute)
    return synthesize_road_series(config.days, derive_int(config.seed, "synth"))


def cmd_ingest(args: argparse.Namespace) -> int:
    column_map = _parse_column_map(args.map) if args.map else None
    series = parse_road_csv(args.input, column_map=column_map, impute=args.impute)
    print(f"ok: {len(series)} records, {series.days} day(s), {len(series.gap_indices())} day boundary gap(s)")
    if args.out:
        serialize_road_csv(series, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    series = synthesize_road_series(args.days, args.seed)
    serialize_road_csv(series, args.out)
    print(f"wrote {args.out}: {len(series)} records over {series.days} day(s)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        lam=args.lam,
        handover_prob=args.handover,
        cell_range_miles=args.range,
        seed=args.seed,
        exact_flow=args.exact_flow,
    )
    series = parse_road_csv(args.road)
    calls = simulate_calls(series, config)
    rows = zip(series.timestamps.tolist(), series.flows.tolist(), series.speeds.tolist(), calls.counts.tolist())
    lines = ["timestamp,flow,speed,calls", *map(_csv_row, rows)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if calls.zero_speed_intervals:
        print(f"warning: {calls.zero_speed_intervals} zero-speed interval(s) floored to 5 mph", file=sys.stderr)
    print(f"wrote {args.out}: {int(calls.counts.sum())} calls from {calls.vehicles_total} vehicles")
    return 0


def _write_outputs(rows: list[GridRow], out_dir: Path) -> None:
    lines = [_header(METRICS_COLUMNS)]
    failed = 0
    for row in rows:
        if row.report is None:
            name = f"{row.spec.scenario_id}/{row.spec.feature_mode}/seed{row.spec.seed}"
            if failed == 0:  # the run's one error line; later failures are warnings
                print(f"error: {row.error} (row {name})", file=sys.stderr)
            else:
                print(f"warning: {name} failed: {row.error}", file=sys.stderr)
            failed += 1
            continue
        r = row.report
        lines.append(_csv_row(getattr(r, field) for _, field in METRICS_COLUMNS))
        report_path = out_dir / f"{r.scenario_id}_{r.mode}_seed{r.seed}.json"
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(r.to_dict(), fh, indent=1)
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    """`run` runs the configured scenario; `grid` runs the seven built-in ones."""
    config = _load_config(args)
    if args.dump_config:
        Path(args.dump_config).write_text(config.dump(), encoding="utf-8")
        print(f"wrote {args.dump_config}")

    road = _load_road(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable path fails before any row trains
    rows = run_scenario_grid(config.specs(table=args.command == "grid"), road)
    _write_outputs(rows, out_dir)
    print(comparison_table(rows))
    print(f"wrote {out_dir / 'metrics.csv'} and {sum(r.report is not None for r in rows)} report(s)")
    return 0 if all(r.report is not None for r in rows) else 1


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not 1 <= args.seeds <= MAX_GRADCHECK_SEEDS:
        raise ConfigError(f"--seeds must be in [1, {MAX_GRADCHECK_SEEDS}], got {args.seeds}")
    for flag in ("step", "tolerance"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{flag} must be finite and > 0, got {value}")
    reports = [
        check_random_model(
            seed=k, cell="lstm" if k % 2 == 0 else "gru", input_size=3 if k % 4 < 2 else 1,
            step=args.step, tolerance=args.tolerance,
        )
        for k in range(args.seeds)
    ]
    # A NaN error fails its report; max() may drop a NaN, so name it the worst error.
    errors = [r.max_rel_error for r in reports]
    worst = math.nan if any(map(math.isnan, errors)) else max(errors)
    passed = all(r.passed for r in reports)
    print(f"{args.seeds} models checked; max relative error {worst:.3e}; "
          f"{'PASS' if passed else 'FAIL'} at tolerance {args.tolerance:.1e}")
    return 0 if passed else 1


def _report_rows(payload: dict) -> list[str]:
    """One CSV row per epoch of a JSON run report; each value must stay one CSV field."""
    scenario_id, lam, h, cell_range, mode, seed = key = [payload[field] for _, field in RUN_KEY]
    per_epoch = [payload[field] for _, field in EPOCH_COLUMNS]
    epochs = payload["epochs"]
    # `splitlines` finds every line break, a final one too once a character follows it.
    if not all(isinstance(s, str) and "," not in s and len(f"{s}.".splitlines()) == 1
               for s in (scenario_id, mode)):
        raise TypeError("scenario_id and mode must be strings with no comma or line break")
    # JSON numbers are int or float, and a bool is neither.
    if not (all(type(v) in (int, float) for v in (lam, h, cell_range)) and type(seed) is int):
        raise TypeError("lam, handover_prob and cell_range_miles must be numbers, seed an integer")
    if not all(isinstance(vs, list) and all(type(v) in (int, float) for v in vs) for vs in per_epoch):
        raise TypeError("train_losses and val_maes must be lists of numbers")
    if type(epochs) is not int or any(len(vs) != epochs for vs in per_epoch):
        raise ValueError(f"train_losses and val_maes must each hold epochs values; epochs is {epochs!r}, "
                         f"their lengths {[len(vs) for vs in per_epoch]}")
    return [_csv_row([*key, epoch, *values]) for epoch, values in enumerate(zip(*per_epoch), start=1)]


def cmd_report(args: argparse.Namespace) -> int:
    paths = sorted(Path(args.runs).glob("*.json"))
    if not paths:
        raise ConfigError(f"no JSON reports under {args.runs}")
    lines = [f"{_header(RUN_KEY)},epoch,{_header(EPOCH_COLUMNS)}"]
    for path in paths:
        try:
            lines.extend(_report_rows(json.loads(path.read_text(encoding="utf-8"))))
        except (ValueError, KeyError, TypeError) as exc:  # not JSON, or not a run report
            raise MalformedReport(f"{path}: {describe(exc)}") from None
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: {len(lines) - 1} epoch rows from {len(paths)} run(s)")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad flag as a ConfigError, like any other bad value."""

    def error(self, message: str):
        raise ConfigError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops a lone "--" value (`--days=--`) and stores [] unconverted.
        if action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[-1]}: expected one argument, got '--'")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="v2x-loadcast",
        description="Synthetic V2X call traces and a recurrent next-interval load forecaster.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a road measurement CSV")
    p.add_argument("--input", required=True, help="road CSV (timestamp,flow,speed)")
    p.add_argument("--impute", choices=["hold"], default="none",
                   help="fill missing 5-minute slots by repeating the previous record")
    p.add_argument("--map", default=None, metavar="timestamp=COL,flow=COL,speed=COL",
                   help="rename CSV columns to the documented schema")
    p.add_argument("--out", default=None, help="re-serialize the validated series here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="synthesize a weekday-like road series")
    p.add_argument("--days", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="generate per-interval call counts for a road CSV")
    p.add_argument("--road", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="new service requests per minute per vehicle")
    p.add_argument("--h", dest="handover", type=float, required=True,
                   help="handover probability in [0, 1]")
    p.add_argument("--range", type=float, required=True, help="cell range, miles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact-flow", action="store_true",
                   help="place exactly the measured flow instead of a Poisson count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    for name, help_text in (
        ("run", "run the configured scenario in the configured feature mode(s)"),
        ("grid", "run the built-in seven-scenario grid (table 1) in the configured feature mode(s)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--days", type=int, default=None)
        p.add_argument("--seeds", default=None, metavar="A,B,C")
        p.add_argument("--out", dest="out_dir", default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")
        p.add_argument("--dump-config", default=None, metavar="PATH",
                       help="write the fully resolved config before running")
        p.set_defaults(func=cmd_run)

    p = sub.add_parser("gradcheck", help="finite-difference check of the BPTT gradients")
    p.add_argument("--seeds", type=int, default=100, help="number of random models")
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="flatten JSON run reports into a plot-ready CSV")
    p.add_argument("--runs", required=True, help="directory of run JSON reports")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    # numpy loads some of its extensions lazily, so under an address-space limit one may fail to map mid-command.
    except (LoadcastError, OSError, MemoryError, ImportError, KeyboardInterrupt) as exc:
        print(f"error: {describe(exc)}", file=sys.stderr)
        if isinstance(exc, KeyboardInterrupt):
            return 130  # 128 + SIGINT, what a shell reports for an interrupted command
        return 2 if isinstance(exc, ConfigError) else 1
