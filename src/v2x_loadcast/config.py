"""Flat key=value run configuration: the file format over the domain types.

One config file records a whole run: data source, scenario, features and
training hyperparameters. `AppConfig` only maps its keys onto
`ScenarioConfig`, `ExperimentSpec` and `TrainingConfig`, and those types own
the checks and defaults of the values they use; `AppConfig` checks only the
keys none of them owns. Unknown keys are rejected, every value is validated
before any pipeline stage executes, and `dump` emits a file that reproduces
the run exactly, or refuses to.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

from .calls import ScenarioConfig
from .errors import ConfigError, InsufficientData
from .experiment import FEATURE_MODES, ExperimentSpec, grid_specs, table_scenarios
from .features import split_day_counts
from .road import POINTS_PER_DAY
from .training import TrainingConfig


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


# (parse, format) of each value type, keyed by the type of a field's default.
_CODECS: dict[type, tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    int: (int, str),
    float: (float, repr),
    str: (str, str),
    tuple: (_parse_int_list, lambda v: ",".join(map(str, v))),  # split and seeds
}


@dataclass
class AppConfig:
    """Run configuration; field names are the config-file keys."""

    road_csv: str = ""  # empty -> synthesize
    days: int = 20
    impute: str = "none"  # none | hold
    out_dir: str = "runs"
    lambda_per_min: float = 0.2
    handover_prob: float = 0.5
    cell_range_miles: float = 1.5
    exact_flow: bool = ScenarioConfig.exact_flow
    feature_mode: str = "both"  # net | net_road | both
    window: int = ExperimentSpec.window
    horizon: int = ExperimentSpec.horizon
    split: tuple[int, int, int] = ExperimentSpec.split
    cell: str = TrainingConfig.cell
    hidden_size: int = TrainingConfig.hidden_size
    learning_rate: float = TrainingConfig.learning_rate
    rho: float = TrainingConfig.rho
    epsilon: float = TrainingConfig.epsilon
    batch_size: int = TrainingConfig.batch_size
    max_epochs: int = TrainingConfig.max_epochs
    patience: int = TrainingConfig.patience
    seed: int = 1  # root seed (road synthesis stream)
    seeds: tuple[int, ...] = (1, 2, 3)  # per-run seeds

    def __post_init__(self):
        """Check the keys no domain type owns, let the run's specs check the rest, then that a
        synthesized road holds a window in each split (a road read from CSV is checked as it runs)."""
        checks = [
            (self.days >= 1, "days must be >= 1"),
            (self.impute in ("none", "hold"), "impute must be none or hold"),
            (
                self.feature_mode in ("both", *FEATURE_MODES),
                f"feature_mode must be {', '.join(FEATURE_MODES)} or both",
            ),
            # Also where `road_csv` leaves it unused, so that no config holds a seed synthesis refuses.
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (len(self.seeds) >= 1, "seeds must name at least one seed"),
            # A repeated seed would repeat a metrics row and overwrite its report.
            (len(set(self.seeds)) == len(self.seeds), f"seeds must be distinct, got {self.seeds}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        self.specs(table=False)
        if self.road_csv:
            return
        try:
            shortest = min(split_day_counts(self.days, self.split))
        except InsufficientData as exc:
            raise ConfigError(f"days: {exc}") from None
        # A synthesized road has no gaps, so a split of d days holds d*288 - M - T + 1 windows.
        if shortest * POINTS_PER_DAY < self.window + self.horizon:
            raise ConfigError(f"days: {self.days} days split {self.split} leave {shortest} day(s) in a "
                              f"split, too few for one window of {self.window}+{self.horizon} samples")

    def specs(self, table: bool) -> list[ExperimentSpec]:
        """The run's specs: the configured scenario, or with `table` the seven built-in ones."""
        if table:
            scenarios = table_scenarios(exact_flow=self.exact_flow)
        else:
            scenarios = [ScenarioConfig(self.lambda_per_min, self.handover_prob, self.cell_range_miles,
                                        exact_flow=self.exact_flow)]
        modes = FEATURE_MODES if self.feature_mode == "both" else (self.feature_mode,)
        training = TrainingConfig(**{f.name: getattr(self, f.name) for f in fields(TrainingConfig)})
        return grid_specs(scenarios, self.seeds, modes, window=self.window, horizon=self.horizon,
                          split=self.split, training=training)

    # -- parsing ---------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "AppConfig":
        parsers = {f.name: _CODECS[type(f.default)][0] for f in fields(cls)}
        values: dict[str, Any] = {}
        for key, raw in mapping.items():
            if key not in parsers:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                values[key] = parsers[key](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        return cls(**values)

    @classmethod
    def from_file(cls, path: str, overrides: dict[str, str] | None = None) -> "AppConfig":
        mapping = parse_config_file(path)
        mapping.update(overrides or {})
        return cls.from_mapping(mapping)

    # -- serialization ----------------------------------------------------

    def dump(self) -> str:
        """`key = value` lines that `from_file` reads back as this config, or ConfigError."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            # Surrounding whitespace, `#`, a line break or what UTF-8 cannot encode would not read back.
            if isinstance(value, str) and (value != value.strip() or not {"#", "\r", "\n"}.isdisjoint(value)
                                           or value.encode("utf-8", "ignore").decode("utf-8") != value):
                raise ConfigError(f"{f.name} {value!r} cannot be written to a config file as itself")
            lines.append(f"{f.name} = {_CODECS[type(f.default)][1](value)}")
        return "\n".join(lines) + "\n"


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines of UTF-8 text; `#` starts a comment, blank lines ignored."""
    mapping: dict[str, str] = {}
    try:
        # A leading byte-order mark is dropped; each line break is read as "\n".
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping
