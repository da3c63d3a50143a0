"""Flat key=value run configuration: the file format over the domain types.

One config file records a whole run: data source, scenario, features and
training hyperparameters. `AppConfig` only maps its keys onto
`ScenarioConfig`, `ExperimentSpec` and `TrainingConfig`, and those types own
the checks and defaults of the values they use; `AppConfig` checks only the
keys none of them owns. Unknown keys are rejected, every value is validated
before any pipeline stage executes, and `dump` emits a file that reproduces
the run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .calls import ScenarioConfig
from .errors import ConfigError
from .experiment import FEATURE_MODES, ExperimentSpec, grid_specs, table_scenarios
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
        self.validate()

    def validate(self) -> None:
        """Check the keys no domain type owns, then let the run's specs check the rest."""
        checks = [
            (self.days >= 1, "days must be >= 1"),
            (self.impute in ("none", "hold"), "impute must be none or hold"),
            (
                self.feature_mode in ("both", *FEATURE_MODES),
                f"feature_mode must be {', '.join(FEATURE_MODES)} or both",
            ),
            (len(self.seeds) >= 1, "seeds must name at least one seed"),
            # A repeated seed would repeat a metrics row and overwrite its report.
            (len(set(self.seeds)) == len(self.seeds), f"seeds must be distinct, got {self.seeds}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        self.specs(table=False)

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
    def _converters(cls) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(cls):
            if f.name in ("split", "seeds"):
                out[f.name] = _parse_int_list
            elif f.type == "bool" or isinstance(f.default, bool):
                out[f.name] = _parse_bool
            elif isinstance(f.default, int):
                out[f.name] = int
            elif isinstance(f.default, float):
                out[f.name] = float
            else:
                out[f.name] = str
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "AppConfig":
        converters = cls._converters()
        values: dict[str, Any] = {}
        for key, raw in mapping.items():
            if key not in converters:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                values[key] = converters[key](raw)
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
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; `#` starts a comment, blank lines ignored."""
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
