"""Preprocessing and fusion: speed discretization, z-scoring, windowing.

The raw per-interval sample is (flow, speed level, call count). Speed is
discretized into 8 levels; every feature is z-scored with statistics fitted
on the training split only. `MODE_COLUMNS` names the raw columns each
feature mode feeds the network. Windows of M consecutive samples with the
next T call counts as target are cut in one pass over all three splits:
split boundaries and day gaps are marked in one break array, and no window
holds a break strictly inside its span. No window is copied: a split set
keeps a read-only strided view of the series and the start of each kept
window, and gathers the windows of a batch when they are asked for.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calls import CallSeries
from .errors import BoundsError, ConfigError, DegenerateFeature, InsufficientData, ShapeMismatch
from .road import POINTS_PER_DAY, RoadSeries

FEATURE_NAMES = ("flow", "speed_level", "calls")
CALLS_COLUMN = 2
# Raw columns each feature mode feeds the network; calls is last in every mode.
MODE_COLUMNS = {"net": (CALLS_COLUMN,), "net_road": (0, 1, CALLS_COLUMN)}

_LO, _HI, _BINS = 20.0, 60.0, 6  # levels 2..7 partition [20, 60) into 6 equal bins


def discretize_speeds(speeds: np.ndarray) -> np.ndarray:
    """Map mph to levels in 1..8: 1 below 20 mph, 8 at 60 mph and above."""
    speeds = np.asarray(speeds, dtype=np.float64)
    if not (speeds >= 0).all():
        raise BoundsError("speeds must be non-negative numbers")
    # Clipping changes no level but keeps the integer cast away from inf.
    inner = 2 + np.minimum(
        ((np.clip(speeds, _LO, _HI) - _LO) * _BINS / (_HI - _LO)).astype(np.int64), _BINS - 1
    )
    return np.where(speeds < _LO, 1, np.where(speeds >= _HI, 8, inner)).astype(np.int64)


def build_feature_matrix(road: RoadSeries, calls: CallSeries) -> np.ndarray:
    """Raw (n, 3) matrix of flow, speed level (1..8), call count."""
    if len(calls) != len(road):
        raise ShapeMismatch(f"call series length {len(calls)} != road series length {len(road)}")
    return np.column_stack(
        [
            road.flows.astype(np.float64),
            discretize_speeds(road.speeds).astype(np.float64),
            calls.counts.astype(np.float64),
        ]
    )


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean/std fitted on the training split (population std)."""

    mean: np.ndarray
    std: np.ndarray
    feature_names: tuple[str, ...]

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def checksum(self) -> str:
        digest = hashlib.sha256()
        digest.update(repr(self.feature_names).encode())
        digest.update(self.mean.tobytes())
        digest.update(self.std.tobytes())
        return digest.hexdigest()


def fit_normalizer(
    samples: np.ndarray, feature_names: Sequence[str] = FEATURE_NAMES
) -> NormStats:
    """Fit per-feature z-score statistics; raises DegenerateFeature on zero variance."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise InsufficientData(f"need >= 2 samples to fit a normalizer, got {x.shape[0]}")
    if x.shape[1] != len(feature_names):
        raise ShapeMismatch(f"{x.shape[1]} columns but {len(feature_names)} feature names")
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # population estimator, divisor n
    for name, s in zip(feature_names, std):
        if s == 0.0:
            raise DegenerateFeature(f"feature {name!r} has zero variance on the training split")
    mean.setflags(write=False)
    std.setflags(write=False)
    return NormStats(mean, std, tuple(feature_names))


@dataclass(frozen=True)
class WindowSet:
    """k windows of M samples, picked by index from an array of every window.

    `view` is (N, M, d): from `make_windows`, the read-only sliding-window
    view of the normalized series, so window i starts at sample i and no
    window is copied. `starts` (k,) indexes the windows kept, `targets`
    (k, T) holds each one's next T values.
    """

    view: np.ndarray
    starts: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.view.ndim != 3 or self.starts.ndim != 1 or self.targets.ndim != 2:
            raise ShapeMismatch("view must be (N, M, d), starts (k,) and targets (k, T)")
        if self.starts.shape[0] != self.targets.shape[0]:
            raise ShapeMismatch("starts and targets disagree on window count")

    def __len__(self) -> int:
        return self.starts.shape[0]

    def inputs(self, idx: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The (B, M, d) windows at positions `idx` of the set, gathered C-contiguous."""
        return self.view[self.starts[idx]]

    @property
    def input_dim(self) -> int:
        return self.view.shape[2]

    @property
    def horizon(self) -> int:
        return self.targets.shape[1]


class SplitWindows(NamedTuple):
    train: WindowSet
    val: WindowSet
    test: WindowSet


def split_day_counts(days: int, ratios: tuple[int, int, int]) -> tuple[int, int, int]:
    """Allocate whole days to train/val/test by ratio; val/test floored, min 1."""
    if any(r <= 0 for r in ratios):
        raise ConfigError(f"split ratios must be positive, got {ratios}")
    total = sum(ratios)
    val_days = max(1, days * ratios[1] // total)
    test_days = max(1, days * ratios[2] // total)
    train_days = days - val_days - test_days
    if train_days < 1:
        raise InsufficientData(f"{days} days cannot be split {ratios} by whole days")
    return train_days, val_days, test_days


def make_windows(
    x: np.ndarray,
    y: np.ndarray,
    m: int,
    t: int,
    split: tuple[int, int, int] = (3, 1, 1),
    slots_per_day: int = POINTS_PER_DAY,
    gap_indices: Sequence[int] = (),
) -> SplitWindows:
    """Windows of M inputs + T targets per split, split by whole days, cut in one pass.

    A break is a sample discontinuous with its predecessor: a day gap from
    `gap_indices` or the first sample of the val or test split. A window is
    kept when no break lies strictly inside its M+T span, so each split holds
    len_split - M - T + 1 windows when gap-free. Raises InsufficientData when
    a split keeps none. The three sets share one read-only view of x instead
    of copies of its windows, so x must not be written while they are in use.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatch("x and y must align")
    n = x.shape[0]
    if n % slots_per_day != 0:
        raise InsufficientData(f"{n} samples is not a whole number of {slots_per_day}-slot days")
    bounds = np.cumsum(split_day_counts(n // slots_per_day, split)[:2]) * slots_per_day
    if m < 1 or t < 1:
        raise ConfigError("window length and horizon must be >= 1")
    span = m + t

    gaps = np.asarray(gap_indices, dtype=np.int64)
    breaks = np.zeros(n, dtype=bool)
    breaks[gaps[(gaps > 0) & (gaps < n)]] = True
    breaks[bounds] = True
    seen = np.cumsum(breaks)  # breaks at or before each sample
    starts = np.arange(n - span + 1)
    starts = starts[seen[starts + span - 1] == seen[starts]]

    # Each kept window lies inside one split, so the splits cut `starts` in order.
    cuts = np.searchsorted(starts, bounds)
    if not 0 < cuts[0] < cuts[1] < len(starts):
        raise InsufficientData(f"a split holds no window of {m}+{t} samples clear of every break")
    # Every split shares one read-only view of x; only the targets are copied.
    view = sliding_window_view(x, (m, x.shape[1]))[:, 0]
    targets = sliding_window_view(y, t)[starts + m]
    return SplitWindows(
        *(WindowSet(view, s, o) for s, o in zip(np.split(starts, cuts), np.split(targets, cuts)))
    )


def select_mode_columns(matrix: np.ndarray, mode: str) -> np.ndarray:
    """The `MODE_COLUMNS` columns of a raw feature matrix, as a C-ordered array."""
    if mode not in MODE_COLUMNS:
        raise ConfigError(f"unknown feature mode {mode!r}")
    # Fancy indexing on axis 1 can return an F-ordered array, whose axis-0
    # mean and std round differently from a C-ordered one's.
    return np.ascontiguousarray(matrix[:, MODE_COLUMNS[mode]])
