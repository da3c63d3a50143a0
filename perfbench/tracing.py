"""Span tracing around the package's public functions, from outside the package.

`Tracer.installed()` replaces each function named in `TRACED` with a wrapper
at every module attribute that refers to it, so callers that imported the
name (`from .nn import forward`) are traced as well as callers that look it
up on its own module. Each call records one span: name, start, end, the span
that was open when it started (per thread), the operation it belongs to and
a work count taken from its arguments or result. Spans stay in memory until
the run writes them out. Leaving the context restores every attribute.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

PACKAGE = "v2x_loadcast"


def _batch(args, result) -> int:
    inputs = args[1]
    return inputs.shape[0] if inputs.ndim == 3 else 1


def _trace_batch(args, result) -> int:
    return args[1].inputs.shape[0]


def _calls_total(args, result) -> int:
    return int(result.counts.sum())


def _windows(args, result) -> int:
    sets = result if isinstance(result, tuple) else (result,)
    return sum(len(s) for s in sets)


def _rows(args, result) -> int:
    return len(result)


# "<module>.<function>" -> work count of one call (None: no count).
TRACED: dict[str, Callable | None] = {
    "cli.dispatch": None,
    "experiment.run_scenario_grid": None,
    "experiment.run_experiment": None,
    "training.train_forecaster": None,
    "training.evaluate_mae": None,
    "nn.forward": _batch,
    "nn.backward": _trace_batch,
    "optim.rmsprop_step": None,
    "metrics.loss_mse": None,
    "calls.simulate_calls": _calls_total,
    "features.build_feature_matrix": None,
    "features.fit_normalizer": None,
    "features.make_windows": _windows,
    "road.synthesize_road_series": None,
    "road.serialize_road_csv": None,
    "road.parse_road_csv": _rows,
    "gradcheck.numerical_gradients": None,
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 at the top of its thread
    op: int
    work: int


class Layer(NamedTuple):
    calls: int
    busy_s: float
    self_s: float
    work: int


def _package_modules() -> list:
    return [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = work(args, result) if work is not None and result is not None else 0
                self.spans.append(Span(sid, name, start, end, parent, self.op, count))

        traced.perfbench_traced = True
        return traced

    @contextmanager
    def installed(self):
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        try:
            for qualname, work in TRACED.items():
                module, attr = qualname.split(".")
                original = getattr(by_name[f"{PACKAGE}.{module}"], attr)
                wrapper = self._wrap(qualname, original, work)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(self._patched):
                setattr(mod, key, original)
            self._patched.clear()

    def layers(self, op: int) -> dict[str, Layer]:
        """Per-function calls, inclusive time, self time and work within one operation."""
        spans = [s for s in self.spans if s.op == op]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, Layer] = {}
        for s in spans:
            dur = s.end - s.start
            prev = out.get(s.name, Layer(0, 0.0, 0.0, 0))
            out[s.name] = Layer(
                prev.calls + 1,
                prev.busy_s + dur,
                prev.self_s + dur - child_time.get(s.id, 0.0),
                prev.work + s.work,
            )
        return out

    def write(self, path) -> None:
        """Write every span as one gzipped CSV line, in the order the spans ended."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op,work\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{s.parent},{s.op},{s.work}\n")


def leftover_wrappers() -> list[str]:
    """Package attributes that are still tracing wrappers (empty after a clean restore)."""
    return [
        f"{mod.__name__}.{key}"
        for mod in _package_modules()
        for key, value in vars(mod).items()
        if getattr(value, "perfbench_traced", False)
    ]
