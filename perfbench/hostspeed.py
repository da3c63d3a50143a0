"""Host-speed calibration: a fixed kernel, independent of v2x_loadcast.

The shared host the benchmark runs on changes speed by up to 1.8x within
seconds to minutes, and CPU time slows with wall time, so a raw median over a
30-second run mostly measures the host's phase. Each timed operation and
set-up probe is therefore timed in segments of a few seconds at most, each
bracketed by runs of this kernel, and each segment's time is rescaled to a
host on which the kernel takes `reference_s` seconds:

    normalized = raw * reference_s / mean(kernel before, kernel after)

The kernel is made of parts of about PART_S seconds each, one per kind of
work the program does: an interpreter loop, tiny-matrix numpy calls, 32x128
matmuls, and large-array random gathers, sorted search and bincount. Each
workload names the parts that slow down with it. The parts' code and inputs
never change, so a change to the program moves the normalized times as much
as the raw ones.

The kernel runs in a child process, so that its arrays do not count in the
workload's peak resident memory; the parent blocks while it runs.

    python3 perfbench/hostspeed.py small_numpy   # a line on stdin runs it, prints its seconds
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PART_S = 0.1  # each part's nominal seconds; a kernel's reference_s is PART_S per part


def interpreter(d) -> float:
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return float(total)


def small_numpy(d) -> float:
    h = d["x8"]
    for _ in range(24_000):
        h = np.tanh(h @ d["a8"])
    return float(h.sum())


def tiny_rnn(d) -> float:
    """Recurrent steps at B=2, H=4: slicing, ufuncs and tiny matmuls."""
    total = 0.0
    for _ in range(900):
        zx = d["x_rnn"] @ d["w_rnn"]
        h, c = np.zeros((2, 4)), np.zeros((2, 4))
        hs = np.empty((5, 2, 4))
        for t in range(5):
            z = zx[:, t, :] + h @ d["u_rnn"]
            i = 1.0 / (1.0 + np.exp(-z[:, :4]))
            f = 1.0 / (1.0 + np.exp(-z[:, 4:8]))
            o = 1.0 / (1.0 + np.exp(-z[:, 12:]))
            c = f * c + i * np.tanh(z[:, 8:12])
            h = o * np.tanh(c)
            hs[t] = h
        total += float(hs.sum())
    return total


def matmul(d) -> float:
    for _ in range(6_000):
        y = np.tanh(d["x32"] @ d["a32"])
    return float(y.sum())


def gather(d) -> float:
    gathered = d["big"][d["idx"]].sum()
    found = np.searchsorted(d["keys"], d["queries"]).sum()
    counted = np.bincount(d["idx"], minlength=len(d["big"])).max()
    return float(gathered + found + counted)


PARTS = {f.__name__: f for f in (interpreter, small_numpy, tiny_rnn, matmul, gather)}


def make_inputs() -> dict:
    rng = np.random.default_rng(20230524)
    return {
        "a8": rng.normal(size=(8, 8)) * 0.3,
        "x8": rng.normal(size=(2, 8)),
        "x_rnn": rng.normal(size=(2, 5, 3)),
        "w_rnn": rng.normal(size=(3, 16)) * 0.5,
        "u_rnn": rng.normal(size=(4, 16)) * 0.5,
        "a32": rng.normal(size=(32, 128)),
        "x32": rng.normal(size=(32, 32)),
        "big": rng.normal(size=4_000_000),
        "idx": rng.integers(0, 4_000_000, 400_000),
        "keys": np.sort(rng.uniform(size=1_000_000)),
        "queries": rng.uniform(size=200_000),
    }


class HostSpeed:
    """The calibration kernel of the given parts in a child process, and a clock.

    The clock times work in segments: `start()` begins one, and each `pause()`
    ends one, runs the kernel and begins the next. `raw_s` sums the segments
    since `start()`; `scaled_s` sums each segment rescaled by the mean of the
    kernel runs before and after it.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.reference_s = PART_S * len(parts)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), *parts],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("host-speed calibration process did not start")
            self.calibrations = [self._measure()]
        except BaseException:
            self.close()
            raise
        self.start()

    def _measure(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed calibration process exited with {self.proc.poll()}")
        return float(line)

    def start(self) -> None:
        self.raw_s = self.scaled_s = 0.0
        self._segment_start = time.perf_counter()

    def pause(self) -> None:
        elapsed = time.perf_counter() - self._segment_start
        self.calibrations.append(self._measure())
        speed = 2 * self.reference_s / (self.calibrations[-2] + self.calibrations[-1])
        self.raw_s += elapsed
        self.scaled_s += elapsed * speed
        self._segment_start = time.perf_counter()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(parts: list[str]) -> None:
    inputs = make_inputs()
    kernel = [PARTS[name] for name in parts]
    for part in kernel:  # warm-up
        part(inputs)
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        for part in kernel:
            part(inputs)
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1:])
