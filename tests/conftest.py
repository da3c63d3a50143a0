import os
from pathlib import Path

import numpy as np
import pytest

import golden
import v2x_loadcast
from v2x_loadcast.road import POINTS_PER_DAY, SLOT_SECONDS, RoadSeries


def constant_series(timestamps, flow: int = 10, speed: float = 60.0) -> RoadSeries:
    """The given timestamps with one flow and one speed throughout."""
    n = len(timestamps)
    return RoadSeries(timestamps, np.full(n, flow), np.full(n, speed))


def no_thread(thread):
    """A `threading.Thread.start` for a process that has run out of threads."""
    raise RuntimeError("can't start new thread")


def src_env() -> dict[str, str]:
    """This process's environment with the package's source directory on PYTHONPATH."""
    src = str(Path(v2x_loadcast.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def steady_series(days: int, flow: int, speed: float, start: int = 0) -> RoadSeries:
    """Constant flow/speed series, used for simulator statistics."""
    timestamps = start + SLOT_SECONDS * np.arange(days * POINTS_PER_DAY)
    return constant_series(timestamps, flow, speed)


@pytest.fixture(scope="session")
def one_day_csv(tmp_path_factory):
    """A valid single-day road CSV with epoch-second timestamps."""
    path = tmp_path_factory.mktemp("road") / "day.csv"
    rng = np.random.default_rng(5)
    lines = ["timestamp,flow,speed"]
    for k in range(POINTS_PER_DAY):
        flow = int(rng.integers(0, 500))
        speed = round(float(rng.uniform(5, 75)), 2)
        lines.append(f"{k * SLOT_SECONDS},{flow},{speed}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="session")
def road20():
    return golden.road20()


@pytest.fixture(scope="session")
def trend_reports(road20):
    """All runs behind acceptance criteria 3-5, also checked against golden.json."""
    return golden.trend_reports(road20)
