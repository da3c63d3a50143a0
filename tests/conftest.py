import numpy as np
import pytest

from v2x_loadcast.road import POINTS_PER_DAY, SLOT_SECONDS, RoadSeries


def constant_series(timestamps, flow: int = 10, speed: float = 60.0) -> RoadSeries:
    """The given timestamps with one flow and one speed throughout."""
    n = len(timestamps)
    return RoadSeries(timestamps, np.full(n, flow), np.full(n, speed))


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
