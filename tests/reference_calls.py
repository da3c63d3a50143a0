"""Reference call simulator: the gather-and-searchsorted implementation.

Every per-vehicle quantity is a gather through `entry_interval`, handed-over
calls are a `bincount` of those indices, all call instants are drawn at once
and mapped back onto intervals with `np.searchsorted`. `calls.simulate_calls`
must give the same counts and vehicle total for every input; it is kept here,
not in the package, as the oracle for that comparison.
"""

from __future__ import annotations

import numpy as np

from v2x_loadcast.calls import CallSeries, ScenarioConfig, dwell_minutes
from v2x_loadcast.road import SLOT_SECONDS, RoadSeries


def reference_simulate_calls(series: RoadSeries, config: ScenarioConfig) -> CallSeries:
    """Draw one realization of the call process over the whole road series."""
    rng = np.random.default_rng(config.seed)
    n = len(series)
    flows = series.flows
    speeds = series.speeds
    timestamps = series.timestamps
    delta = float(SLOT_SECONDS)

    zero_speed = int(np.count_nonzero((speeds == 0.0) & (flows > 0)))
    dwell_min = dwell_minutes(speeds, config.cell_range_miles)  # per interval
    counts = np.zeros(n, dtype=np.int64)

    if config.exact_flow:
        vehicles = flows.copy()
    else:
        vehicles = rng.poisson(flows)
    total_vehicles = int(vehicles.sum())
    if total_vehicles == 0:
        return CallSeries(counts, 0, zero_speed)

    entry_interval = np.repeat(np.arange(n), vehicles)
    entry_offset = rng.uniform(0.0, delta, total_vehicles)

    if config.handover_prob > 0:
        handed = rng.random(total_vehicles) < config.handover_prob
        counts += np.bincount(entry_interval[handed], minlength=n)

    if config.lam > 0:
        per_vehicle = rng.poisson(config.lam * dwell_min[entry_interval])
        total_calls = int(per_vehicle.sum())
        if total_calls:
            src = np.repeat(np.arange(total_vehicles), per_vehicle)
            entry_abs = timestamps[entry_interval] + entry_offset
            dwell_s = dwell_min[entry_interval] * 60.0
            call_abs = entry_abs[src] + rng.uniform(0.0, 1.0, total_calls) * dwell_s[src]
            # Map instants back onto recorded intervals; instants past the end
            # or inside a day gap are not served by this series and drop out.
            idx = np.searchsorted(timestamps, call_abs, side="right") - 1
            idx = np.clip(idx, 0, n - 1)
            inside = (call_abs >= timestamps[idx]) & (call_abs < timestamps[idx] + delta)
            counts += np.bincount(idx[inside], minlength=n)

    return CallSeries(counts, total_vehicles, zero_speed)
