"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. The trend criteria (3-5) share one cached batch of
experiment runs on the 20-day seed-fixed synthetic road (the session
fixtures `road20` and `trend_reports` in conftest.py).
"""

import time

import numpy as np
import pytest

from conftest import steady_series
from golden import TREND_SEEDS as SEEDS
from v2x_loadcast.calls import ScenarioConfig, expected_calls, simulate_calls
from v2x_loadcast.cli import dispatch
from v2x_loadcast.experiment import ExperimentSpec
from v2x_loadcast.features import FEATURE_NAMES, discretize_speeds, fit_normalizer
from v2x_loadcast.gradcheck import check_random_model
from v2x_loadcast.metrics import loss_mse, metric_mae

MAJORITY = 2


def announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if passed else 'FAIL'} {criterion}: {detail}", flush=True)


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst, failed = 0.0, []
    for k in range(100):
        report = check_random_model(
            seed=k,
            cell="lstm" if k % 2 == 0 else "gru",
            input_size=3 if k % 4 < 2 else 1,
            hidden_size=4,
            window=5,
        )
        worst = max(worst, report.max_rel_error)
        if not report.passed:  # also a NaN error, which max() above may drop
            failed.append((k, report.max_rel_error))
    elapsed = time.perf_counter() - started
    ok = not failed and worst <= 1e-4 and elapsed < 30.0
    announce("criterion 1 (gradient correctness)",
             ok, f"max rel error {worst:.3e} over 100 models in {elapsed:.1f}s")
    assert not failed, failed
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_2_simulator_statistics():
    started = time.perf_counter()
    config = ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5, seed=101)
    analytic = expected_calls(100, 60.0, config)
    assert analytic == pytest.approx(80.0, abs=1e-12)
    series = steady_series(35, 100, 60.0)  # 10080 intervals
    counts = simulate_calls(series, config).counts.astype(float)
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    elapsed = time.perf_counter() - started
    deviation = abs(counts.mean() - analytic)
    ok = deviation <= 3 * se and elapsed < 10.0
    announce("criterion 2 (simulator statistics)",
             ok, f"mean {counts.mean():.3f} vs 80, |dev| {deviation:.3f} <= 3SE {3 * se:.3f}, {elapsed:.1f}s")
    assert counts.size >= 10_000
    assert deviation <= 3 * se
    assert elapsed < 10.0


def test_criterion_3_central_claim(trend_reports):
    wins = 0
    details = []
    for seed in SEEDS:
        net = trend_reports[("base", "net", seed)].test_mae
        fused = trend_reports[("base", "net_road", seed)].test_mae
        wins += fused <= 0.8 * net
        details.append(f"seed {seed}: {fused:.4f} vs 0.8*{net:.4f}")
    for mode in ("net", "net_road"):
        mode_ms = sum(trend_reports[("base", mode, s)].wall_ms for s in SEEDS)
        assert mode_ms < 600_000, f"{mode} runs took {mode_ms / 1e3:.0f}s"
    ok = wins >= MAJORITY
    announce("criterion 3 (Net&Road <= 0.8 x Net)", ok, f"{wins}/3 seeds; " + "; ".join(details))
    assert wins >= MAJORITY


def test_criterion_4_handover_trend(trend_reports):
    wins = 0
    details = []
    for seed in SEEDS:
        high = trend_reports[("h1", "net_road", seed)].test_mae
        low = trend_reports[("h0", "net_road", seed)].test_mae
        wins += high < low
        details.append(f"seed {seed}: h=1 {high:.4f} < h=0 {low:.4f}")
    ok = wins >= MAJORITY
    announce("criterion 4 (MAE falls as handover rises)", ok, f"{wins}/3 seeds; " + "; ".join(details))
    assert wins >= MAJORITY


def test_criterion_5_range_trend(trend_reports):
    wins = 0
    details = []
    for seed in SEEDS:
        wide = trend_reports[("wide", "net_road", seed)].test_mae
        narrow = trend_reports[("base", "net_road", seed)].test_mae
        wins += wide <= narrow
        details.append(f"seed {seed}: 6mi {wide:.4f} <= 1.5mi {narrow:.4f}")
    ok = wins >= MAJORITY
    announce("criterion 5 (wider cell, lower MAE)", ok, f"{wins}/3 seeds; " + "; ".join(details))
    assert wins >= MAJORITY


def test_criterion_6_metric_units():
    checks = [
        loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0,
        loss_mse([0.0, 0.0], [1.0, 3.0]) == 5.0,
        loss_mse([2.0], [5.0]) == 9.0,
        metric_mae([1.0, 2.0], [1.0, 2.0]) == 0.0,
        metric_mae([0.0, 0.0], [1.0, 3.0]) == 2.0,
    ]
    announce("criterion 6 (metric units)", all(checks), f"{sum(checks)}/5 hand-computed values exact")
    assert all(checks)


def test_criterion_7_pipeline_hygiene(road20):
    rng = np.random.default_rng(12)
    x = rng.uniform(1.0, 400.0, (600, 3))
    stats = fit_normalizer(x, FEATURE_NAMES)
    round_trip = np.max(np.abs(stats.transform(x) * stats.std + stats.mean - x) / np.abs(x))

    # Split-leakage checksum: the stats used by a run equal a train-only refit
    # and differ from a refit on the validation day block.
    from v2x_loadcast.experiment import derive_scenario, prepare_windows
    from v2x_loadcast.features import build_feature_matrix

    spec = ExperimentSpec(
        ScenarioConfig(lam=0.2, handover_prob=0.5, cell_range_miles=1.5), "net_road", seed=1
    )
    _, used_stats = prepare_windows(spec, road20)
    raw = build_feature_matrix(road20, simulate_calls(road20, derive_scenario(spec)))
    train_rows = 12 * 288
    train_fit = fit_normalizer(raw[:train_rows], FEATURE_NAMES)
    val_fit = fit_normalizer(raw[train_rows : 16 * 288], FEATURE_NAMES)
    leakage_ok = (
        used_stats.checksum() == train_fit.checksum()
        and used_stats.checksum() != val_fit.checksum()
    )

    probes = {0: 1, 19.99: 1, 20: 2, 33: 3, 40: 5, 59.99: 7, 60: 8, 100: 8}
    table_ok = discretize_speeds(list(probes)).tolist() == list(probes.values())

    ok = round_trip < 1e-12 and leakage_ok and table_ok
    announce("criterion 7 (pipeline hygiene)",
             ok, f"round-trip {round_trip:.2e}, leakage checksum {leakage_ok}, level table {table_ok}")
    assert round_trip < 1e-12
    assert leakage_ok
    assert table_ok


def test_criterion_8_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "days = 6\nfeature_mode = both\nhidden_size = 8\nmax_epochs = 3\n"
        "patience = 2\nseeds = 1\nseed = 1\n"
    )
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = dispatch(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        payloads.append((out / "metrics.csv").read_bytes())
    ok = payloads[0] == payloads[1]
    announce("criterion 8 (byte-identical metric CSVs)", ok, f"{len(payloads[0])} bytes compared")
    assert ok
