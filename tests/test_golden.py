"""Outputs checked against golden.json (regenerate it with tests/golden.py)."""

import json

import pytest

import golden

GOLDEN = json.loads(golden.GOLDEN.read_text())


def test_table_scenario_counts(road20):
    assert golden.table_counts(road20) == GOLDEN["table_counts"]


def test_datapath_signature():
    assert golden.datapath_signature() == GOLDEN["datapath"]


def _skip_unless_recorded_environment():
    here, recorded = golden.environment(), GOLDEN["environment"]
    if here != recorded:
        differ = ", ".join(key for key in recorded if here.get(key) != recorded[key])
        made = f"numpy {recorded['numpy']}, {recorded['blas']}, {recorded['machine']}"
        pytest.skip(f"golden floats were made with another {differ} ({made})")


def test_trend_run_floats(request):
    _skip_unless_recorded_environment()
    # Asked for only here, so that a skipped run trains nothing.
    reports = request.getfixturevalue("trend_reports")
    assert golden.trend_floats(reports) == GOLDEN["trend"]


def test_default_run_metrics_csv(request):
    # `run --days 20` writes this file from six of the trend runs, so it trains nothing more.
    _skip_unless_recorded_environment()
    reports = request.getfixturevalue("trend_reports")
    assert golden.run_metrics_sha256(reports) == GOLDEN["run_metrics_csv"]
