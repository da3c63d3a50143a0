"""Outputs checked against golden.json (regenerate it with tests/golden.py)."""

import json

import pytest

import golden

GOLDEN = json.loads(golden.GOLDEN.read_text())


def test_table_scenario_counts(road20):
    assert golden.table_counts(road20) == GOLDEN["table_counts"]


def test_datapath_signature():
    assert golden.datapath_signature() == GOLDEN["datapath"]


def test_trend_run_floats(request):
    here, recorded = golden.environment(), GOLDEN["environment"]
    if here != recorded:
        differ = ", ".join(key for key in recorded if here.get(key) != recorded[key])
        made = f"numpy {recorded['numpy']}, {recorded['blas']}, {recorded['machine']}"
        pytest.skip(f"golden floats were made with another {differ} ({made})")
    # Asked for only here, so that a skipped run trains nothing.
    reports = request.getfixturevalue("trend_reports")
    assert golden.trend_floats(reports) == GOLDEN["trend"]
