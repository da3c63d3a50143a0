import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import v2x_loadcast
from v2x_loadcast import cli
from v2x_loadcast.calls import MAX_LAM
from v2x_loadcast.cli import MAX_GRADCHECK_SEEDS, build_parser, dispatch
from v2x_loadcast.config import AppConfig, parse_config_file
from v2x_loadcast.road import MAX_SYNTH_DAYS
from v2x_loadcast.errors import ConfigError
from v2x_loadcast.training import MAX_HIDDEN_SIZE

SMALL_RUN = """
days = 6
feature_mode = net_road
hidden_size = 6
max_epochs = 2
patience = 2
seeds = 1
"""


def write_config(tmp_path, text=SMALL_RUN, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text.strip() + "\n")
    return path


class TestConfig:
    def test_round_trip_through_dump(self, tmp_path):
        cfg = AppConfig.from_mapping({"days": "7", "seeds": "4,5", "cell": "gru"})
        path = tmp_path / "echo.cfg"
        path.write_text(cfg.dump())
        again = AppConfig.from_mapping(parse_config_file(str(path)))
        assert again == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="lamda"):
            AppConfig.from_mapping({"lamda": "0.2"})

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="days"):
            AppConfig.from_mapping({"days": "many"})

    def test_validation_bounds(self):
        with pytest.raises(ConfigError):
            AppConfig.from_mapping({"handover_prob": "1.5"})
        with pytest.raises(ConfigError):
            AppConfig.from_mapping({"feature_mode": "roads"})

    def test_comments_and_duplicates(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("days = 7  # one work week\n\ncell = gru\n")
        assert parse_config_file(str(path)) == {"days": "7", "cell": "gru"}
        path.write_text("days = 7\ndays = 8\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(str(path))


def _refuse_road(*args, **kwargs):
    raise AssertionError("a road was loaded for a config that should have been rejected")


def run_set(key_value: str, *args: str) -> tuple[int, list[str]]:
    """`run --set key_value *args` with road loading refused: exit code and stderr lines."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "synthesize_road_series", _refuse_road)
        mp.setattr(cli, "parse_road_csv", _refuse_road)
        code = dispatch(["run", "--set", key_value, *args])
    return code, err.getvalue().splitlines()


# Bad values per config key. `road_csv` and `out_dir` are left out: any
# string is a valid path there, and a missing road file is an I/O error.
_JUNK = st.sampled_from(["", "maybe", "abc", "1,,x", "--", "1e", "0x1g", "1.5.2"])
_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "+inf", "-inf", "Infinity"])
_NOT_AN_INT = st.one_of(_JUNK, _NON_FINITE, st.sampled_from(["1.5", "1e3", "2.0", "true"]))
_NOT_A_FLOAT = st.one_of(_JUNK, _NON_FINITE)


def _finite_floats(bad):
    """Finite floats, as config text, for which `bad` holds."""
    return st.floats(allow_nan=False, allow_infinity=False).filter(bad).map(repr)


def _int_lists(min_value, bad):
    """Lists of one to five ints in [min_value, 9], as config text, for which `bad` holds."""
    ints = st.lists(st.integers(min_value=min_value, max_value=9), min_size=1, max_size=5)
    return ints.filter(bad).map(lambda xs: ",".join(map(str, xs)))


def _not_one_of(*allowed):
    return st.text(max_size=12).filter(lambda v: v.strip() not in allowed)


_NON_POSITIVE_INT = st.one_of(st.integers(max_value=0).map(str), _NOT_AN_INT)
BAD_VALUES = {
    "days": _NON_POSITIVE_INT,
    "impute": _not_one_of("none", "hold"),
    "lambda_per_min": st.one_of(_finite_floats(lambda x: not 0 <= x <= MAX_LAM), _NOT_A_FLOAT),
    "handover_prob": st.one_of(_finite_floats(lambda x: not 0 <= x <= 1), _NOT_A_FLOAT),
    "cell_range_miles": st.one_of(_finite_floats(lambda x: x <= 0), _NOT_A_FLOAT),
    "exact_flow": st.sampled_from(["maybe", "", "2", "nan", "yess", "t"]),
    "feature_mode": _not_one_of("net", "net_road", "both"),
    "window": _NON_POSITIVE_INT,
    "horizon": _NON_POSITIVE_INT,
    "split": st.one_of(
        _int_lists(1, lambda xs: len(xs) != 3),
        _int_lists(-9, lambda xs: len(xs) == 3 and min(xs) <= 0),
        _JUNK, _NON_FINITE,
    ),
    "cell": _not_one_of("lstm", "gru"),
    "hidden_size": st.one_of(
        _NON_POSITIVE_INT, st.integers(min_value=MAX_HIDDEN_SIZE + 1).map(str)
    ),
    "learning_rate": st.one_of(_finite_floats(lambda x: x <= 0), _NOT_A_FLOAT),
    "rho": st.one_of(_finite_floats(lambda x: not 0 <= x < 1), _NOT_A_FLOAT),
    "epsilon": st.one_of(_finite_floats(lambda x: x <= 0), _NOT_A_FLOAT),
    "batch_size": _NON_POSITIVE_INT,
    "max_epochs": _NON_POSITIVE_INT,
    "patience": _NON_POSITIVE_INT,
    "seed": st.one_of(st.integers(max_value=-1).map(str), _NOT_AN_INT),
    "seeds": st.one_of(
        _int_lists(-9, lambda xs: min(xs) < 0),
        _int_lists(0, lambda xs: len(set(xs)) < len(xs)),
        _JUNK, _NON_FINITE, st.just(","),
    ),
}
_KEYS = {f.name for f in fields(AppConfig)}
_UNKNOWN_KEY = st.from_regex(r"[a-z_]{1,16}", fullmatch=True).filter(lambda k: k not in _KEYS)


class TestBadValues:
    def test_every_key_but_the_paths_has_bad_values(self):
        assert set(BAD_VALUES) == _KEYS - {"road_csv", "out_dir"}

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        *(st.tuples(st.just(key), values) for key, values in BAD_VALUES.items()),
        st.tuples(_UNKNOWN_KEY, st.text(max_size=8)),
    ))
    def test_bad_value_is_one_config_error_line(self, key_value):
        key, value = key_value
        code, err = run_set(f"{key}={value}")
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ConfigError:"), err

    @pytest.mark.parametrize("key_value", [
        # Rejected by the original config checks.
        "days=0", "impute=mean", "lambda_per_min=-1", "handover_prob=1.5",
        "cell_range_miles=0", "feature_mode=roads", "window=0", "horizon=0",
        "split=3,1", "cell=rnn", "hidden_size=0", "learning_rate=0", "rho=1", "epsilon=0",
        "batch_size=0", "max_epochs=0", "patience=0", "seeds=,",
        # Non-finite floats, and seeds numpy cannot take.
        "lambda_per_min=nan", "lambda_per_min=inf", "cell_range_miles=nan",
        "cell_range_miles=inf", "learning_rate=nan", "learning_rate=inf", "rho=nan", "rho=inf",
        "epsilon=nan", "epsilon=inf", "seed=-1", "seeds=1,-2",
        # A repeated seed, whose run would write one report for two rows.
        "seeds=1,1",
        # Finite, but past what numpy's Poisson draw takes.
        "lambda_per_min=1e300",
        # Past the cap on the model width, whose arrays would exhaust memory.
        "hidden_size=1025", "hidden_size=100000",
    ])
    def test_run_bad_value_is_config_error(self, key_value):
        code, err = run_set(key_value)
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ConfigError:"), err
        assert key_value[:3] in err[0]  # names the key, or the field it feeds

    @pytest.mark.parametrize("value", ["300", "0"])
    def test_interval_length_key_is_unknown(self, value, tmp_path):
        # The interval length is the road's 5-minute slot; no key sets it.
        want = (2, ["error: ConfigError: unknown config key 'delta_s'"])
        assert run_set(f"delta_s={value}") == want
        assert run_set("days=2", "--config", str(write_config(tmp_path, f"delta_s = {value}"))) == want

    def test_simulate_interval_length_flag_is_config_error(self, one_day_csv, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = dispatch(["simulate", "--road", str(one_day_csv), "--lambda", "0.2", "--h", "0.5",
                         "--range", "1.5", "--delta", "300", "--out", str(out)])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ConfigError:"), err
        assert "--delta" in err[0] and captured.out == "" and not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "nan"), ("--lambda", "inf"), ("--range", "nan"), ("--lambda", "1e300"),
    ])
    def test_simulate_non_finite_is_config_error(self, flag, value, one_day_csv, tmp_path, capsys):
        argv = {"--lambda": "0.2", "--h": "0.5", "--range": "1.5", flag: value}
        code = dispatch(["simulate", "--road", str(one_day_csv), "--out", str(tmp_path / "c.csv"),
                         *[x for item in argv.items() for x in item]])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ConfigError:"), err
        assert captured.out == "" and not (tmp_path / "c.csv").exists()


# Bad values per subcommand flag. A `<name>` value is a path from the
# `bad_paths` fixture; every other flag of the command keeps a valid value.
_NEGATIVE_INT = st.one_of(st.integers(max_value=-1).map(str), _NOT_AN_INT)
_NOT_POSITIVE_FLOAT = st.one_of(_finite_floats(lambda x: x <= 0), _NOT_A_FLOAT)
_BAD_OUT = st.sampled_from(["<dir>", "<missing>/out.csv"])
_BAD_ROAD = st.sampled_from(
    ["<missing>", "<dir>", "<binary>", "<header_only>", "<report>", "<huge_flow>", "<huge_field>"]
)
BAD_FLAGS = {
    "simulate": {
        "--road": _BAD_ROAD,
        "--lambda": st.one_of(_finite_floats(lambda x: not 0 <= x <= MAX_LAM), _NOT_A_FLOAT),
        "--h": st.one_of(_finite_floats(lambda x: not 0 <= x <= 1), _NOT_A_FLOAT),
        "--range": _NOT_POSITIVE_FLOAT,
        "--seed": _NEGATIVE_INT,
        "--out": _BAD_OUT,
    },
    "ingest": {
        "--input": _BAD_ROAD,
        "--impute": st.text(max_size=8).filter(lambda v: v != "hold"),
        "--map": st.one_of(
            st.text(min_size=1, max_size=12).filter(lambda v: "=" not in v),
            st.from_regex(r"[a-z_]{1,10}=[a-z_]{0,6}", fullmatch=True).filter(
                lambda v: v.split("=")[0] not in ("timestamp", "flow", "speed")
            ),
            st.sampled_from(["flow=volume", "speed=flow,flow=speed", "timestamp=flow"]),
        ),
        "--out": _BAD_OUT,
    },
    "synth": {
        "--days": st.one_of(_NON_POSITIVE_INT, st.integers(min_value=MAX_SYNTH_DAYS + 1).map(str)),
        "--seed": _NEGATIVE_INT,
        "--out": _BAD_OUT,
    },
    "gradcheck": {
        "--seeds": st.one_of(
            _NON_POSITIVE_INT, st.integers(min_value=MAX_GRADCHECK_SEEDS + 1).map(str)
        ),
        "--step": _NOT_POSITIVE_FLOAT,
        "--tolerance": _NOT_POSITIVE_FLOAT,
    },
    "report": {
        "--runs": st.sampled_from(["<missing>", "<dir>", "<binary_report>", "<bad_json>",
                                   "<list_report>", "<partial_report>", "<typed_report>"]),
        "--out": _BAD_OUT,
    },
}
_ERROR_LINE = re.compile(r"error: [A-Za-z]+: ")


@pytest.fixture(scope="session")
def bad_paths(tmp_path_factory, one_day_csv):
    """Valid inputs for every flag, and the bad paths `BAD_FLAGS` names."""
    root = tmp_path_factory.mktemp("flags")
    good_runs = root / "runs"
    good_runs.mkdir()
    report = {"scenario_id": "s", "lam": 0.2, "handover_prob": 0.5, "cell_range_miles": 1.5,
              "mode": "net", "seed": 1, "train_losses": [1.0], "val_maes": [0.5]}
    (good_runs / "s.json").write_text(json.dumps(report))
    bad_reports = {
        "binary_report": b"\xff\xfe{",
        "bad_json": b'{"scenario_id": ',
        "list_report": b"[1, 2]",
        "partial_report": json.dumps({k: report[k] for k in ("lam", "mode")}).encode(),
        "typed_report": json.dumps({**report, "mode": 3, "train_losses": 7}).encode(),
    }
    paths = {"<dir>": str(root / "dir"), "<missing>": str(root / "missing"),
             "<good_runs>": str(good_runs), "<good_out>": str(root / "out.csv"),
             "<road>": str(one_day_csv)}
    (root / "dir").mkdir()
    for name, payload in bad_reports.items():
        (root / name).mkdir()
        (root / name / "r.json").write_bytes(payload)
        paths[f"<{name}>"] = str(root / name)
    rows = one_day_csv.read_text().splitlines()
    stamp, _, speed = rows[100].split(",")
    huge_flow, huge_field = list(rows), list(rows)  # a valid day but for line 101's flow
    huge_flow[100] = f"{stamp},{10**12},{speed}"
    huge_field[100] = f"{stamp},{'1' * 200_000},{speed}"  # past the csv module's field limit
    for name, payload in [("binary", b"\xff\xfetimestamp,flow\n\x80,1\n"),
                          ("header_only", b"timestamp,flow,speed\n"),
                          ("report", json.dumps(report).encode()),
                          ("huge_flow", "\n".join(huge_flow).encode()),
                          ("huge_field", "\n".join(huge_field).encode())]:
        (root / name).write_bytes(payload)
        paths[f"<{name}>"] = str(root / name)
    return paths


GOOD_FLAGS = {
    "simulate": {"--road": "<road>", "--lambda": "0.2", "--h": "0.5", "--range": "1.5",
                 "--out": "<good_out>"},
    "ingest": {"--input": "<road>"},
    "synth": {"--days": "1", "--out": "<good_out>"},
    "gradcheck": {"--seeds": "1"},
    "report": {"--runs": "<good_runs>", "--out": "<good_out>"},
}


def _value_flags(command: str) -> set[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[-1] for a in sub.choices[command]._actions
            if a.option_strings and a.nargs != 0}


class TestBadFlags:
    def test_every_value_flag_has_bad_values(self):
        for command, flags in BAD_FLAGS.items():
            assert set(flags) == _value_flags(command), command

    @pytest.mark.parametrize("command", sorted(GOOD_FLAGS))
    def test_good_flags_succeed(self, command, bad_paths, capsys):
        argv = [f"{flag}={bad_paths.get(v, v)}" for flag, v in GOOD_FLAGS[command].items()]
        assert dispatch([command, *argv]) == 0, capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(*(
        st.tuples(st.just(command), st.just(flag), values)
        for command, flags in BAD_FLAGS.items() for flag, values in flags.items()
    )))
    def test_bad_flag_is_one_error_line(self, bad_paths, case):
        command, flag, value = case
        argv = {**GOOD_FLAGS[command], flag: value}
        argv = [f"{f}={bad_paths.get(v, v)}" for f, v in argv.items()]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = dispatch([command, *argv])
        lines = err.getvalue().splitlines()
        assert code in (1, 2) and len(lines) == 1 and _ERROR_LINE.match(lines[0]), (argv, lines)
        assert lines[0].startswith("error: ConfigError:") == (code == 2), lines

    @pytest.mark.parametrize("command, flag", [("ingest", "--input"), ("simulate", "--road")])
    def test_huge_flow_is_one_bounds_error(self, bad_paths, command, flag, capsys):
        argv = {**GOOD_FLAGS[command], flag: "<huge_flow>"}
        assert dispatch([command, *[f"{f}={bad_paths.get(v, v)}" for f, v in argv.items()]]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: BoundsError: line 101: flow"), err

    @pytest.mark.parametrize("command, flag", [("ingest", "--input"), ("simulate", "--road")])
    def test_huge_field_is_one_malformed_row(self, bad_paths, command, flag, capsys):
        argv = {**GOOD_FLAGS[command], flag: "<huge_field>"}
        assert dispatch([command, *[f"{f}={bad_paths.get(v, v)}" for f, v in argv.items()]]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: MalformedRow: line 101: field larger than field limit (131072)"]


def _no_memory(*args):
    np.empty(1 << 62, dtype=np.uint8)  # 4 EiB: numpy raises its own MemoryError subclass


class TestDispatch:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("    ") and line.split()]
        assert {"run", "grid", "gradcheck"} <= set(listed)

    def test_python_dash_m_entry(self, tmp_path):
        src = str(Path(v2x_loadcast.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        run = lambda *argv: subprocess.run(
            [sys.executable, "-m", "v2x_loadcast", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        shown = run("--help")
        assert shown.returncode == 0 and "usage:" in shown.stdout
        bad = run("run", "--config", str(write_config(tmp_path, "lamda = 0.2")))
        assert bad.returncode == 2
        assert bad.stderr.strip().splitlines() == [bad.stderr.strip()]
        assert bad.stderr.startswith("error: ConfigError:")

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "lamda = 0.2")
        code = dispatch(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ConfigError:" in err and "lamda" in err

    def test_synth_zero_days_is_config_error(self, tmp_path, capsys):
        code = dispatch(["synth", "--days", "0", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and "days" in err
        assert len(err.strip().splitlines()) == 1

    def test_simulate_negative_lambda_is_config_error(self, tmp_path, capsys):
        road = tmp_path / "road.csv"
        assert dispatch(["synth", "--days", "1", "--out", str(road)]) == 0
        code = dispatch(["simulate", "--road", str(road), "--lambda", "-1", "--h", "0.5",
                         "--range", "1.5", "--out", str(tmp_path / "calls.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and "lam" in err
        assert len(err.strip().splitlines()) == 1

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(["synth", "--days", "1", "--seed", "3", "--out", str(a)]) == 0
        assert dispatch(["synth", "--days", "1", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ingest_reports_and_echoes(self, tmp_path, one_day_csv, capsys):
        out = tmp_path / "echo.csv"
        assert dispatch(["ingest", "--input", str(one_day_csv), "--out", str(out)]) == 0
        assert "1 day(s)" in capsys.readouterr().out
        assert out.exists()

    def test_ingest_gap_fails_without_impute(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("timestamp,flow,speed\n0,10,60\n600,12,61\n")
        assert dispatch(["ingest", "--input", str(path)]) == 1
        assert "error: GapError:" in capsys.readouterr().err

    def test_simulate_out_of_memory_is_one_error_line(self, one_day_csv, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(cli, "simulate_calls", _no_memory)
        code = dispatch(["simulate", "--road", str(one_day_csv), "--lambda", "0.2", "--h", "0.5",
                         "--range", "1.5", "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error: MemoryError: Unable to allocate"), err

    def test_simulate_writes_fused_csv(self, tmp_path):
        road = tmp_path / "road.csv"
        dispatch(["synth", "--days", "1", "--seed", "2", "--out", str(road)])
        out = tmp_path / "calls.csv"
        code = dispatch(
            ["simulate", "--road", str(road), "--lambda", "0.2", "--h", "0.5",
             "--range", "1.5", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp,flow,speed,calls"
        assert len(lines) == 1 + 288

    def test_run_emits_deterministic_metrics(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert dispatch(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header == "scenario_id,lambda,h,range,mode,seed,test_mae,val_mae,epochs"

    def test_run_writes_json_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "runs"
        assert dispatch(["run", "--config", str(cfg), "--out", str(out)]) == 0
        reports = sorted(out.glob("*.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert payload["mode"] == "net_road"
        assert payload["epochs"] == len(payload["train_losses"])

    def test_dump_config_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path)
        dump = tmp_path / "resolved.cfg"
        out1 = tmp_path / "o1"
        assert dispatch(["run", "--config", str(cfg), "--out", str(out1),
                         "--dump-config", str(dump)]) == 0
        out2 = tmp_path / "o2"
        assert dispatch(["run", "--config", str(dump), "--out", str(out2)]) == 0
        a = (out1 / "metrics.csv").read_text()
        b = (out2 / "metrics.csv").read_text()
        assert a == b

    def test_grid_runs_the_seven_table_scenarios(self, tmp_path):
        cfg, out = write_config(tmp_path, SMALL_RUN.replace("max_epochs = 2", "max_epochs = 1")), tmp_path / "g"
        assert dispatch(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 7 and len({row.split(",")[0] for row in rows}) == 7
        assert dispatch(["grid", "--grid", "table1", "--config", str(cfg)]) == 2  # the flag is gone

    def test_set_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        code = dispatch(["run", "--config", str(cfg), "--out", str(out),
                         "--set", "feature_mode=net"])
        assert code == 0
        assert ",net," in (out / "metrics.csv").read_text()

    def test_failed_rows_flagged_nonzero_exit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, SMALL_RUN + "lambda_per_min = 0\nhandover_prob = 0\n"
        )
        out = tmp_path / "o"
        assert dispatch(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "DegenerateFeature" in capsys.readouterr().err

    def test_several_failed_rows_print_one_error_line(self, tmp_path, capsys):
        text = SMALL_RUN.replace("net_road", "both") + "lambda_per_min = 0\nhandover_prob = 0\n"
        cfg, out = write_config(tmp_path, text), tmp_path / "o"
        assert dispatch(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2, err
        assert err[0].startswith("error: DegenerateFeature: ") and err[0].endswith("/net/seed1)")
        assert err[1].startswith("warning: r1.5_l0_h0/net_road/seed1 failed: DegenerateFeature: ")

    def test_diverged_run_prints_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN + "learning_rate = 1e200\n")
        out = tmp_path / "o"
        assert dispatch(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: Diverged: epoch 1: mean training loss "), err
        assert (out / "metrics.csv").read_text().count("\n") == 1  # the header alone

    def test_finite_blow_up_prints_one_diverged_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN + "learning_rate = 1e100\n")
        out = tmp_path / "o"
        assert dispatch(["run", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Diverged: epoch 1: "), err
        assert "times the MAE of predicting zero" in err[0]
        assert (out / "metrics.csv").read_text().count("\n") == 1  # the header alone
        assert max(map(len, captured.out.splitlines())) < 100  # no 100-digit table cell

    def test_gradcheck_passes(self, capsys):
        assert dispatch(["gradcheck", "--seeds", "4"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradcheck_nan_errors_fail(self, capsys):
        # A step this large overflows the loss, so every model's error is NaN.
        assert dispatch(["gradcheck", "--seeds", "2", "--step", "1e300"]) == 1
        out = capsys.readouterr().out
        assert "max relative error nan; FAIL" in out, out

    @pytest.mark.parametrize("argv", [
        ["--seeds", "0"],
        ["--seeds", "2", "--step", "0"],
        ["--seeds", "2", "--tolerance", "nan"],
    ])
    def test_gradcheck_bad_flag_is_config_error(self, argv, capsys):
        assert dispatch(["gradcheck", *argv]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: --"), err
        assert argv[-2] in err[0] and captured.out == ""

    @pytest.mark.parametrize("stamp", ["99999999999999999900", "999999999999900"])
    def test_ingest_epoch_out_of_range_is_malformed_row(self, stamp, tmp_path, capsys):
        # Past int64, and past the year 9999 that a gap message could name.
        path = tmp_path / "far.csv"
        path.write_text(f"timestamp,flow,speed\n{stamp},1,60\n")
        assert dispatch(["ingest", "--input", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: MalformedRow: line 2:"), err

    def test_report_flattens_epochs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "runs"
        dispatch(["run", "--config", str(cfg), "--out", str(out)])
        csv_out = tmp_path / "epochs.csv"
        assert dispatch(["report", "--runs", str(out), "--out", str(csv_out)]) == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0].startswith("scenario_id,")
        assert len(lines) >= 2
