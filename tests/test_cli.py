import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import v2x_loadcast
from v2x_loadcast.cli import dispatch
from v2x_loadcast.config import AppConfig, parse_config_file
from v2x_loadcast.errors import ConfigError

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

    def test_gradcheck_passes(self, capsys):
        assert dispatch(["gradcheck", "--seeds", "4"]) == 0
        assert "PASS" in capsys.readouterr().out

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
