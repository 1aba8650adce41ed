"""Command line interface: subcommands, artifacts and exit codes."""

import json
from types import SimpleNamespace

import pytest
import yaml

from dcmwalk import cli
from dcmwalk.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PLAN, EXIT_RUN, main)


def write_config(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def last_json_line(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


class TestRun:
    def test_standing_run_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "forward_velocity": 0.0, "duration": 2.0,
            "noise": {"zmp_std": 0.0, "encoder_std": 0.0, "actuation_std": 0.0,
                      "velocity_lag": 0.0, "impact_ratio": 0.0}})
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "traces.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] is True
        assert last_json_line(capsys)["completed"] is True

    def test_fall_exits_run_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "forward_velocity": 0.0, "duration": 3.0,
            "pushes": [[1.0, [1.5, 0.0]]]})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_RUN
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "run_failed"

    def test_infeasible_plan_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"forward_velocity": 2.0, "duration": 4.0})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_PLAN
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "plan_infeasible"

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"walk_speed": 0.1})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config"

    def test_velocity_in_unicycle_block_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"unicycle": {"forward_velocity": 0.3}})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config"

    def test_nan_duration_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"duration": float("nan")})
        assert ".nan" in (tmp_path / "scenario.yaml").read_text()
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config"

    def test_nan_gain_exit_code(self, tmp_path, capsys):
        # A NaN gain used to run, and end at cycle 0 as an infeasible QP.
        cfg = write_config(tmp_path, {"dcm_kp": float("nan"), "duration": 3.0})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config"
        assert "dcm_kp must be finite" in err["message"]

    @pytest.mark.parametrize("key, value", [("dcm_kp", 0.5), ("dcm_ki", -1.0),
                                            ("mpc_q", 0.0), ("mpc_r", -0.1)])
    def test_bad_stabilizer_gain_exit_code(self, tmp_path, capsys, key, value):
        # Checked when the config is parsed: before, the output directory
        # was made and the run failed at its start.
        cfg = write_config(tmp_path, {key: value})
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config"
        assert not out.exists()

    def test_nan_push_exit_code(self, tmp_path, capsys, monkeypatch):
        # A NaN impulse used to run to the push at t = 1 s and fail there.
        def ran(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli, "run_scenario", ran)
        cfg = write_config(tmp_path, {"pushes": [[1.0, [float("nan"), 0.0]]]})
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config"
        assert "push time and impulse must be finite" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("time", [-5.0, 10.0, 30.0])
    def test_push_outside_run_exit_code(self, tmp_path, capsys, monkeypatch, time):
        def ran(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli, "run_scenario", ran)
        cfg = write_config(tmp_path, {"duration": 10.0, "pushes": [[time, [0.1, 0.0]]]})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config"
        assert "outside [0, duration]" in err["message"]
        assert not out.exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_malformed_yaml_exit_code(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text("a: [1, 2\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config" and err["message"]
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_writes_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "duration": 3.0,
            "noise": {"zmp_std": 0.0, "encoder_std": 0.0, "actuation_std": 0.0,
                      "velocity_lag": 0.0, "impact_ratio": 0.0}})
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--velocities", "0.0", "0.19",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads((out / "sweep.json").read_text())
        assert len(rows) == 2
        assert rows[1]["forward_velocity"] == 0.19
        capsys.readouterr()

    def test_keeps_unicycle_block(self, tmp_path, capsys, monkeypatch):
        seen = []

        def fake_run(scenario, seed=0):
            seen.append(scenario.unicycle)
            return SimpleNamespace(summary={})

        monkeypatch.setattr(cli, "run_scenario", fake_run)
        cfg = write_config(tmp_path, {"unicycle": {"max_step_length": 0.2}})
        code = main(["sweep", "--config", cfg, "--velocities", "0.1", "0.3",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert [(u.forward_velocity, u.max_step_length) for u in seen] \
            == [(0.1, 0.2), (0.3, 0.2)]
        capsys.readouterr()


class TestCompare:
    def test_comparison_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "duration": 3.0,
            "noise": {"zmp_std": 0.0, "encoder_std": 0.0, "actuation_std": 0.0,
                      "velocity_lag": 0.0, "impact_ratio": 0.0}})
        out = tmp_path / "out"
        code = main(["compare", "--config", cfg, "--velocities", "0.19",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "SimplifiedModelControl,WholeBodyQPControl,MaxStraightVelocity"
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.endswith("0.19")
        capsys.readouterr()
