"""Command-line interface: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from nonholo.cli import main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(args):
    return main(args)


class TestSimulate:
    def test_demo_run_writes_artifacts(self, workdir, capsys):
        code = run(["simulate", "--model", "ball", "--demo",
                    "--horizon", "5", "--samples", "51", "--report", "report.json"])
        assert code == 0
        assert (workdir / "trajectory.csv").exists()
        report = json.loads((workdir / "report.json").read_text())
        assert report["pass"] is True
        assert set(report["drifts"]) == {"H", "F1", "F2", "Msq"}

    def test_domain_violation_exits_3(self, workdir, capsys):
        code = run(["simulate", "--model", "ball", "--A", "0.4,0.5,0.6",
                    "--D", "3.0", "--demo"])
        assert code == 3
        assert "z-axis" in capsys.readouterr().err

    def test_missing_initial_condition_exits_2(self, workdir, capsys):
        code = run(["simulate", "--model", "ball"])
        assert code == 2

    def test_unknown_model_exits_2(self, workdir):
        assert run(["simulate", "--demo"]) == 2

    def test_gyrostat_report_includes_extra_integral(self, workdir):
        code = run(["simulate", "--model", "veselova", "--gyrostat", "0,0,0.1",
                    "--U", "zero", "--demo", "--horizon", "5", "--samples", "51",
                    "--report", "report.json"])
        assert code == 0
        report = json.loads((workdir / "report.json").read_text())
        assert "MkSq" in report["drifts"]

    def test_omega_initial_condition(self, workdir):
        code = run(["simulate", "--model", "ball", "--omega", "1,0,0",
                    "--gamma", "0,0,1", "--horizon", "1", "--samples", "11",
                    "--report", "report.json"])
        assert code == 0

    def test_gamma_renormalized_with_warning(self, workdir):
        with pytest.warns(UserWarning, match="renormalizing"):
            code = run(["simulate", "--model", "ball", "--M", "0.3,-0.2,0.5",
                        "--gamma", "0,0,1.001", "--horizon", "1", "--samples", "11"])
        assert code == 0

    def test_config_file_with_flag_override(self, workdir):
        cfg = {
            "model": "ball",
            "A": [0.4, 0.5, 0.6],
            "D": 1.0,
            "initial": {"M": [0.3, -0.2, 0.5], "gamma": [0.0, 0.0, 1.0]},
            "integrator": {"horizon": 2.0, "samples": 21},
        }
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        code = run(["simulate", "--config", "cfg.json", "--horizon", "1",
                    "--report", "report.json"])
        assert code == 0
        report = json.loads((workdir / "report.json").read_text())
        assert report["horizon"] == 1.0

    def test_coarse_run_fails_threshold(self, workdir):
        code = run(["simulate", "--model", "ball", "--demo", "--rtol", "1e-4",
                    "--atol", "1e-6", "--horizon", "50", "--samples", "51"])
        assert code == 4


class TestCheck:
    def test_jacobi(self, workdir, capsys):
        assert run(["check", "jacobi", "--model", "ball", "-n", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max"] <= 1e-6

    def test_jacobi_negative_control(self, workdir, capsys):
        assert run(["check", "jacobi", "--negative-control", "-n", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fraction_violating"] >= 0.9

    def test_measure(self, workdir):
        assert run(["check", "measure", "-n", "100"]) == 0

    def test_conformal(self, workdir):
        assert run(["check", "conformal", "-n", "100"]) == 0

    def test_duality(self, workdir, capsys):
        assert run(["check", "duality", "--D", "1", "-n", "200"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["hamiltonian_identity_max"] <= 1e-12

    def test_gauge(self, workdir):
        assert run(["check", "gauge", "-n", "60"]) == 0

    def test_planar(self, workdir):
        assert run(["check", "planar", "-n", "60"]) == 0

    def test_deterministic_output(self, workdir, capsys):
        run(["check", "duality", "-n", "50", "--seed", "3"])
        first = capsys.readouterr().out
        run(["check", "duality", "-n", "50", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestReduce:
    def test_trivial_parameters(self, workdir, capsys):
        assert run(["reduce", "--g", "1", "--f", "0", "--L", "8", "-n", "20"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c"] == pytest.approx(1.0, abs=1e-10)
        assert out["bracket_dev"] <= 1e-6

    def test_ball_moderate_band_limit(self, workdir, capsys):
        assert run(["reduce", "--model", "ball", "--L", "16", "-n", "30"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["g_tilde_dev"] <= 1e-8
        assert out["f_tilde_dev"] <= 1e-5
        assert out["bracket_dev"] <= 1e-6

    def test_under_resolved_exits_4(self, workdir, capsys):
        assert run(["reduce", "--model", "ball", "--L", "4", "-n", "5"]) == 4
        assert "--L 8" in capsys.readouterr().err

    def test_incomplete_constants_exit_2(self, workdir):
        assert run(["reduce", "--g", "1"]) == 2

    def test_deterministic_report(self, workdir, capsys):
        run(["reduce", "--g", "1", "--f", "0", "--L", "6", "-n", "10"])
        first = capsys.readouterr().out
        run(["reduce", "--g", "1", "--f", "0", "--L", "6", "-n", "10"])
        assert first == capsys.readouterr().out


class TestPlanarDemo:
    def test_run(self, workdir, capsys):
        code = run(["planar-demo", "--horizon", "20", "--samples", "101",
                    "--report", "planar.json"])
        assert code == 0
        report = json.loads((workdir / "planar.json").read_text())
        assert report["energy_drift"] <= 1e-8
        assert report["conformal_residual_max"] <= 1e-8
        header = (workdir / "planar_trajectory.csv").read_text().splitlines()[0]
        assert header == "t,q1,q2,P1,P2,E"
