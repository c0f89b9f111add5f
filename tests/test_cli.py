"""Command-line interface: exit codes, artifacts, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonholo.cli as cli_mod
import nonholo.core as core
import nonholo.gauge as gauge_mod
import nonholo.planar as planar_mod
import nonholo.sphere as sphere
from nonholo import (
    BallParams,
    DomainError,
    GFParams,
    GaugeTransform,
    ScalarField,
    VectorField3,
    VeselovaParams,
    apply_gauge_state,
    assemble_P,
    ball_K,
    ball_system,
    bivector_field,
    compose,
    conformal_residual,
    duality_map,
    jacobiator,
    measure_residual,
    pack,
    pushforward_params,
    vector,
    veselova_K,
    veselova_system,
)
from nonholo.cli import main
from nonholo.models import DEMO_BALL
from nonholo.planar import PlanarSystem, conformal_bracket, demo_system, to_conformal


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
        assert capsys.readouterr().err == ""

    def test_domain_violation_exits_3(self, workdir, capsys):
        code = run(["simulate", "--model", "ball", "--A", "0.4,0.5,0.6",
                    "--D", "3.0", "--demo"])
        assert code == 3
        assert "z-axis" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fewer_than_two_samples_exits_3(self, workdir, capsys, samples):
        assert run(["simulate", "--model", "ball", "--demo", "--samples", samples]) == 3
        assert "samples must be at least 2" in capsys.readouterr().err

    def test_missing_initial_condition_exits_2(self, workdir, capsys):
        code = run(["simulate", "--model", "ball"])
        assert code == 2

    def test_unknown_model_exits_2(self, workdir):
        assert run(["simulate", "--demo"]) == 2

    def test_stalled_integration_exits_4(self, workdir, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise core.StiffnessError("integration stalled: the step size underflowed at t = 1.5")

        monkeypatch.setattr(cli_mod, "integrate_sphere", stall)
        assert run(["simulate", "--model", "ball", "--demo"]) == 4
        assert capsys.readouterr().err == ("tolerance failure: integration stalled: "
                                           "the step size underflowed at t = 1.5\n")

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

    def test_gamma_renormalized_with_warning(self, workdir, capsys):
        # one plain stderr line, not Python's two-line warning with its
        # source path and code line
        code = run(["simulate", "--model", "ball", "--M", "0.3,-0.2,0.5",
                    "--gamma", "0,0,1.001", "--horizon", "1", "--samples", "11"])
        assert code == 0
        assert capsys.readouterr().err == "warning: renormalizing gamma: |gamma| = 1.001\n"

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

    def test_coarse_run_fails_threshold(self, workdir, capsys):
        code = run(["simulate", "--model", "ball", "--demo", "--rtol", "1e-4",
                    "--atol", "1e-6", "--horizon", "50", "--samples", "51"])
        assert code == 4
        assert capsys.readouterr().err == ("drift gate: F1 drifted 3.547e-05 > 1e-08 at t = 35; "
                                           "try a smaller --rtol\n")

    @pytest.mark.parametrize("argv, config, field", [
        (["--threshold", "-1"], {}, "--threshold"),
        (["--config", "cfg.json"], {"drift_threshold": -1}, "drift_threshold"),
    ])
    def test_negative_threshold_is_refused(self, workdir, capsys, argv, config, field):
        # the gate could never pass, and the run exited 4 blaming --rtol
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert run(["simulate", "--model", "ball", "--demo", *argv]) == 2
        assert capsys.readouterr().err == f"configuration error: {field} must be at least 0, got -1.0\n"

    @pytest.mark.parametrize("gamma, shown", [("0,0,0", "[0.0, 0.0, 0.0]"), ("nan,0,0", "[nan, 0.0, 0.0]")])
    def test_degenerate_gamma_is_named(self, workdir, capsys, monkeypatch, gamma, shown):
        # refused before the renormalisation, which would warn and divide by
        # zero; a NaN entry already as the flag is read
        argv = ["simulate", "--model", "veselova", "--M", "1,0,0", "--gamma", gamma]
        assert run(argv) == 3
        assert capsys.readouterr().err.startswith("domain error: --gamma")
        # behind the flag's finite rule, the initial state refuses a direction of
        # zero or non-finite norm and names both knobs
        monkeypatch.setattr(cli_mod, "_number", _unchecked_number)
        assert run(argv) == 3
        assert capsys.readouterr().err == ("domain error: --gamma (initial.gamma) must be a finite "
                                           f"nonzero direction, got {shown}\n")

    @pytest.mark.parametrize("gamma, length", [("1e300,1e300,0", "1.4142136e+300"),
                                               ("1e-200,1e-200,0", "1.4142136e-200"),
                                               ("1.7e308,1.7e308,0", "2.4041631e+308")])
    def test_extreme_finite_gamma_is_a_direction(self, workdir, capsys, gamma, length):
        # the norm overflowed (numpy's RuntimeWarning, then exit 3) or
        # underflowed to zero (exit 3); scaled by a power of two first, all
        # read as the direction (1, 1, 0) / sqrt(2), with only the
        # renormalisation's own warning, which prints the true length even
        # past the largest float (it read |gamma| = inf)
        code = run(["simulate", "--model", "ball", "--gamma", gamma, "--M", "0,0,1", "--horizon", "1",
                    "--samples", "11"])
        assert code == 0
        out, err = capsys.readouterr()
        assert err == f"warning: renormalizing gamma: |gamma| = {length}\n"
        report = json.loads(out)
        np.testing.assert_allclose(report["initial_state"][3:], [0.5 ** 0.5, 0.5 ** 0.5, 0.0], rtol=1e-15)

    # a NaN passed the `<= 0` test: --rtol and --atol nan then stepped
    # without end, and --horizon nan ended in a traceback.  A NaN is now
    # refused as the flag is read, a non-positive number by IntegratorConfig
    @pytest.mark.parametrize("flag, value, shown", [("--rtol", "0", "0.0"), ("--atol", "-1", "-1.0"),
                                                    ("--horizon", "0", "0.0"), ("--rtol", "nan", "nan"),
                                                    ("--atol", "nan", "nan"), ("--horizon", "nan", "nan")])
    def test_non_positive_integrator_value_is_named(self, workdir, capsys, deadline, flag, value, shown):
        assert run(["simulate", "--model", "ball", "--demo", flag, value]) == 3
        rule = f"{flag} must be finite" if value == "nan" else f"{flag[2:]} must be positive"
        assert capsys.readouterr().err == f"domain error: {rule}, got {shown}\n"

    def test_direction_alone_names_the_momentum_knobs(self, workdir, capsys):
        assert run(["simulate", "--model", "ball", "--gamma", "0,0,1"]) == 2
        assert capsys.readouterr().err == ("configuration error: initial condition needs --M or "
                                           "--omega (or initial.M or initial.omega)\n")


def _unchecked_number(value, field, kind=float, least=-np.inf):
    """``cli._number`` without its rules, to reach the checks behind them."""
    return kind(value)


BALL_CFG = {"model": "ball", "initial": {"M": [0.3, -0.2, 0.5], "gamma": [0.0, 0.0, 1.0]},
            "integrator": {"horizon": 1.0, "samples": 11}}
# the knobs a ball simulate's refusal of its flow names
BALL_FLOW_KNOBS = "; its knobs are --M or --omega, --gamma, --gyrostat, --U-vec, --A and --D"
# gauge.reduce_to_e3's refusals, and the knobs reduce appends to them
GF_KNOBS = "; its knobs are --g and --f"
OVERFLOW = "the reduction of this (g, f) is not finite: overflow encountered in multiply"
F_PAST = "F = -(f/g^2 + 1/g + (gamma, d(1/g))) reaches |F| = %s, past 1e+102"
HALF_DIGITS = ("the dilation c = -mean(F) keeps fewer than half the digits of F's terms: |c| = %s, "
               "below sqrt(eps) mean(|f|/g^2 + 1/g + |(gamma, d(1/g))|) = %s")


class TestNonFiniteInputs:
    """A non-finite number, from a flag or a config field, exits 3 with one
    line naming it.  A NaN passed each `<= 0` test and an infinite value
    was taken: simulate then stepped without end or failed its drift gate
    blaming --rtol, and check and reduce failed on a NaN field without
    naming the knob.  The integrator's NaNs are cases of
    test_non_positive_integrator_value_is_named and, for planar-demo,
    test_bad_integrator_flag_exits_3."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "ball", "--demo", "--horizon", "inf"], "horizon must be finite, got inf"),
        (["simulate", "--model", "ball", "--demo", "--D", "nan"], "D must be positive, got nan"),
        (["check", "jacobi", "--model", "ball", "--D", "nan"], "D must be positive, got nan"),
        (["reduce", "--model", "ball", "--D", "nan"], "D must be positive, got nan"),
        (["check", "duality", "--D", "nan"], "D must be positive, got nan"),
        (["simulate", "--model", "ball", "--demo", "--gyrostat", "nan,0,0"],
         "gyrostat k must be finite, got [nan, 0.0, 0.0]"),
        (["simulate", "--model", "veselova", "--demo", "--gyrostat", "nan,0,0"],
         "gyrostat k must be finite, got [nan, 0.0, 0.0]"),
        # a finite setting whose flow is not finite: refused before the first step
        (["simulate", "--model", "ball", "--demo", "--U", "linear", "--U-vec", "nan,0,0"],
         "the flow is not finite at the initial state" + BALL_FLOW_KNOBS),
    ])
    def test_refused_within_seconds(self, workdir, capsys, monkeypatch, deadline, argv, message):
        # the value is refused as its flag, the last argument but one, is read
        assert run(argv) == 3
        assert capsys.readouterr().err.startswith(f"domain error: {argv[-2]}")
        # the library object behind the flag refuses it too, for library callers
        monkeypatch.setattr(cli_mod, "_number", _unchecked_number)
        assert run(argv) == 3
        assert capsys.readouterr().err == f"domain error: {message}\n"

    # a finite flow whose scaled norm overflows: the initial step came out
    # zero and the stepper divided by it, a ZeroDivisionError traceback
    @pytest.mark.parametrize("argv", [["--U", "linear", "--U-vec", "1e150,0,0"], ["--gyrostat", "1e160,0,0"]])
    def test_overflowing_flow_is_refused(self, workdir, capsys, deadline, argv):
        assert run(["simulate", "--model", "ball", "--demo", *argv, "--horizon", "1"]) == 3
        assert capsys.readouterr().err == ("domain error: the flow is not finite at the initial state"
                                           f"{BALL_FLOW_KNOBS}\n")
        assert not (workdir / "trajectory.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "ball", "--demo", "--horizon", "inf"], "--horizon must be finite, got inf"),
        (["simulate", "--model", "ball", "--demo", "--D", "nan"], "--D must be finite, got nan"),
        (["simulate", "--model", "ball", "--demo", "--gyrostat", "nan,0,0"],
         "--gyrostat[0] must be finite, got nan"),
        # the drift gate failed, blaming --rtol
        (["simulate", "--model", "ball", "--demo", "--threshold", "nan"], "--threshold must be finite, got nan"),
        # the reduction failed on a non-finite field or dilation without naming --g or --f
        (["reduce", "--g", "nan", "--f", "0"], "--g must be finite, got nan"),
        (["reduce", "--g", "inf", "--f", "0"], "--g must be finite, got inf"),
        (["reduce", "--g", "1", "--f", "nan"], "--f must be finite, got nan"),
        # the flow, or the initial state, was not finite
        (["simulate", "--model", "veselova", "--demo", "--Ahat", "inf,0.75,0.9"],
         "--Ahat[0] must be finite, got inf"),
        (["simulate", "--model", "ball", "--demo", "--U", "linear", "--U-vec", "nan,0,0"],
         "--U-vec[0] must be finite, got nan"),
        (["simulate", "--model", "ball", "--gamma", "0,0,1", "--M", "nan,0,0"], "--M[0] must be finite, got nan"),
        (["simulate", "--model", "ball", "--gamma", "0,0,1", "--omega", "inf,0,0"],
         "--omega[0] must be finite, got inf"),
        # the dual body's check blamed Ahat[2]
        (["check", "duality", "--D", "inf"], "--D must be finite, got inf"),
        # argparse read a separate "-inf" as an unknown flag
        (["check", "duality", "--D", "-inf"], "--D must be finite, got -inf"),
        # a finite D whose dual inertia overflows: a numpy RuntimeWarning, then
        # a message blaming A[0] (x-axis), which check duality does not read
        (["check", "duality", "--D", "1e-320"],
         "D = 1e-320 is too small: the dual inertia (1 - Ahat) / D overflows"),
        # a finite dual inertia whose square overflowed in the dual ball's
        # Hamiltonian: a numpy RuntimeWarning, then an infinite report that
        # failed its gate naming no knob
        (["check", "duality", "--D", "1e-300"], "D = 1e-300 is too small: the dual ball's Hamiltonian overflows"),
        # a ball D whose 1/D overflows: check jacobi warned and wrote a NaN
        # worst value, reduce blamed the internal dilation c, simulate ran
        (["check", "jacobi", "--model", "ball", "--D", "1e-320", "-n", "20"], "D = 1e-320 is too small: 1/D overflows"),
        (["reduce", "--model", "ball", "--D", "1e-320", "--L", "8"], "D = 1e-320 is too small: 1/D overflows"),
        (["simulate", "--model", "ball", "--D", "1e-320", "--demo", "--horizon", "1"],
         "D = 1e-320 is too small: 1/D overflows"),
        # constant pairs outside the reduction's scale rule: numpy overflow
        # warnings, then exit 0, a NaN bracket_dev, or a refusal naming the
        # grid or the internal dilation c.  The rule is the library's
        # (gauge.reduce_to_e3), and the command appends the knobs
        (["reduce", "--g", "1e300", "--f", "0", "--L", "8"], OVERFLOW + GF_KNOBS),
        (["reduce", "--g", "1e-300", "--f", "0", "--L", "8"], OVERFLOW + GF_KNOBS),
        (["reduce", "--g", "1e-160", "--f", "0", "--L", "8"], OVERFLOW + GF_KNOBS),
        (["reduce", "--g", "1", "--f", "1e300", "--L", "8"], F_PAST % "1e+300" + GF_KNOBS),
        (["reduce", "--g", "1e-60", "--f", "1", "--L", "8"], F_PAST % "1e+120" + GF_KNOBS),
        (["reduce", "--g", "1", "--f", "-1", "--L", "8"], HALF_DIGITS % ("0", "2.98023e-08") + GF_KNOBS),
        # constant pairs whose F cancels: the reduction reduced the round-off
        # of its two terms, passing with f_tilde_dev 1.0 (c = 1.98e-118),
        # failing on an |F| of 2.1e34 that is exactly 0, or passing with
        # f_tilde_dev 9.5e-7
        (["reduce", "--g", "1e102", "--f", "-1e102", "--L", "8"],
         HALF_DIGITS % ("1.98277e-118", "2.98023e-110") + GF_KNOBS),
        (["reduce", "--g", "1e-50", "--f", "-1e-50", "--L", "8"],
         HALF_DIGITS % ("2.07692e+34", "2.98023e+42") + GF_KNOBS),
        (["reduce", "--g", "7", "--f", "-7.000000001", "--L", "8"],
         HALF_DIGITS % ("2.04082e-11", "4.25747e-09") + GF_KNOBS),
        # a ball D whose 1/D is finite but whose bracket overflows: check
        # jacobi warned and wrote a NaN worst value
        (["check", "jacobi", "--model", "ball", "--D", "1e-308", "-n", "20"],
         "the ball bracket's jacobiator overflows at A = [0.4, 0.5, 0.6], D = 1e-308, k = [0.0, 0.0, 0.0]"),
        # an Ahat whose 1/Ahat overflows: check jacobi warned and wrote a NaN
        # worst value, reduce warned and blamed the sphere grid, simulate
        # blamed the flow
        (["check", "jacobi", "--model", "veselova", "--Ahat", "1e-320,1e-320,1e-320", "-n", "20"],
         "Ahat[0] = 1e-320 is too small: 1/Ahat[0] overflows"),
        (["reduce", "--model", "veselova", "--Ahat", "1e-320,1e-320,1e-320", "--L", "8"],
         "Ahat[0] = 1e-320 is too small: 1/Ahat[0] overflows"),
        (["simulate", "--model", "veselova", "--Ahat", "1e-320,1e-320,1e-320", "--demo", "--horizon", "1"],
         "Ahat[0] = 1e-320 is too small: 1/Ahat[0] overflows"),
        # finite settings whose flow overflows at the initial state: the
        # refusal named no knob
        (["simulate", "--model", "ball", "--demo", "--M", "1e300,0,0", "--horizon", "1"],
         "the flow is not finite at the initial state" + BALL_FLOW_KNOBS),
        (["simulate", "--model", "ball", "--demo", "--gyrostat", "1e300,0,0", "--horizon", "1"],
         "the flow is not finite at the initial state" + BALL_FLOW_KNOBS),
        (["simulate", "--model", "veselova", "--demo", "--Ahat", "1e300,1e300,1e300", "--horizon", "1"],
         "the flow is not finite at the initial state; its knobs are --M or --omega, --gamma, --gyrostat, "
         "--U-vec and --Ahat"),
    ])
    def test_flag_is_named(self, workdir, capsys, deadline, argv, message):
        assert run(argv) == 3
        assert capsys.readouterr().err == f"domain error: {message}\n"

    @pytest.mark.parametrize("entries, message", [
        # the drift gate failed, blaming --rtol
        ({"drift_threshold": np.nan}, "drift_threshold must be finite, got nan"),
        ({"D": np.inf}, "D must be finite, got inf"),
        ({"integrator": {"horizon": 1.0, "rtol": np.nan}}, "integrator.rtol must be finite, got nan"),
        ({"gyrostat": [0, np.nan, 0]}, "gyrostat[1] must be finite, got nan"),
        ({"potential": {"kind": "linear", "r": [0, 0, np.inf]}}, "potential.r[2] must be finite, got inf"),
        ({"initial": {"M": [np.nan, 0, 0], "gamma": [0, 0, 1]}}, "initial.M[0] must be finite, got nan"),
    ])
    def test_config_field_is_named(self, workdir, capsys, deadline, entries, message):
        # JSON has no NaN or Infinity, but Python's json module writes and reads them
        (workdir / "cfg.json").write_text(json.dumps({**BALL_CFG, **entries}))
        assert run(["simulate", "--config", "cfg.json"]) == 3
        assert capsys.readouterr().err == f"domain error: {message}\n"


BUDGET = "domain error: the integration used its budget of 200000 flow evaluations at t = "
VESELOVA_FLOW_KNOBS = "; its knobs are --horizon, --M or --omega, --gamma, --gyrostat, --U-vec and --Ahat"


class TestRunBudget:
    """A run whose cost no flag bounds exits 3 once its next step would pass
    integrate.MAX_NFEV flow evaluations, naming --horizon with the flow's
    knobs and writing no CSV.  The Veselova bodies were still running when
    a 15 s timeout ended them, the horizons of 1e300 past 8 s."""

    @pytest.mark.parametrize("argv, knobs", [
        (["simulate", "--model", "veselova", "--demo", "--Ahat", "1e30,1e30,1e30", "--horizon", "0.01"],
         VESELOVA_FLOW_KNOBS),
        (["simulate", "--model", "veselova", "--demo", "--Ahat", "1e-30,1e-30,1e-30", "--horizon", "0.01"],
         VESELOVA_FLOW_KNOBS),
        (["simulate", "--model", "ball", "--demo", "--horizon", "1e300"],
         BALL_FLOW_KNOBS.replace("are --M", "are --horizon, --M")),
        (["planar-demo", "--horizon", "1e300"], "; its knob is --horizon"),
    ], ids=["veselova-Ahat-1e30", "veselova-Ahat-1e-30", "simulate-horizon-1e300", "planar-demo-horizon-1e300"])
    def test_refused_within_the_deadline(self, workdir, capsys, deadline, argv, knobs):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(BUDGET) and err.endswith(f", short of {float(argv[-1]):g}{knobs}\n")
        assert list(workdir.glob("*.csv")) == []


class TestConfigVectors:
    """Every 3-vector of a config file passes the check its flag passes."""

    @pytest.mark.parametrize("entries, field", [
        ({"potential": {"kind": "linear"}}, "potential.r"),
        ({"potential": {"kind": "quadratic"}}, "potential.C"),
        ({"potential": {"kind": "linear", "r": [1, 2]}}, "potential.r"),
        ({"potential": {"kind": "quadratic", "C": "1,2"}}, "potential.C"),
        ({"potential": "linear"}, "potential"),
        ({"gyrostat": [0, 0.1]}, "gyrostat"),
        ({"A": [0.4, 0.5]}, "A"),
        ({"model": "veselova", "Ahat": [0.6, "x", 0.9]}, "Ahat"),
        ({"initial": {"M": [0.3, -0.2], "gamma": [0, 0, 1]}}, "initial.M"),
        ({"initial": {"omega": [1, 0, 0, 0], "gamma": [0, 0, 1]}}, "initial.omega"),
        ({"initial": {"M": [0.3, -0.2, 0.5], "gamma": 1.0}}, "initial.gamma"),
    ])
    def test_malformed_config_vector_exits_2(self, workdir, capsys, entries, field):
        (workdir / "cfg.json").write_text(json.dumps({**BALL_CFG, **entries}))
        assert run(["simulate", "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and field in err

    @pytest.mark.parametrize("flags, field", [
        (["--U", "linear"], "--U-vec"),
        (["--U", "quadratic", "--U-vec", "1,2"], "--U-vec"),
        (["--gyrostat", "0,0.1"], "--gyrostat"),
        (["--A", "x,0.5,0.6"], "--A"),
        (["--M", "0.3,-0.2,y"], "--M"),
    ])
    def test_malformed_flag_vector_exits_2(self, workdir, capsys, flags, field):
        assert run(["simulate", "--model", "ball", "--demo", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and field in err

    @pytest.mark.parametrize("model, kind, key, vec", [
        ("ball", "linear", "r", "0,0.2,1"),
        ("veselova", "quadratic", "C", "1,2,3"),
    ])
    def test_potential_from_config_equals_flags(self, workdir, model, kind, key, vec):
        common = ["--horizon", "2", "--samples", "21", "--demo"]
        assert run(["simulate", "--model", model, "--U", kind, "--U-vec", vec, *common,
                    "--report", "flags.json"]) == 0
        cfg = {"model": model, "potential": {"kind": kind, key: [float(v) for v in vec.split(",")]}}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert run(["simulate", "--config", "cfg.json", *common, "--report", "config.json"]) == 0
        # --U-vec overrides the config's vector
        assert run(["simulate", "--config", "cfg.json", "--U-vec", "0.5,0.5,0.5", *common,
                    "--report", "override.json"]) == 0
        assert run(["simulate", "--model", model, *common, "--report", "zero.json"]) == 0
        flags, config, override, zero = (json.loads((workdir / f"{name}.json").read_text())
                                          for name in ("flags", "config", "override", "zero"))
        assert flags == config
        assert flags["drifts"] != zero["drifts"] and override["drifts"] != flags["drifts"]

    def test_potential_flag_kind_needs_its_own_vector(self, workdir, capsys):
        (workdir / "cfg.json").write_text(json.dumps(
            {**BALL_CFG, "potential": {"kind": "linear", "r": [0, 0, 1]}}))
        assert run(["simulate", "--config", "cfg.json", "--U", "quadratic"]) == 2
        assert "--U quadratic needs --U-vec c1,c2,c3" in capsys.readouterr().err

    def test_momentum_flag_with_demo_direction(self, workdir):
        assert run(["simulate", "--model", "ball", "--M", "1,0,0", "--demo", "--horizon", "1",
                    "--samples", "11", "--report", "r.json"]) == 0
        report = json.loads((workdir / "r.json").read_text())
        assert report["initial_state"][:3] == [1.0, 0.0, 0.0]
        assert report["initial_state"][3:] == list(np.array([1.0, -2.0, 4.0]) / np.sqrt(21.0))


class TestConfigScalars:
    """Every scalar field of a config file is checked like the vectors, and
    a potential vector needs a potential kind."""

    @pytest.mark.parametrize("entries, field", [
        ({"D": [1.0]}, "D"),
        ({"D": True}, "D"),
        ({"integrator": {"horizon": "x", "samples": 11}}, "integrator.horizon"),
        ({"integrator": {"horizon": 1.0, "rtol": [1e-10]}}, "integrator.rtol"),
        ({"integrator": {"horizon": 1.0, "atol": "tight"}}, "integrator.atol"),
        ({"integrator": {"horizon": 1.0, "samples": "many"}}, "integrator.samples"),
        ({"integrator": {"horizon": 1.0, "samples": 11.5}}, "integrator.samples"),
        ({"seed": 3.9}, "seed"),
        ({"drift_threshold": {"H": 1e-8}}, "drift_threshold"),
        ({"seed": "seven"}, "seed"),
        # an integer too large for a float ended in an OverflowError traceback
        ({"D": 10 ** 400}, "D"),
    ])
    def test_malformed_config_scalar_exits_2(self, workdir, capsys, entries, field):
        (workdir / "cfg.json").write_text(json.dumps({**BALL_CFG, **entries}))
        assert run(["simulate", "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field} needs ")

    def test_unknown_config_potential_kind_names_its_field(self, workdir, capsys):
        (workdir / "cfg.json").write_text(json.dumps({**BALL_CFG, "potential": {"kind": "cubic"}}))
        assert run(["simulate", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err == ("configuration error: potential.kind must be zero, "
                                           "linear or quadratic, got 'cubic'\n")

    def test_potential_vector_flag_without_kind_exits_2(self, workdir, capsys):
        assert run(["simulate", "--model", "ball", "--demo", "--U-vec", "0,0,1"]) == 2
        assert "--U linear | quadratic" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, potential", [
        (["--U", "zero", "--U-vec", "0,0,1"], None),
        ([], {"r": [0, 0, 1]}),
        ([], {"kind": "zero", "C": [1, 2, 3]}),
    ])
    def test_potential_vector_without_kind_exits_2(self, workdir, capsys, flags, potential):
        cfg = BALL_CFG if potential is None else {**BALL_CFG, "potential": potential}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert run(["simulate", "--config", "cfg.json", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "--U linear | quadratic" in err

    def test_zero_flag_overrides_a_config_potential(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps(
            {**BALL_CFG, "potential": {"kind": "linear", "r": [0, 0, 1]}}))
        assert run(["simulate", "--config", "cfg.json", "--U", "zero", "--report", "zero.json"]) == 0
        (workdir / "plain.json").write_text(json.dumps(BALL_CFG))
        assert run(["simulate", "--config", "plain.json", "--report", "plain.json"]) == 0
        assert (json.loads((workdir / "zero.json").read_text())["drifts"]
                == json.loads((workdir / "plain.json").read_text())["drifts"])


@pytest.mark.parametrize("argv, text", [
    (["check", "measure", "-n", "5", "--config", "nope.json"], None),
    (["simulate", "--config", "bad.json"], "{bad"),
    (["check", "jacobi", "-n", "5", "--config", "list.json"], "[1,2]"),
])
def test_unreadable_config_exits_2(workdir, capsys, argv, text):
    # a missing file, malformed JSON and a JSON value that is not an object
    if text is not None:
        (workdir / argv[-1]).write_text(text)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --config ") and argv[-1] in err


@pytest.mark.parametrize("argv", [
    ["check", "jacobi", "-n", "5"],
    ["check", "planar", "-n", "5"],
    ["reduce", "--L", "8", "-n", "5"],
])
def test_config_seed_is_read_and_flag_overrides_it(workdir, capsys, argv):
    (workdir / "r.json").write_text(json.dumps({"model": "ball", "seed": 5}))

    def report(*flags):
        code = run([*argv, *flags])
        return code, capsys.readouterr().out

    # the planar suite takes no model flag and ignores the config's model
    model = [] if "planar" in argv else ["--model", "ball"]
    from_config = report("--config", "r.json")
    assert json.loads(from_config[1])["seed"] == 5
    assert from_config == report(*model, "--seed", "5")
    overridden = report("--config", "r.json", "--seed", "7")
    assert json.loads(overridden[1])["seed"] == 7
    assert overridden == report(*model, "--seed", "7")


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

    # the identity's terms grow as 1/D: read unscaled, its round-off failed
    # the absolute gate (7.3e-12 at D = 1e-4 over 200 states, 1.2e-7 at 1e-8)
    @pytest.mark.parametrize("D", ["1e-4", "1e-8"])
    def test_duality_small_D(self, workdir, capsys, D):
        assert run(["check", "duality", "--D", D, "-n", "200"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert max(out["hamiltonian_identity_max"], out["g_relation_max"]) <= 1e-12

    def test_duality_reads_config_D(self, workdir, capsys):
        (workdir / "d.json").write_text(json.dumps({"D": 2.0}))
        assert run(["check", "duality", "--config", "d.json", "-n", "50"]) == 0
        from_config = capsys.readouterr().out
        assert json.loads(from_config)["D"] == 2.0
        assert run(["check", "duality", "--D", "2", "-n", "50"]) == 0
        assert capsys.readouterr().out == from_config

    def test_duality_non_number_config_D_exits_2(self, workdir, capsys):
        (workdir / "d.json").write_text(json.dumps({"D": "two"}))
        assert run(["check", "duality", "--config", "d.json", "-n", "50"]) == 2
        assert capsys.readouterr().err == "configuration error: D needs a number, got 'two'\n"

    def test_duality_non_positive_D_exits_3(self, workdir, capsys):
        assert run(["check", "duality", "--D", "0", "-n", "5"]) == 3
        assert capsys.readouterr().err == "domain error: D must be positive, got 0.0\n"

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


@pytest.mark.parametrize("argv", [
    ["check", "jacobi", "-n", "0"],
    ["check", "gauge", "-n", "0"],
    ["check", "planar", "-n", "0"],
    ["check", "conformal", "-n", "-3"],
    ["reduce", "--model", "ball", "-n", "0"],
])
def test_fewer_than_one_state_exits_2(workdir, capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "-n" in err


@pytest.mark.parametrize("argv, message", [
    # argparse's usage error, with the value named only in its last line
    (["check", "duality", "--D", "two"], "--D needs a number, got 'two'"),
    (["check", "measure", "-n", "x"], "-n needs an integer, got 'x'"),
    (["reduce", "--model", "ball", "--L", "1.5"], "--L needs an integer, got '1.5'"),
    (["simulate", "--model", "ball", "--demo", "--samples", "1e3"], "--samples needs an integer, got '1e3'"),
    (["simulate", "--model", "cubic", "--demo"], "pick a model: --model ball | veselova"),
    (["simulate", "--model", "ball", "--demo", "--U", "cubic"],
     "--U must be zero, linear or quadratic, got 'cubic'"),
    # a ValueError traceback from the random generator, exit 1
    (["check", "measure", "-n", "5", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["reduce", "--model", "ball", "--L", "8", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["planar-demo", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["check", "measure", "-n", "5", "--config", "seed.json"], "seed must be at least 0, got -1"),
])
def test_malformed_flag_value_names_it(workdir, capsys, argv, message):
    (workdir / "seed.json").write_text(json.dumps({"seed": -1}))
    assert exit_code(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv, flag, value", [
    (["simulate", "--model", "ball", "--demo"], "--M", "-0.3,0.2,0.5"),
    (["simulate", "--model", "ball", "--demo"], "--omega", "-1,0,0.5"),
    (["simulate", "--model", "ball", "--demo"], "--gamma", "-0.6,0,0.8"),
    (["simulate", "--model", "veselova", "--demo"], "--gyrostat", "-0.1,0,0"),
    (["simulate", "--model", "ball", "--demo", "--U", "linear"], "--U-vec", "-0.5,0,1"),
    # no admissible diagonal is negative: both forms are refused alike
    (["simulate", "--model", "ball", "--demo"], "--A", "-0.4,0.5,0.6"),
    (["simulate", "--model", "veselova", "--demo"], "--Ahat", "-.6,0.75,0.9"),
])
def test_negative_vector_reads_alike_with_or_without_equals(workdir, capsys, argv, flag, value):
    # the separate value was read as an unknown flag: "expected one argument"
    argv = [*argv, "--horizon", "2", "--samples", "21", "--csv", os.devnull]
    results = []
    for form in ([flag, value], [f"{flag}={value}"]):
        code = exit_code([*argv, *form])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1] and results[0][0] in (0, 3)


def _one_state_draws(seed, n):
    """The states a check suite draws, one state at a time, then the planar
    suite's probes, which follow them in the stream."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        g = rng.standard_normal(3)
        g /= np.linalg.norm(g)
        out.append(pack(rng.standard_normal(3), g))
    return out, [rng.standard_normal(4) for _ in range(n)]


def _one_state_bodies(states, probes):
    """Each suite's report body, rebuilt from one-state library calls."""
    ball, ves = BallParams(A=(0.4, 0.5, 0.6), D=1.0), VeselovaParams(Ahat=(0.6, 0.75, 0.9))
    k = np.array([0.0, 0.0, 0.1])
    bodies = {}
    for argv, sysm in ((["--model", "ball"], ball_system(ball)),
                       (["--model", "veselova", "--gyrostat", "0,0,0.1"],
                        veselova_system(VeselovaParams(Ahat=ves.Ahat, k=k)))):
        worst = max(jacobiator(lambda x: assemble_P(sysm, x), x, affine=3) for x in states)
        bodies[("jacobi", *argv)] = {"suite": "jacobi", "model": sysm.name, "max": worst,
                                     "threshold": 1e-6, "pass": True}
    P = bivector_field(g=ScalarField.constant(1.0), K=ball_K(ball))
    vals = [jacobiator(P, x, affine=3) for x in states]
    frac = float(np.mean([v > 1e-3 for v in vals]))
    bodies[("jacobi", "--negative-control")] = {
        "suite": "jacobi-negative-control", "max": max(vals), "min": min(vals),
        "fraction_violating": frac, "threshold": 1e-3, "pass": True}
    systems = [ball_system(ball), ball_system(BallParams(A=ball.A, D=1.0, k=k)),
               veselova_system(ves), veselova_system(VeselovaParams(Ahat=ves.Ahat, k=k))]
    by_model = {s.name: max(conformal_residual(s, x) for x in states) for s in systems}
    bodies[("conformal",)] = {"suite": "conformal", "max_by_model": by_model,
                              "max": max(by_model.values()), "threshold": 1e-10, "pass": True}
    by_model = {}
    for name, sysm, K in (("ball", ball_system(ball), ball_K(ball)),
                          ("veselova", veselova_system(ves), veselova_K(ves))):
        rho = sysm.s_spec.g.reciprocal()
        by_model[name] = max(float(np.max(np.abs(measure_residual(K, x, rho))))
                             for x in states)
    bodies[("measure",)] = {"suite": "measure", "max_by_model": by_model,
                            "max": max(by_model.values()), "threshold": 1e-10, "pass": True}
    H1, g1 = ball_system(duality_map(ves, D=1.0)).hamiltonian, ball_system(duality_map(ves, D=1.0)).s_spec.g
    H2, g2 = veselova_system(ves).hamiltonian, veselova_system(ves).s_spec.g
    h_dev = max(abs(H1(x[:3], x[3:]) - 0.5 * (x[:3] @ x[:3]) + H2(x[:3], x[3:])) for x in states)
    g_dev = max(abs(g1(x[3:]) - g2(x[3:])) for x in states)
    bodies[("duality",)] = {"suite": "duality", "D": 1.0, "hamiltonian_identity_max": h_dev,
                            "g_relation_max": g_dev, "threshold": 1e-12, "pass": True}

    t1 = GaugeTransform(ScalarField(lambda g: 1.2 + 0.3 * g[..., 0] + 0.1 * g[..., 1] ** 2), 1.7,
                        VectorField3(lambda g: vector(0.2 * g[..., 1], -0.1 * g[..., 2] ** 2,
                                                      0.3 * g[..., 0] * g[..., 1])))
    t2 = GaugeTransform(ScalarField(lambda g: 0.9 + 0.2 * g[..., 2]), 0.8,
                        VectorField3(lambda g: vector(0.1 * g[..., 0], 0.05 * g[..., 1], -0.2 * g[..., 2])))
    comp = max(float(np.max(np.abs(apply_gauge_state(t2, apply_gauge_state(t1, x))
                                   - apply_gauge_state(compose(t2, t1), x)))) for x in states)
    base = GFParams(g=ScalarField(ball_system(ball).s_spec.g.fn), f=ScalarField(lambda g: 0.0))
    two_step = pushforward_params(t2, pushforward_params(t1, base))
    one_step = pushforward_params(compose(t2, t1), base)
    action = max(max(abs(two_step.g(x[3:]) - one_step.g(x[3:])), abs(two_step.f(x[3:]) - one_step.f(x[3:])))
                 for x in states)
    bodies[("gauge",)] = {"suite": "gauge", "composition_state_max": comp, "action_property_max": action,
                          "thresholds": {"composition": 1e-12, "action": 1e-8}, "pass": True}

    planar = demo_system()
    P4 = conformal_bracket(planar)
    inadmissible = PlanarSystem(H=planar.H, grad_H=planar.grad_H, A=planar.A, B=planar.B,
                                N=ScalarField.constant(1.0))
    with pytest.raises(DomainError):
        to_conformal(inadmissible, probes[0])
    bodies[("planar",)] = {"suite": "planar",
                           "conformal_residual_max": max(to_conformal(planar, z)[2] for z in probes),
                           "bracket_jacobiator_max": max(jacobiator(P4, z) for z in probes[:50]),
                           "gate_rejects_inadmissible": True,
                           "thresholds": {"residual": 1e-8, "jacobiator": 1e-9}, "pass": True}
    return bodies


class TestStackedSuites:
    """The suites of ``nonholo.checks`` run on one array of states: a
    bounded number of library calls, and the reports of one-state calls on
    the same draws."""

    @pytest.mark.parametrize("argv, name, models", [
        (["check", "jacobi", "--model", "ball"], "jacobiator", 1),
        (["check", "jacobi", "--model", "veselova", "--gyrostat", "0,0,0.1"], "jacobiator", 1),
        (["check", "jacobi", "--negative-control"], "jacobiator", 1),
        (["check", "conformal"], "conformal_residual", 4),
        (["check", "measure"], "measure_residual", 2),
        (["check", "gauge"], "apply_gauge_state", 3),
        # the stacked probes and the negative control
        (["check", "planar"], "to_conformal", 2),
    ])
    def test_at_most_one_call_per_model(self, workdir, capsys, monkeypatch, argv, name, models):
        # each name is counted in its home module, where the suites look it up
        module = {"jacobiator": core, "apply_gauge_state": gauge_mod,
                  "to_conformal": planar_mod}.get(name, sphere)
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        assert run(argv + ["-n", "1000"]) == 0
        assert 1 <= len(calls) <= models

    def test_gauge_differences_each_leaf_once(self, workdir, capsys, monkeypatch):
        # the suite's 5 leaves have no analytic derivatives, and the product
        # rule reads each at the same points several times: 13 differences
        # if a leaf did not keep its latest derivative
        received = []
        for name in ("fd_gradient", "fd_jacobian"):
            monkeypatch.setattr(core, name, lambda fn, *a, _fd=getattr(core, name), **k:
                                received.append(fn) or _fd(fn, *a, **k))
        assert run(["check", "gauge", "-n", "1000"]) == 0
        assert len(received) == 5 and len({id(fn) for fn in received}) == 5

    def test_reports_equal_one_state_calls(self, workdir, capsys):
        bodies = _one_state_bodies(*_one_state_draws(7, 200))
        for argv, body in bodies.items():
            assert run(["check", *argv, "-n", "200", "--seed", "7"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out == {"schema_version": 1, "command": "check", "seed": 7, "n": 200, **body}, argv

    def test_failed_gate_names_the_worst_state(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(core, "jacobiator",
                            lambda P, X, affine=0: np.where(np.arange(len(X)) == 17, 0.25, 1e-12))
        assert run(["check", "jacobi", "--model", "ball", "-n", "50", "--seed", "3"]) == 4
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["max"] == 0.25 and out["pass"] is False
        state = sphere.random_states(np.random.default_rng(3), 50)[17]
        assert captured.err == ("jacobi ball: worst value 2.500000e-01 > 1e-06 at state 17: ("
                                + ", ".join(f"{v:.17g}" for v in state) + ")\n")

    def test_failed_negative_control_names_the_least_violating_state(self, workdir, capsys,
                                                                      monkeypatch):
        # 40 of 50 states violate Jacobi, below the 90 % the control needs
        vals = np.where(np.arange(50) < 10, 1e-6, 1.0)
        vals[7] = 1e-9
        monkeypatch.setattr(core, "jacobiator", lambda P, X, affine=0: vals)
        assert run(["check", "jacobi", "--negative-control", "-n", "50", "--seed", "3"]) == 4
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["fraction_violating"] == 0.8 and out["pass"] is False
        state = sphere.random_states(np.random.default_rng(3), 50)[7]
        assert captured.err == ("jacobi negative control (fraction violating 0.800 < 0.9): worst value "
                                "1.000000e-09 <= 0.001 at state 7: ("
                                + ", ".join(f"{v:.17g}" for v in state) + ")\n")

    def test_planar_fails_when_the_gate_admits_the_inadmissible(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(planar_mod, "measure_residual", lambda sys, q: np.zeros(np.shape(q)))
        assert run(["check", "planar", "-n", "60"]) == 4
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["gate_rejects_inadmissible"] is False and out["pass"] is False
        rng = np.random.default_rng(0)
        sphere.random_states(rng, 60)
        probe = rng.standard_normal((60, 4))[0]
        assert captured.err == ("planar measure gate admits the density N = 1: worst value "
                                "0.000000e+00 <= 1e-08 at state 0: ("
                                + ", ".join(f"{v:.17g}" for v in probe) + ")\n")

    def test_passing_gate_writes_nothing_to_stderr(self, workdir, capsys):
        assert run(["check", "conformal", "-n", "50"]) == 0
        assert capsys.readouterr().err == ""


class TestReduce:
    def test_trivial_parameters(self, workdir, capsys):
        assert run(["reduce", "--g", "1", "--f", "0", "--L", "8", "-n", "20"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c"] == pytest.approx(1.0, abs=1e-10)
        assert out["bracket_dev"] <= 1e-6

    @pytest.mark.parametrize("g", ["1e15", "1e100", "1e150"])
    def test_tiny_alpha_reduces(self, workdir, capsys, g):
        # alpha = 1/g is invertible; an absolute |alpha| < 1e-14 threshold
        # refused it with exit 3 ("alpha vanishes"), and a bound of 1e102
        # on g refused 1e150.  At e(3) probes of unit momentum scale the
        # bracket's entries are of order 1 and bracket_dev their round-off
        # (1.3e-15 at 1e150)
        assert run(["reduce", "--g", g, "--f", "0", "--L", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["bracket_dev"] <= 1e-14

    @pytest.mark.parametrize("g, f", [("1", "1e102"), ("1", "-1e102"), ("1e102", "1e102"), ("1e-102", "-5e-103")])
    def test_constant_pair_at_the_scale_bound_stays_finite(self, workdir, capsys, g, f):
        # |F| at or near gauge.F_SCALE, with |f| or 1/g as large: the
        # congruence's products stay finite, so no numpy warning and a
        # strict-JSON report.  The last pair has 1/g = 1e102 with
        # |F| = 5e101, where (1e-102, -1e-102) cancelled
        assert run(["reduce", "--g", g, "--f", f, "--L", "8", "-n", "20"]) in (0, 4)
        rep = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(f"{c} in the report"))
        assert rep["residual"] < np.inf and rep["bracket_dev"] < np.inf

    @pytest.mark.parametrize("Ahat", ["1e-300,1e-300,1e-300", "1e-200,1e-200,1e-200", "1e-100,1e-100,1e-100",
                                      "0.6,0.75,1e30", "1e100,1e100,1e100", "1e8,1e8,1e8"])
    def test_veselova_outside_the_scale_rule_names_Ahat(self, workdir, capsys, Ahat):
        # the model path had no scale rule: the three small Ahat warned in
        # numpy (curl_target_F, the congruence J P J^T) and exited 3 naming
        # no flag; the large ones passed on the round-off of F's cancelling
        # terms, f_tilde_dev 8.0 (1e30), 3.0 (1e100) and 3e-8 (1e8)
        assert run(["reduce", "--model", "veselova", "--Ahat", Ahat, "--L", "8", "-n", "20"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("domain error: ") and captured.err.endswith("; its knobs are --Ahat\n")

    @pytest.mark.parametrize("argv", [
        ["--model", "ball", "--D", "1e-300"], ["--model", "veselova", "--Ahat", "3e7,3e7,3e7"],
        ["--g", "1e120", "--f", "1"],
    ])
    def test_huge_g_within_the_scale_rule_reduces(self, workdir, capsys, argv):
        # g = 1e150 for the ball at D = 1e-300 and 1e120 for the constant
        # pair: a bound on g, which no model path had, refused the pair.
        # The Veselova body's c = 6.1e-12 shrank probes drawn in the source
        # frame to |M~| of order c on e(3), where its bracket_dev read
        # 1.1e-16; at e(3) probes it reads the band limit's 1.4e-8
        assert run(["reduce", *argv, "--L", "8", "-n", "20"]) == 0
        captured = capsys.readouterr()
        bound = 2e-8 if "veselova" in argv else 1e-14
        assert captured.err == "" and json.loads(captured.out)["bracket_dev"] <= bound

    @pytest.mark.parametrize("L, code", [("8", 4), ("16", 4), ("32", 0)])
    def test_bracket_gate_sees_a_wrong_f_tilde(self, workdir, capsys, L, code):
        # c = 1.3e-5: probes drawn in the source frame shrank to a median
        # |M~| of 0.027 on e(3), and L = 8 and 16 passed with f_tilde_dev
        # 8.5e-3 and 6.4e-5 (bracket_dev 2.3e-7 and 1.3e-9).  Drawn on e(3),
        # the probes show that error (0.018 and 9.9e-5), and the hint's
        # band limit passes
        assert run(["reduce", "--model", "veselova", "--Ahat", "1e3,2e3,3e3", "--L", L]) == code
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert (rep["bracket_dev"] > 1e-6) is (code == 4) and rep["pass"] is (code == 0)
        assert captured.err.endswith(f"try --L {2 * int(L)}\n" if code else "")

    def test_half_cancelling_pair_reduces(self, workdir, capsys):
        # F = -1.1e-8 keeps about half the digits of its terms +-1/3: the
        # pair reduces exactly
        assert run(["reduce", "--g", "3", "--f", "-2.9999999", "--L", "8", "-n", "20"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["f_tilde_dev"] == 0.0

    @pytest.mark.parametrize("g", ["1e-10", "1e-100"])
    def test_constant_f_failure_names_g_and_f(self, workdir, capsys, g):
        # F = -1/g is constant, so the residual and bracket_dev are
        # round-off of |F| at any band limit; the hint said "try --L 16"
        assert run(["reduce", "--g", g, "--f", "0", "--L", "8"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("reduction failed: residual ") and err.count("\n") == 1
        assert err.endswith("; F = -(f/g^2 + 1/g) is constant and the gates are absolute, so no band limit "
                            "helps; choose --g/--f with a smaller |F|\n")
        assert "--L" not in err

    def test_ball_moderate_band_limit(self, workdir, capsys):
        assert run(["reduce", "--model", "ball", "--L", "16", "-n", "30"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["g_tilde_dev"] <= 1e-8
        assert out["f_tilde_dev"] <= 1e-5
        assert out["bracket_dev"] <= 1e-6

    def test_under_resolved_exits_4(self, workdir, capsys):
        assert run(["reduce", "--model", "ball", "--L", "4", "-n", "5"]) == 4
        assert "--L 8" in capsys.readouterr().err

    def test_near_boundary_passes_at_L64(self, workdir, capsys):
        # A3 = 0.9 peaks F = -u^(-3/2) near the poles: L = 32 under-resolves
        # it (residual 9.3e-5), L = 64 resolves it
        argv = ["reduce", "--model", "ball", "--A", "0.4,0.5,0.9", "--D", "1"]
        assert run([*argv, "--L", "64"]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["residual"] <= 1e-9 and out["bracket_dev"] <= 1e-8 and captured.err == ""
        assert run([*argv, "--L", "32"]) == 4
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["residual"] == pytest.approx(9.3e-5, rel=0.01) and "worst_gamma" not in out
        # the stderr line names the verification point of the worst residual
        # and the probe state of the worst bracket entry
        spec = ball_system(BallParams(A=(0.4, 0.5, 0.9), D=1.0)).s_spec
        params = GFParams(g=spec.g, f=spec.f)
        _, sol = gauge_mod.reduce_to_e3(params, L=32)
        assert sol.worst_gamma[2] < -0.99
        worst = gauge_mod.reduction_report(params, L=32)["worst_bracket_gamma"]
        assert out["bracket_dev"] > gauge_mod.BRACKET_TOL and "worst_bracket_gamma" not in out
        assert captured.err == (f"reduction failed: residual {out['residual']:.3e} at gamma ("
                                + ", ".join(f"{v:.17g}" for v in sol.worst_gamma)
                                + f"), bracket_dev {out['bracket_dev']:.3e} at gamma ("
                                + ", ".join(f"{v:.17g}" for v in worst) + "); try --L 64\n")

    def test_failing_bracket_names_its_worst_probe(self, workdir, capsys):
        # A3 = 0.99 at L = 16 fails both gates; the stderr line names the probe
        # gamma of the worst bracket entry after the residual's point
        argv = ["reduce", "--model", "ball", "--A", "0.4,0.5,0.99", "--D", "1", "--L", "16", "--seed", "3"]
        assert run(argv) == 4
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert "worst_gamma" not in out and "worst_bracket_gamma" not in out
        spec = ball_system(BallParams(A=(0.4, 0.5, 0.99), D=1.0)).s_spec
        rep = gauge_mod.reduction_report(GFParams(g=spec.g, f=spec.f), L=16, seed=3)
        assert out["bracket_dev"] == rep["bracket_dev"] > gauge_mod.BRACKET_TOL
        named = [", ".join(f"{v:.17g}" for v in rep[key]) for key in ("worst_gamma", "worst_bracket_gamma")]
        assert captured.err == (f"reduction failed: residual {out['residual']:.3e} at gamma ({named[0]}), "
                                f"bracket_dev {out['bracket_dev']:.3e} at gamma ({named[1]}); try --L 32\n")


    @pytest.mark.parametrize("L", [4, 16])
    def test_pass_is_the_library_verdict(self, workdir, capsys, L):
        # the CLI reports the pass of reduction_report and exits on it
        code = run(["reduce", "--model", "ball", "--L", str(L), "-n", "5"])
        out = json.loads(capsys.readouterr().out)
        spec = ball_system(BallParams(**DEMO_BALL)).s_spec
        rep = gauge_mod.reduction_report(GFParams(g=spec.g, f=spec.f), L=L, n_states=5, seed=0)
        assert out["pass"] is rep["pass"] and code == (0 if rep["pass"] else 4)
        assert rep["pass"] is (L == 16)
        # the library names both worst points, passing or not; the JSON
        # report leaves them to the stderr line of a failing run
        assert {"worst_gamma", "worst_bracket_gamma"} <= set(rep)
        assert "worst_gamma" not in out and "worst_bracket_gamma" not in out

    def test_gyrostat_reduces_the_k0_bracket(self, workdir, capsys):
        # the reduction refuses Phi and k, so reduce passes the gyrostat
        # model's (g, f) alone and reports the k = 0 bracket under the
        # gyrostat's label: the benchmark's reduce workload checks this run
        # against the k = 0 oracle; a reduction that carries the gyrostat
        # changes this on purpose
        reports = []
        for extra in (["--gyrostat", "0,0,0.1"], []):
            code = run(["reduce", "--model", "veselova", *extra, "--L", "16"])
            captured = capsys.readouterr()
            reports.append((code, captured.err, json.loads(captured.out)))
        (code, err, gyro), (code0, err0, plain) = reports
        assert (code, err) == (code0, err0) == (0, "")
        assert (gyro.pop("source"), plain.pop("source")) == ("veselova+gyrostat", "veselova")
        assert gyro == plain

    def test_incomplete_constants_exit_2(self, workdir):
        assert run(["reduce", "--g", "1"]) == 2

    @pytest.mark.parametrize("L", [0, -3])
    def test_band_limit_below_one_is_refused(self, workdir, capsys, L):
        # -3 used to exit 1 with a leggauss traceback, 0 to exit 4 with the
        # hint "try --L 0"
        assert run(["reduce", "--model", "ball", "--L", str(L), "-n", "5"]) == 2
        assert capsys.readouterr().err == f"configuration error: --L must be at least 1, got {L}\n"

    def test_non_positive_constant_g_exits_3(self, workdir, capsys):
        assert run(["reduce", "--g", "0", "--f", "0", "--L", "8", "-n", "5"]) == 3
        assert capsys.readouterr().err == f"domain error: g must be positive on the sphere, got g = 0{GF_KNOBS}\n"

    def test_deterministic_report(self, workdir, capsys):
        run(["reduce", "--g", "1", "--f", "0", "--L", "6", "-n", "10"])
        first = capsys.readouterr().out
        run(["reduce", "--g", "1", "--f", "0", "--L", "6", "-n", "10"])
        assert first == capsys.readouterr().out


class TestOutputFiles:
    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--model", "ball", "--demo", "--horizon", "1", "--csv", "missing/x.csv"], "--csv"),
        (["planar-demo", "--horizon", "1", "--csv", "."], "--csv"),
        (["simulate", "--model", "ball", "--demo", "--horizon", "1", "--report", "missing/r.json"],
         "--report"),
        (["check", "gauge", "-n", "5", "--report", "."], "--report"),
    ])
    def test_unwritable_path_exits_2_naming_its_flag(self, workdir, capsys, argv, flag):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {flag}: cannot write ") and err.count("\n") == 1

    def test_csv_to_dev_null_is_dropped(self, workdir, capsys):
        assert run(["simulate", "--model", "ball", "--demo", "--horizon", "1",
                    "--csv", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    def test_report_into_a_pipe(self, workdir, capsys):
        r, w = os.pipe()
        try:
            assert run(["planar-demo", "--horizon", "1", "--csv", os.devnull,
                        "--report", f"/dev/fd/{w}"]) == 0
            os.close(w)
            w = None
            with os.fdopen(r, "rb") as fh:
                r = None
                assert fh.read().decode() == capsys.readouterr().out
        finally:
            for fd in (r, w):
                if fd is not None:
                    os.close(fd)

    def test_non_finite_report_value_exits_3(self, workdir, capsys, monkeypatch):
        # a report with a NaN was written as `NaN`, which is not JSON
        monkeypatch.setattr(cli_mod.checks, "measure",
                            lambda states: ({"suite": "measure", "max_by_model": {"ball": np.nan}}, False))
        assert run(["check", "measure", "-n", "5", "--report", "r.json"]) == 3
        out, err = capsys.readouterr()
        assert "NaN" not in out and not (workdir / "r.json").exists()
        assert err == "domain error: the report's max_by_model.ball is not finite\n"

    def test_rewrite_equals_a_fresh_write(self, workdir, capsys, monkeypatch):
        argv = ["simulate", "--model", "ball", "--demo", "--horizon", "5",
                "--csv", "t.csv", "--report", "r.json"]
        for name in ("reused", "fresh"):
            (workdir / name).mkdir()
        monkeypatch.chdir(workdir / "reused")
        # a longer run first, so that each rewrite is shorter than the file it replaces
        assert run([*argv, "--horizon", "50"]) == 0
        for _ in range(2):
            assert run(argv) == 0
        monkeypatch.chdir(workdir / "fresh")
        assert run(argv) == 0
        for name in ("t.csv", "r.json"):
            assert (workdir / "reused" / name).read_bytes() == (workdir / "fresh" / name).read_bytes()


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
        assert capsys.readouterr().err == ""

    def test_loose_tolerance_names_the_drift_gate(self, workdir, capsys):
        assert run(["planar-demo", "--rtol", "1e-3", "--atol", "1e-5", "--report", "planar.json"]) == 4
        assert capsys.readouterr().err == ("drift gate: E drifted 1.367e-01 > 1e-08 at t = 95; "
                                           "try a smaller --rtol\n")
        assert json.loads((workdir / "planar.json").read_text())["pass"] is False

    def test_failing_conformal_gate_is_named(self, workdir, capsys, monkeypatch):
        import nonholo.planar as planar_mod
        original = planar_mod.to_conformal
        monkeypatch.setattr(planar_mod, "to_conformal",
                            lambda *a: (*original(*a)[:2], original(*a)[2] + 2e-8))
        assert run(["planar-demo", "--horizon", "1", "--samples", "11"]) == 4
        # the gate names its worst probe, (q1, q2, P1, P2) drawn at the default seed 0
        probes = np.random.default_rng(0).standard_normal((100, 4))
        residuals = original(demo_system(), probes)[2] + 2e-8
        i = int(np.argmax(residuals))
        state = ", ".join(f"{v:.17g}" for v in probes[i])
        assert capsys.readouterr().err == (f"conformal gate: worst value {residuals[i]:.6e} > 1e-08 "
                                           f"at state {i}: ({state})\n")

    def test_drift_gate_line_wins_over_the_conformal_gate(self, workdir, capsys, monkeypatch):
        original = planar_mod.to_conformal
        monkeypatch.setattr(planar_mod, "to_conformal",
                            lambda *a: (*original(*a)[:2], original(*a)[2] + 2e-8))
        assert run(["planar-demo", "--rtol", "1e-3", "--atol", "1e-5"]) == 4
        assert capsys.readouterr().err == ("drift gate: E drifted 1.367e-01 > 1e-08 at t = 95; "
                                           "try a smaller --rtol\n")

    @pytest.mark.parametrize("flags", [["--rtol", "0"], ["--atol", "-1"], ["--horizon", "0"],
                                       ["--samples", "1"], ["--rtol", "nan"], ["--atol", "nan"],
                                       ["--horizon", "nan"], ["--horizon", "inf"]])
    def test_bad_integrator_flag_exits_3(self, workdir, capsys, deadline, flags):
        # the flags are read as simulate reads them, with no silent default
        assert run(["planar-demo", *flags]) == 3
        assert capsys.readouterr().err.startswith("domain error: ")


RUN_FLAGS = {"--config", "--seed", "--report"}
MODEL_FLAGS = {"--model", "--A", "--D", "--Ahat", "--gyrostat"}
INTEGRATOR_FLAGS = {"--rtol", "--atol", "--horizon", "--samples"}
# the flags each subcommand and each check suite reads, and no other
FLAG_CENSUS = {
    "simulate": RUN_FLAGS | MODEL_FLAGS | INTEGRATOR_FLAGS
    | {"--U", "--U-vec", "--M", "--omega", "--gamma", "--demo", "--threshold", "--csv"},
    "check jacobi": RUN_FLAGS | MODEL_FLAGS | {"-n", "--negative-control"},
    "check duality": RUN_FLAGS | {"-n", "--D"},
    **{f"check {suite}": RUN_FLAGS | {"-n"} for suite in ("conformal", "measure", "gauge", "planar")},
    "reduce": RUN_FLAGS | MODEL_FLAGS | {"--g", "--f", "--L", "-n"},
    "planar-demo": INTEGRATOR_FLAGS | {"--seed", "--csv", "--report"},
}


def _leaf_parsers(parser, prefix=""):
    """(command, parser) for each subcommand and each check suite."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        if any(isinstance(a, argparse._SubParsersAction) for a in p._actions):
            yield from _leaf_parsers(p, f"{prefix}{name} ")
        else:
            yield prefix + name, p


def exit_code(argv):
    """main's exit code, also where argparse refuses the arguments."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFlags:
    """Each subcommand and each check suite parses only the flags it reads."""

    def test_census(self):
        found = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                 for name, p in _leaf_parsers(cli_mod.build_parser())}
        assert found == FLAG_CENSUS
        assert sum(map(len, found.values())) == 70
        # argparse only splits the command line: the commands convert each
        # value as they convert a config field, so that one rule reads both
        converting = {(name, a.option_strings[0]) for name, p in _leaf_parsers(cli_mod.build_parser())
                      for a in p._actions if a.option_strings and (a.type is not None or a.choices is not None)}
        assert converting == set()

    @pytest.mark.parametrize("argv, flag", [
        (["check", "conformal", "--model", "veselova"], "--model"),
        (["check", "measure", "--A", "9,9,9"], "--A"),
        (["check", "gauge", "--gyrostat", "0,0,1"], "--gyrostat"),
        (["check", "planar", "--U", "linear", "--U-vec", "1,0,0"], "--U"),
        (["check", "duality", "--Ahat", "0.5,0.5,0.5"], "--Ahat"),
        (["check", "jacobi", "--model", "ball", "--U", "linear", "--U-vec", "1,2,3"], "--U"),
        (["check", "jacobi", "--model", "veselova", "--D", "7"], "--D"),
        (["check", "jacobi", "--negative-control", "--model", "veselova"], "--model"),
        (["reduce", "--model", "ball", "--L", "16", "--U", "linear", "--U-vec", "1,2,3"], "--U"),
        (["reduce", "--g", "1", "--f", "0", "--model", "veselova"], "--model"),
        (["simulate", "--model", "veselova", "--demo", "--A", "9,9,9"], "--A"),
        (["simulate", "--model", "ball", "--demo", "--Ahat", "1,2,3"], "--Ahat"),
    ])
    def test_flag_that_does_not_act_exits_2(self, workdir, capsys, argv, flag):
        assert exit_code([*argv, "-n", "5"] if argv[0] == "check" else argv) == 2
        assert flag in capsys.readouterr().err
        assert not (workdir / "trajectory.csv").exists()

    def test_model_picked_by_the_config_refuses_the_other_models_flag(self, workdir, capsys):
        (workdir / "v.json").write_text(json.dumps({"model": "veselova", "A": [9, 9, 9]}))
        # the config may hold the ball's A: one file serves every subcommand
        assert run(["check", "jacobi", "--config", "v.json", "-n", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["model"] == "veselova"
        assert run(["check", "jacobi", "--config", "v.json", "--D", "2", "-n", "5"]) == 2
        assert capsys.readouterr().err == "configuration error: --D does not act on the veselova model\n"

    def test_config_fields_a_command_does_not_read_are_ignored(self, workdir, capsys):
        (workdir / "c.json").write_text(json.dumps({"model": "veselova", "D": 2.0, "seed": 3,
                                                    "potential": {"kind": "cubic"}}))
        assert run(["check", "conformal", "--config", "c.json", "-n", "5"]) == 0
        from_config = capsys.readouterr().out
        assert run(["check", "conformal", "--seed", "3", "-n", "5"]) == 0
        assert capsys.readouterr().out == from_config


def _cli_process(cwd, *argv):
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "nonholo.cli", *argv], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=60)


class TestProcessBoundary:
    """``python -m nonholo.cli`` as a user runs it: argparse's exits are the
    process's exit codes."""

    @pytest.mark.parametrize("command", sorted(FLAG_CENSUS) + ["check"])
    def test_help_exits_0(self, tmp_path, command):
        proc = _cli_process(tmp_path, *command.split(), "--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: nonholo ")

    def test_rejected_flag_exits_2_and_is_named(self, tmp_path):
        proc = _cli_process(tmp_path, "check", "conformal", "--model", "veselova")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "unrecognized arguments: --model veselova" in proc.stderr
