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

    def test_coarse_run_fails_threshold(self, workdir, capsys):
        code = run(["simulate", "--model", "ball", "--demo", "--rtol", "1e-4",
                    "--atol", "1e-6", "--horizon", "50", "--samples", "51"])
        assert code == 4
        assert capsys.readouterr().err == ("drift gate: F1 drifted 4.093e-05 > 1e-08 at t = 50; "
                                           "try a smaller --rtol\n")

    @pytest.mark.parametrize("gamma, shown", [("0,0,0", "[0.0, 0.0, 0.0]"), ("nan,0,0", "[nan, 0.0, 0.0]")])
    def test_degenerate_gamma_is_named(self, workdir, capsys, gamma, shown):
        # refused before the renormalisation, which would warn and divide by zero
        assert run(["simulate", "--model", "veselova", "--M", "1,0,0", "--gamma", gamma]) == 3
        assert capsys.readouterr().err == ("domain error: --gamma (initial.gamma) must be a finite "
                                           f"nonzero direction, got {shown}\n")

    @pytest.mark.parametrize("flag, value, shown", [("--rtol", "0", "0.0"), ("--atol", "-1", "-1.0"),
                                                    ("--horizon", "0", "0.0")])
    def test_non_positive_integrator_value_is_named(self, workdir, capsys, flag, value, shown):
        assert run(["simulate", "--model", "ball", "--demo", flag, value]) == 3
        assert capsys.readouterr().err == f"domain error: {flag[2:]} must be positive, got {shown}\n"

    def test_direction_alone_names_the_momentum_knobs(self, workdir, capsys):
        assert run(["simulate", "--model", "ball", "--gamma", "0,0,1"]) == 2
        assert capsys.readouterr().err == ("configuration error: initial condition needs --M or "
                                           "--omega (or initial.M or initial.omega)\n")


BALL_CFG = {"model": "ball", "initial": {"M": [0.3, -0.2, 0.5], "gamma": [0.0, 0.0, 1.0]},
            "integrator": {"horizon": 1.0, "samples": 11}}


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
        worst = max(jacobiator(lambda x: assemble_P(sysm, x), x) for x in states)
        bodies[("jacobi", *argv)] = {"suite": "jacobi", "model": sysm.name, "max": worst,
                                     "threshold": 1e-6, "pass": True}
    P = bivector_field(g=ScalarField.constant(1.0), K=ball_K(ball))
    vals = [jacobiator(P, x) for x in states]
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
    inadmissible = PlanarSystem(H=planar.H, dH_dq=planar.dH_dq, dH_dP=planar.dH_dP, A1=planar.A1,
                                A2=planar.A2, B=planar.B, N=ScalarField.constant(1.0))
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

    def test_reports_equal_one_state_calls(self, workdir, capsys):
        bodies = _one_state_bodies(*_one_state_draws(7, 200))
        for argv, body in bodies.items():
            assert run(["check", *argv, "-n", "200", "--seed", "7"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out == {"schema_version": 1, "command": "check", "seed": 7, "n": 200, **body}, argv

    def test_failed_gate_names_the_worst_state(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(core, "jacobiator",
                            lambda P, X: np.where(np.arange(len(X)) == 17, 0.25, 1e-12))
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
        monkeypatch.setattr(core, "jacobiator", lambda P, X: vals)
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

    def test_ball_moderate_band_limit(self, workdir, capsys):
        assert run(["reduce", "--model", "ball", "--L", "16", "-n", "30"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["g_tilde_dev"] <= 1e-8
        assert out["f_tilde_dev"] <= 1e-5
        assert out["bracket_dev"] <= 1e-6

    def test_under_resolved_exits_4(self, workdir, capsys):
        assert run(["reduce", "--model", "ball", "--L", "4", "-n", "5"]) == 4
        assert "--L 8" in capsys.readouterr().err

    @pytest.mark.parametrize("L", [4, 16])
    def test_pass_is_the_library_verdict(self, workdir, capsys, L):
        # the CLI reports the pass of reduction_report and exits on it
        code = run(["reduce", "--model", "ball", "--L", str(L), "-n", "5"])
        out = json.loads(capsys.readouterr().out)
        spec = ball_system(BallParams(**DEMO_BALL)).s_spec
        rep = gauge_mod.reduction_report(GFParams(g=spec.g, f=spec.f), L=L, n_states=5, seed=0)
        assert out["pass"] is rep["pass"] and code == (0 if rep["pass"] else 4)
        assert rep["pass"] is (L == 16)

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
        assert capsys.readouterr().err == "domain error: g must be positive, got 0.0\n"

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
        assert capsys.readouterr().err == ("drift gate: E drifted 1.097e+00 > 1e-08 at t = 89.2; "
                                           "try a smaller --rtol\n")
        assert json.loads((workdir / "planar.json").read_text())["pass"] is False

    def test_failing_conformal_gate_is_named(self, workdir, capsys, monkeypatch):
        import nonholo.planar as planar_mod
        original = planar_mod.to_conformal
        monkeypatch.setattr(planar_mod, "to_conformal",
                            lambda *a: (*original(*a)[:2], original(*a)[2] + 2e-8))
        assert run(["planar-demo", "--horizon", "1", "--samples", "11"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("conformal gate: residual 2.000e-08 > 1e-08") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--rtol", "0"], ["--atol", "-1"], ["--horizon", "0"],
                                       ["--samples", "1"]])
    def test_bad_integrator_flag_exits_3(self, workdir, capsys, flags):
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
