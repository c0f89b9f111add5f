"""The benchmark's workloads: the operations they time and the verdict on
each operation's output.

An operation is one call of ``nonholo.cli.main`` with the arguments a
user would type (or, for the time-rescaled run, one library call).  Its
verdict is re-derived from ``oracle``, never read from a stored copy of
an earlier output.  ``verify`` returns the list of faults it found (empty
when the output is right) and the accuracy outputs of the operation.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle

CHECK_N = 1000        # states per check suite, as in the project's baseline
SAMPLE = 64           # seeded states at which the oracle re-derives a suite
REDUCE_PROBES = 16    # states the benchmark draws to test a reduction
HORIZON, SAMPLES = 100.0, 1001
DRIFT_GATE = 1e-8     # the project's drift threshold, fixed here, not read from the report
# Largest distance of each run over [0, 100] from the oracle's DOP853 run at
# rtol 1e-12, and largest drift of the sphere runs.  Each is about 4x what
# the program's default solver (RK45, rtol 1e-10) gives; the error grows
# about linearly with rtol, so a solver looser by 4x or more fails here.
TRAJ_TOL = {"ball": 4e-9, "veselova+gyrostat": 2e-8, "rescaled-ball": 1.2e-7, "planar": 1e-6}
SPHERE_DRIFT_GATE = {"ball": 8e-10, "veselova+gyrostat": 2e-9}


@dataclass
class Output:
    rc: int
    text: str = ""
    data: Any = None                      # CSV bytes, the mapped states, or the reduction
    digest: bytes = b""                   # what must repeat exactly from round to round


@dataclass
class Op:
    name: str
    run: Callable[[], Output]
    verify: Callable[[Output], tuple[list[str], dict[str, float]]]


def _digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.digest()


def cli_op(name, argv, verify, csv_path=None, capture=None):
    """An operation that runs ``nonholo.cli.main(argv)`` with stdout captured."""
    import nonholo.cli

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf), (capture() if capture else nullcontext()) as captured:
            rc = nonholo.cli.main(argv)       # looked up at call time, so a tracer sees it
        text = buf.getvalue()
        data = captured
        csv = b""
        if csv_path is not None and rc == 0:
            with open(csv_path, "rb") as fh:
                csv = fh.read()
            data = csv
        return Output(rc, text, data, _digest(text.encode(), csv))

    return Op(name, run, verify)


def _report(out: Output, errs: list[str]) -> dict:
    if out.rc != 0:
        errs.append(f"exit code {out.rc}")
    try:
        rep = json.loads(out.text)
    except json.JSONDecodeError:
        errs.append("stdout is not one JSON report")
        return {}
    if rep.get("pass") is not True:
        errs.append("report does not pass")
    return rep


def _bound(errs, label, value, limit):
    if not (value <= limit):              # also catches NaN
        errs.append(f"{label} = {value!r} exceeds {limit:g}")


def _close(errs, label, a, b, tol):
    if not (abs(a - b) <= tol):
        errs.append(f"{label}: {a!r} != {b!r} (tol {tol:g})")


def _consistent(errs, label, reported, oracle_vals, gate):
    """A suite maximum re-derived on a sample of its states: the oracle's
    values meet the gate and the reported maximum is not far below them."""
    worst = float(np.max(oracle_vals))
    _bound(errs, f"{label} (oracle)", worst, gate)
    _bound(errs, f"{label} (reported)", reported, gate)
    if reported < worst / 10.0 - 1e-14:
        errs.append(f"{label}: reported max {reported!r} is below the oracle's {worst!r}")


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def _read_csv(data: bytes, header: list[str], errs):
    text = data.decode()
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        errs.append(f"CSV header {first!r}, expected {','.join(header)!r}")
        return None
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape != (SAMPLES, len(header)):
        errs.append(f"CSV has shape {rows.shape}")
        return None
    t_dev = float(np.max(np.abs(rows[:, 0] - np.linspace(0.0, HORIZON, SAMPLES))))
    _bound(errs, "CSV sample times off the uniform grid", t_dev, 1e-9)
    return rows


def _x0():
    return np.r_[oracle.DEMO_M, oracle.DEMO_GAMMA]


def verify_simulate(model, seed, reference):
    def verify(out):
        errs: list[str] = []
        rep = _report(out, errs)
        if errs:
            return errs, {}
        extras = list(oracle.integrals(model, _x0()[None]))[3:]
        rows = _read_csv(out.data, ["t", "M1", "M2", "M3", "g1", "g2", "g3", "H", "F1", "F2", *extras], errs)
        if rows is None:
            return errs, {}
        X = rows[:, 1:7]
        _bound(errs, "initial state", float(np.max(np.abs(X[0] - _x0()))), 1e-15)
        if rep.get("model") != model.name or rep.get("seed") != seed:
            errs.append("report names another model or seed")
        ints = oracle.integrals(model, X)
        drifts = rep.get("drifts", {})
        if set(drifts) != set(ints):
            errs.append(f"drifts {sorted(drifts)} != integrals {sorted(ints)}")
            return errs, {}
        for j, name in enumerate(["H", "F1", "F2", *extras]):
            col = rows[:, 7 + j]
            dev = float(np.max(np.abs(col - ints[name]) / np.maximum(1.0, np.abs(col))))
            _bound(errs, f"CSV column {name} against the oracle", dev, 1e-12)
            _close(errs, f"drift of {name}", drifts[name], oracle.relative_drift(ints[name]), 1e-13)
            _bound(errs, f"drift of {name}", drifts[name], SPHERE_DRIFT_GATE[model.name])
        _bound(errs, "distance to the oracle's trajectory", float(np.max(np.abs(X - reference()))),
               TRAJ_TOL[model.name])
        return errs, {f"drift.{model.name}.{k}": float(v) for k, v in drifts.items()}
    return verify


def verify_planar_demo(seed, reference):
    def verify(out):
        errs: list[str] = []
        rep = _report(out, errs)
        if errs:
            return errs, {}
        rows = _read_csv(out.data, ["t", "q1", "q2", "P1", "P2", "E"], errs)
        if rows is None:
            return errs, {}
        Z = rows[:, 1:5]
        _bound(errs, "initial state", float(np.max(np.abs(Z[0] - oracle.PLANAR_Z0))), 0.0)
        E = oracle.planar_energy(Z)
        _bound(errs, "CSV column E against the oracle",
               float(np.max(np.abs(rows[:, 5] - E) / np.maximum(1.0, np.abs(E)))), 1e-12)
        drift = rep.get("energy_drift", np.nan)
        _close(errs, "energy drift", drift, oracle.relative_drift(E), 1e-13)
        _bound(errs, "energy drift", drift, DRIFT_GATE)
        probes = np.random.default_rng(seed).standard_normal((100, 4))
        _consistent(errs, "planar conformal residual", rep.get("conformal_residual_max", np.nan),
                    oracle.planar_conformal_residual(probes), 1e-8)
        _bound(errs, "distance to the oracle's trajectory", float(np.max(np.abs(Z - reference()))),
               TRAJ_TOL["planar"])
        return errs, {"drift.planar.E": float(drift)}
    return verify


def rescaled_op(ball_csv, reference):
    """The paper's time change dt = rho dtau for the demo ball, rho = 1/g:
    integrate in tau, then map back onto the physical sample times."""
    import nonholo

    t_query = np.linspace(0.0, HORIZON, SAMPLES)

    def run():
        sysm = nonholo.ball_system(nonholo.BallParams(A=oracle.BALL_A, D=oracle.BALL_D))
        cfg = nonholo.IntegratorConfig(horizon=HORIZON, samples=SAMPLES)
        traj, t_phys = nonholo.integrate_reparametrized(sysm, _x0(), cfg)
        mapped = np.asarray(nonholo.map_to_physical_time(traj, t_phys, t_query), float)
        return Output(0, "", mapped, _digest(mapped.tobytes()))

    def verify(out):
        errs: list[str] = []
        X = out.data
        if X.shape != (SAMPLES, 6):
            return [f"mapped states have shape {X.shape}"], {}
        _bound(errs, "rescaled run against the oracle's direct run",
               float(np.max(np.abs(X - reference()))), TRAJ_TOL["rescaled-ball"])
        with open(ball_csv, "rb") as fh:
            direct = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)[:, 1:7]
        _bound(errs, "rescaled run against the program's direct run",
               float(np.max(np.abs(X - direct))), TRAJ_TOL["rescaled-ball"])
        return errs, {}

    return Op("rescaled-ball", run, verify)


def trajectory_ops(seed, out_dir):
    ball, ves = oracle.Ball(), oracle.Veselova(k=oracle.GYROSTAT)
    # the oracle's reference trajectories, computed on first use
    ball_ref = functools.cache(lambda: oracle.integrate_direct(ball, _x0(), HORIZON, SAMPLES))
    ves_ref = functools.cache(lambda: oracle.integrate_direct(ves, _x0(), HORIZON, SAMPLES))
    planar_ref = functools.cache(lambda: oracle.integrate_planar(oracle.PLANAR_Z0, HORIZON, SAMPLES))
    s = str(seed)
    paths = {k: str(out_dir / f"{k}.csv") for k in ("ball", "veselova", "planar")}
    return [
        cli_op("simulate-ball", ["simulate", "--model", "ball", "--demo", "--seed", s,
                                 "--csv", paths["ball"]], verify_simulate(ball, seed, ball_ref), paths["ball"]),
        cli_op("simulate-veselova-gyrostat",
               ["simulate", "--model", "veselova", "--gyrostat", "0,0,0.1", "--demo", "--seed", s,
                "--csv", paths["veselova"]], verify_simulate(ves, seed, ves_ref), paths["veselova"]),
        cli_op("planar-demo", ["planar-demo", "--seed", s, "--csv", paths["planar"]],
               verify_planar_demo(seed, planar_ref), paths["planar"]),
        rescaled_op(paths["ball"], ball_ref),
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def seeded_states(seed, n=CHECK_N):
    """The states a check suite draws from its seed: per state a direction
    (normalised) and then a momentum, followed by n planar probes."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, 6))
    gam = raw[:, :3] / np.linalg.norm(raw[:, :3], axis=1, keepdims=True)
    X = np.concatenate([raw[:, 3:], gam], 1)
    return X, rng.standard_normal((n, 4))


def verify_check(suite, seed, model=None):
    X, Z = seeded_states(seed)
    X, Z = X[:SAMPLE], Z[:SAMPLE]

    def verify(out):
        errs: list[str] = []
        rep = _report(out, errs)
        if errs:
            return errs, {}
        if rep.get("n") != CHECK_N or rep.get("seed") != seed:
            errs.append("report names another n or seed")
        acc: dict[str, float] = {}
        if suite == "jacobi":
            vals = oracle.jacobiator(lambda Y: oracle.bracket(model, Y), X)
            _consistent(errs, f"jacobiator of {model.name}", rep.get("max", np.nan), vals, 1e-6)
            acc[f"jacobi.{model.name}"] = rep.get("max", np.nan)
        elif suite == "negative-control":
            vals = oracle.jacobiator(oracle.negative_control_bracket, X)
            lo, hi = rep.get("min", np.nan), rep.get("max", np.nan)
            if not (np.min(vals) >= lo * (1 - 1e-6) and np.max(vals) <= hi * (1 + 1e-6)):
                errs.append(f"oracle jacobiators [{np.min(vals):.6g}, {np.max(vals):.6g}] "
                            f"fall outside the reported [{lo:.6g}, {hi:.6g}]")
            if not (np.mean(vals > 1e-3) >= 0.9 and rep.get("fraction_violating", 0.0) >= 0.9):
                errs.append("the negative control no longer violates the Jacobi identity")
        elif suite == "conformal":
            by_model = rep.get("max_by_model", {})
            for m in (oracle.Ball(), oracle.Ball(k=oracle.GYROSTAT),
                      oracle.Veselova(), oracle.Veselova(k=oracle.GYROSTAT)):
                _consistent(errs, f"conformal residual of {m.name}", by_model.get(m.name, np.nan),
                            oracle.conformal_residual(m, X), 1e-10)
            acc["conformal"] = rep.get("max", np.nan)
        elif suite == "measure":
            by_model = rep.get("max_by_model", {})
            for m in (oracle.Ball(), oracle.Veselova()):
                _consistent(errs, f"measure residual of {m.name}", by_model.get(m.name, np.nan),
                            oracle.measure_residual(m, X), 1e-10)
            acc["measure"] = rep.get("max", np.nan)
        elif suite == "gauge":
            comp, action = oracle.gauge_suite_defects(X)
            _consistent(errs, "gauge composition", rep.get("composition_state_max", np.nan), comp, 1e-12)
            # the suite differentiates by finite differences, the oracle exactly
            _bound(errs, "gauge action (oracle)", float(np.max(action)), 1e-12)
            _bound(errs, "gauge action (reported)", rep.get("action_property_max", np.nan), 1e-8)
            acc["gauge.composition"] = rep.get("composition_state_max", np.nan)
            acc["gauge.action"] = rep.get("action_property_max", np.nan)
        elif suite == "duality":
            h, g = oracle.duality_defect(X)
            _consistent(errs, "duality identity", rep.get("hamiltonian_identity_max", np.nan), h, 1e-12)
            _consistent(errs, "duality g relation", rep.get("g_relation_max", np.nan), g, 1e-12)
            acc["duality.hamiltonian"] = rep.get("hamiltonian_identity_max", np.nan)
            acc["duality.g"] = rep.get("g_relation_max", np.nan)
        elif suite == "planar":
            _consistent(errs, "planar conformal residual", rep.get("conformal_residual_max", np.nan),
                        oracle.planar_conformal_residual(Z), 1e-8)
            _consistent(errs, "planar bracket jacobiator", rep.get("bracket_jacobiator_max", np.nan),
                        oracle.jacobiator(oracle.planar_bracket, Z), 1e-9)
            if rep.get("gate_rejects_inadmissible") is not True:
                errs.append("the planar measure gate accepts an inadmissible system")
            acc["planar.residual"] = rep.get("conformal_residual_max", np.nan)
            acc["planar.jacobiator"] = rep.get("bracket_jacobiator_max", np.nan)
        return errs, {f"check.{k}": float(v) for k, v in acc.items()}

    return verify


def checks_ops(seed):
    s = ["--seed", str(seed), "-n", str(CHECK_N)]
    ball, vg = oracle.Ball(), oracle.Veselova(k=oracle.GYROSTAT)
    spec = [
        ("jacobi-ball", ["check", "jacobi", "--model", "ball"], "jacobi", ball),
        ("jacobi-veselova-gyrostat", ["check", "jacobi", "--model", "veselova", "--gyrostat", "0,0,0.1"],
         "jacobi", vg),
        ("conformal", ["check", "conformal"], "conformal", None),
        ("measure", ["check", "measure"], "measure", None),
        ("gauge", ["check", "gauge"], "gauge", None),
        ("duality", ["check", "duality"], "duality", None),
        ("planar", ["check", "planar"], "planar", None),
        ("jacobi-negative-control", ["check", "jacobi", "--negative-control"], "negative-control", None),
    ]
    return [cli_op(name, argv + s, verify_check(suite, seed, model)) for name, argv, suite, model in spec]


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

@contextmanager
def capture_reduction():
    """Keep the (transform, solution) pair the reduction builds, so that the
    benchmark can test the transform at states of its own."""
    import nonholo.gauge as gauge

    box: dict = {}
    original = gauge.reduce_to_e3

    def keep(*args, **kwargs):
        box["result"] = original(*args, **kwargs)
        return box["result"]

    gauge.reduce_to_e3 = keep
    try:
        yield box
    finally:
        gauge.reduce_to_e3 = original


def verify_reduce(model, L, seed):
    c_ref = functools.cache(lambda: oracle.reduction_constant(model))
    rng = np.random.default_rng([seed, 1])
    gam = rng.standard_normal((REDUCE_PROBES, 3))
    X = np.concatenate([rng.standard_normal((REDUCE_PROBES, 3)),
                        gam / np.linalg.norm(gam, axis=1, keepdims=True)], 1)

    def verify(out):
        errs: list[str] = []
        rep = _report(out, errs)
        if errs:
            return errs, {}
        if rep.get("L") != L or rep.get("seed") != seed or rep.get("source") != model.name:
            errs.append("report names another band limit, seed or model")
        c = rep.get("c", np.nan)
        _close(errs, "c against the oracle's quadrature", c, c_ref(), 1e-9 * max(1.0, abs(c_ref())))
        for key in ("residual", "f_tilde_dev", "bracket_dev"):
            _bound(errs, key, rep.get(key, np.nan), 1e-6)
        _bound(errs, "g_tilde_dev", rep.get("g_tilde_dev", np.nan), 1e-12)
        if "result" not in (out.data or {}):
            errs.append("transform not captured: the command did not call nonholo.gauge.reduce_to_e3")
            return errs, {}
        transform = out.data["result"][0]
        _close(errs, "transform constant", float(transform.c), c, 0.0)
        resid, dev = oracle.reduction_defects(model, float(transform.c), transform.h, X)
        _bound(errs, "curl residual at the benchmark's states", float(np.max(resid)), 1e-6)
        _bound(errs, "pushed bracket against e(3) at the benchmark's states", float(np.max(dev)), 1e-6)
        return errs, {f"reduce.L{L}.{k}": float(rep.get(k, np.nan))
                      for k in ("residual", "f_tilde_dev", "bracket_dev")}

    return verify


def reduce_ops(seed):
    s = ["--seed", str(seed)]
    return [
        cli_op("reduce-veselova-gyrostat-L16",
               ["reduce", "--model", "veselova", "--gyrostat", "0,0,0.1", "--L", "16"] + s,
               verify_reduce(oracle.Veselova(k=oracle.GYROSTAT), 16, seed), capture=capture_reduction),
        cli_op("reduce-ball-L32", ["reduce", "--model", "ball", "--L", "32"] + s,
               verify_reduce(oracle.Ball(), 32, seed), capture=capture_reduction),
    ]


def build(workload, seed, out_dir):
    if workload == "trajectory":
        return trajectory_ops(seed, out_dir)
    if workload == "checks":
        return checks_ops(seed)
    if workload == "reduce":
        return reduce_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
