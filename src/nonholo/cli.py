"""Config-driven command line frontend.

Subcommands:

    simulate      integrate a model, write a trajectory CSV and a JSON
                  drift report; exit 0 iff all tracked drifts pass
    check SUITE   run a verification suite (jacobi, measure, conformal,
                  duality, gauge, planar) at seeded random states
    reduce        run the bracket reduction pipeline and report deviations
    planar-demo   integrate the admissible planar demo system

Exit codes: 0 pass, 2 configuration error, 3 domain violation, 4 numerical
tolerance failure.  All randomness flows from the --seed value, so repeated
runs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import gauge as gauge_mod
from . import planar as planar_mod
from .core import (ConfigError, DomainError, ScalarField, ToleranceFailure, jacobiator, lift, pack,
                   unpack, vector)
from .integrate import IntegratorConfig, drift_report, integrate, integrate_sphere, trajectory_csv
from .models import (
    BallParams,
    DEMO_BALL,
    DEMO_GYROSTAT,
    DEMO_VESELOVA,
    VeselovaParams,
    ball_K,
    ball_omega_from_M,
    ball_system,
    duality_map,
    linear_potential,
    quadratic_potential,
    veselova_K,
    veselova_M_from_omega,
    veselova_system,
)
from .sphere import DirectS, assemble_P, bivector_field, conformal_residual, measure_residual

SCHEMA_VERSION = 1

DEMO_M = (0.3, -0.2, 0.5)
# unit vector along (1, -2, 4)
DEMO_GAMMA = tuple(np.array([1.0, -2.0, 4.0]) / np.sqrt(21.0))


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _vec3(text: str) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated values, got {text!r}")
    return np.array(parts)


def _random_states(rng, n):
    """n states of shape (n, 6), each drawn as a direction (normalised) and
    then a momentum."""
    raw = rng.standard_normal((n, 6))
    g = raw[:, :3]
    # bitwise the one-vector norm; norm(axis=-1) is not
    return pack(raw[:, 3:], g / lift(np.sqrt(np.vecdot(g, g))))


def _require_n(n: int) -> None:
    if n < 1:
        raise ConfigError(f"-n must be at least 1, got {n}")


def _gate(label: str, vals, threshold: float, points) -> tuple[float, bool]:
    """The largest of the per-state values and whether it passes the
    threshold; a failure names the worst value and its state on stderr."""
    i = int(np.argmax(vals))
    worst = float(vals[i])
    ok = worst <= threshold
    if not ok:
        _report_worst(label, worst, f"> {threshold:g}", i, points[i])
    return worst, ok


def _report_worst(label, value, relation, i, point) -> None:
    state = ", ".join(f"{v:.17g}" for v in point)
    sys.stderr.write(f"{label}: worst value {value:.6e} {relation} at state {i}: ({state})\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    return cfg


def _potential(spec):
    if spec is None or spec.get("kind", "zero") == "zero":
        return None
    kind = spec["kind"]
    if kind == "linear":
        return linear_potential(spec["r"])
    if kind == "quadratic":
        return quadratic_potential(spec["C"])
    raise ConfigError(f"unknown potential kind {kind!r}; use zero, linear or quadratic")


def _potential_from_args(args, cfg):
    if getattr(args, "U", None) is not None:
        kind = args.U
        if kind == "zero":
            return None
        if kind == "linear":
            if args.U_vec is None:
                raise ConfigError("--U linear needs --U-vec r1,r2,r3")
            return linear_potential(_vec3(args.U_vec))
        if kind == "quadratic":
            if args.U_vec is None:
                raise ConfigError("--U quadratic needs --U-vec c1,c2,c3")
            return quadratic_potential(_vec3(args.U_vec))
        raise ConfigError(f"unknown potential {kind!r}")
    return _potential(cfg.get("potential"))


def _model_params(args, cfg):
    model = getattr(args, "model", None) or cfg.get("model")
    if model not in ("ball", "veselova"):
        raise ConfigError("pick a model: --model ball | veselova")
    U = _potential_from_args(args, cfg)
    k = np.zeros(3)
    if getattr(args, "gyrostat", None) is not None:
        k = _vec3(args.gyrostat)
    elif cfg.get("gyrostat") is not None:
        k = np.asarray(cfg["gyrostat"], float)
    if model == "ball":
        A = _vec3(args.A) if getattr(args, "A", None) else np.asarray(cfg.get("A", DEMO_BALL["A"]), float)
        D = args.D if getattr(args, "D", None) is not None else float(cfg.get("D", DEMO_BALL["D"]))
        return model, BallParams(A=A, D=D, U=U, k=k)
    Ah = _vec3(args.Ahat) if getattr(args, "Ahat", None) else np.asarray(cfg.get("Ahat", DEMO_VESELOVA["Ahat"]), float)
    return model, VeselovaParams(Ahat=Ah, U=U, k=k)


def _build_system(model, params):
    return ball_system(params) if model == "ball" else veselova_system(params)


def _initial_state(args, cfg, model, params):
    ic = dict(cfg.get("initial", {}))
    if getattr(args, "M", None):
        ic = {"M": list(_vec3(args.M)), "gamma": ic.get("gamma")}
    if getattr(args, "omega", None):
        ic = {"omega": list(_vec3(args.omega)), "gamma": ic.get("gamma")}
    if getattr(args, "gamma", None):
        ic["gamma"] = list(_vec3(args.gamma))
    if getattr(args, "demo", False):
        ic.setdefault("gamma", list(DEMO_GAMMA))
        if "M" not in ic and "omega" not in ic:
            ic["M"] = list(DEMO_M)
    if "gamma" not in ic or ic["gamma"] is None:
        raise ConfigError("no initial condition; pass --gamma (plus --M or --omega) or --demo")
    gamma = np.asarray(ic["gamma"], float)
    norm = np.linalg.norm(gamma)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"renormalizing gamma: |gamma| = {norm:.8f}")
    gamma = gamma / norm
    if "M" in ic and ic["M"] is not None:
        M = np.asarray(ic["M"], float)
    elif "omega" in ic and ic["omega"] is not None:
        omega = np.asarray(ic["omega"], float)
        if model == "ball":
            from .models import ball_M_from_omega
            M = ball_M_from_omega(params, omega, gamma)
        else:
            M = veselova_M_from_omega(params, omega, gamma)
    else:
        raise ConfigError("initial condition needs M or omega")
    return pack(M, gamma)


def _integrator_config(args, cfg) -> IntegratorConfig:
    icfg = dict(cfg.get("integrator", {}))
    def pick(name, default):
        v = getattr(args, name, None)
        return v if v is not None else icfg.get(name, default)
    return IntegratorConfig(
        rtol=float(pick("rtol", 1e-10)),
        atol=float(pick("atol", 1e-12)),
        horizon=float(pick("horizon", 100.0)),
        samples=int(pick("samples", 1001)),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    model, params = _model_params(args, cfg)
    sysm = _build_system(model, params)
    x0 = _initial_state(args, cfg, model, params)
    icfg = _integrator_config(args, cfg)
    threshold = args.threshold if args.threshold is not None else float(cfg.get("drift_threshold", 1e-8))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))

    traj = integrate_sphere(sysm, x0, icfg)
    trajectory_csv(traj, args.csv)
    drifts = drift_report(traj)
    ok = all(v <= threshold for v in drifts.values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "model": sysm.name,
        "seed": seed,
        "initial_state": [float(v) for v in x0],
        "horizon": icfg.horizon,
        "rtol": icfg.rtol,
        "atol": icfg.atol,
        "drift_threshold": threshold,
        "drifts": {k: float(v) for k, v in drifts.items()},
        "nfev": traj.nfev,
        "csv": str(args.csv),
        "pass": ok,
    }
    _emit(report, args.report)
    return 0 if ok else 4


def _check_jacobi(args, rng, states) -> tuple[dict, bool]:
    cfg = _load_config(args)
    if args.negative_control:
        K = ball_K(BallParams(**DEMO_BALL))
        P = bivector_field(g=ScalarField.constant(1.0), K=K)
        vals = jacobiator(P, states)
        frac = float(np.mean(vals > 1e-3))
        ok = frac >= 0.9
        if not ok:
            i = int(np.argmin(vals))
            _report_worst(f"jacobi negative control (fraction violating {frac:.3f} < 0.9)",
                          vals[i], "<= 0.001", i, states[i])
        return {"suite": "jacobi-negative-control", "max": float(np.max(vals)),
                "min": float(np.min(vals)), "fraction_violating": frac,
                "threshold": 1e-3, "pass": ok}, ok
    model, params = _model_params(args, cfg)
    sysm = _build_system(model, params)
    vals = jacobiator(lambda x: assemble_P(sysm, x), states)
    worst, ok = _gate(f"jacobi {sysm.name}", vals, 1e-6, states)
    return {"suite": "jacobi", "model": sysm.name, "max": worst,
            "threshold": 1e-6, "pass": ok}, ok


def _gate_by_model(suite, vals_by_model, threshold, states) -> tuple[dict, bool]:
    """A suite's report body from per-state values of several models."""
    report = {name: float(np.max(vals)) for name, vals in vals_by_model.items()}
    name = max(report, key=report.get)
    worst, ok = _gate(f"{suite} {name}", vals_by_model[name], threshold, states)
    return {"suite": suite, "max_by_model": report, "max": worst,
            "threshold": threshold, "pass": ok}, ok


def _check_measure(args, rng, states) -> tuple[dict, bool]:
    vals = {}
    for model, params, K in (
        ("ball", BallParams(**DEMO_BALL), ball_K(BallParams(**DEMO_BALL))),
        ("veselova", VeselovaParams(**DEMO_VESELOVA), veselova_K(VeselovaParams(**DEMO_VESELOVA))),
    ):
        rho = _build_system(model, params).s_spec.g.reciprocal()
        vals[model] = np.max(np.abs(measure_residual(DirectS(K=K), states, rho=rho)), axis=-1)
    return _gate_by_model("measure", vals, 1e-10, states)


def _check_conformal(args, rng, states) -> tuple[dict, bool]:
    systems = [
        ball_system(BallParams(**DEMO_BALL)),
        ball_system(BallParams(**DEMO_BALL, k=np.asarray(DEMO_GYROSTAT))),
        veselova_system(VeselovaParams(**DEMO_VESELOVA)),
        veselova_system(VeselovaParams(**DEMO_VESELOVA, k=np.asarray(DEMO_GYROSTAT))),
    ]
    return _gate_by_model("conformal", {s.name: conformal_residual(s, states) for s in systems},
                          1e-10, states)


def _check_duality(args, rng, states) -> tuple[dict, bool]:
    D = args.D if getattr(args, "D", None) is not None else 1.0
    vparams = VeselovaParams(**DEMO_VESELOVA)
    bparams = duality_map(vparams, D=D)
    H1 = ball_system(bparams).hamiltonian
    H2 = veselova_system(vparams).hamiltonian
    g1 = ball_system(bparams).s_spec.g
    g2 = veselova_system(vparams).s_spec.g
    Dinv = 1.0 / D
    M, G = unpack(states)
    h_dev, h_ok = _gate("duality hamiltonian identity",
                        np.abs(H1(M, G) - 0.5 * Dinv * np.vecdot(M, M) + Dinv * H2(M, G)), 1e-12, states)
    g_dev, g_ok = _gate("duality g relation", np.abs(g1(G) - g2(G) / np.sqrt(D)), 1e-12, states)
    ok = h_ok and g_ok
    return {"suite": "duality", "D": D, "hamiltonian_identity_max": h_dev,
            "g_relation_max": g_dev, "threshold": 1e-12, "pass": ok}, ok


def _check_gauge(args, rng, states) -> tuple[dict, bool]:
    a1 = ScalarField(lambda g: 1.2 + 0.3 * g[..., 0] + 0.1 * g[..., 1] ** 2,
                     grad=lambda g: vector(0.3, 0.2 * g[..., 1], 0.0))
    h1 = gauge_mod.VectorField3(
        lambda g: vector(0.2 * g[..., 1], -0.1 * g[..., 2] ** 2, 0.3 * g[..., 0] * g[..., 1]),
        curl=lambda g: vector(0.3 * g[..., 0] + 0.2 * g[..., 2], -0.3 * g[..., 1], -0.2))
    a2 = ScalarField(lambda g: 0.9 + 0.2 * g[..., 2], grad=lambda g: np.array([0.0, 0.0, 0.2]))
    h2 = gauge_mod.VectorField3(lambda g: vector(0.1 * g[..., 0], 0.05 * g[..., 1], -0.2 * g[..., 2]),
                                curl=lambda g: np.zeros(3))
    t1 = gauge_mod.GaugeTransform(a1, 1.7, h1)
    t2 = gauge_mod.GaugeTransform(a2, 0.8, h2)
    t21 = gauge_mod.compose(t2, t1)

    comp = np.max(np.abs(gauge_mod.apply_gauge_state(t2, gauge_mod.apply_gauge_state(t1, states))
                         - gauge_mod.apply_gauge_state(t21, states)), axis=-1)

    base = gauge_mod.GFParams(g=ball_system(BallParams(**DEMO_BALL)).s_spec.g,
                              f=ScalarField.constant(0.0))
    # strip analytic derivatives to exercise the finite-difference tier
    fd_t1 = gauge_mod.GaugeTransform(ScalarField(a1.fn), t1.c, gauge_mod.VectorField3(h1.fn))
    fd_t2 = gauge_mod.GaugeTransform(ScalarField(a2.fn), t2.c, gauge_mod.VectorField3(h2.fn))
    fd_base = gauge_mod.GFParams(g=ScalarField(base.g.fn), f=ScalarField(base.f.fn))
    two_step = gauge_mod.pushforward_params(fd_t2, gauge_mod.pushforward_params(fd_t1, fd_base))
    composed = gauge_mod.pushforward_params(gauge_mod.compose(fd_t2, fd_t1), fd_base)
    G = unpack(states)[1]
    action = np.maximum(np.abs(two_step.g(G) - composed.g(G)), np.abs(two_step.f(G) - composed.f(G)))
    comp_dev, comp_ok = _gate("gauge composition", comp, 1e-12, states)
    action_dev, action_ok = _gate("gauge action property", action, 1e-8, states)
    ok = comp_ok and action_ok
    return {"suite": "gauge", "composition_state_max": comp_dev,
            "action_property_max": action_dev,
            "thresholds": {"composition": 1e-12, "action": 1e-8}, "pass": ok}, ok


def _check_planar(args, rng, states) -> tuple[dict, bool]:
    sysm = planar_mod.demo_system()
    probes = [rng.standard_normal(4) for _ in range(len(states))]
    residual, residual_ok = _gate("planar conformal residual",
                                  [planar_mod.to_conformal(sysm, z)[2] for z in probes], 1e-8, probes)
    P4 = planar_mod.conformal_bracket(sysm)
    jac, jac_ok = _gate("planar bracket jacobiator", jacobiator(P4, np.array(probes[:50])), 1e-9, probes)
    bad = planar_mod.PlanarSystem(H=sysm.H, dH_dq=sysm.dH_dq, dH_dP=sysm.dH_dP,
                                  A1=sysm.A1, A2=sysm.A2, B=sysm.B,
                                  N=ScalarField.constant(1.0))
    try:
        planar_mod.to_conformal(bad, probes[0])
        gate_ok = False
    except DomainError:
        gate_ok = True
    ok = residual_ok and jac_ok and gate_ok
    return {"suite": "planar", "conformal_residual_max": residual,
            "bracket_jacobiator_max": jac, "gate_rejects_inadmissible": gate_ok,
            "thresholds": {"residual": 1e-8, "jacobiator": 1e-9}, "pass": ok}, ok


_CHECKS = {
    "jacobi": _check_jacobi,
    "measure": _check_measure,
    "conformal": _check_conformal,
    "duality": _check_duality,
    "gauge": _check_gauge,
    "planar": _check_planar,
}


def cmd_check(args) -> int:
    _require_n(args.n)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    states = _random_states(rng, args.n)
    body, ok = _CHECKS[args.suite](args, rng, states)
    report = {"schema_version": SCHEMA_VERSION, "command": "check",
              "seed": seed, "n": args.n, **body}
    _emit(report, args.report)
    return 0 if ok else 4


def cmd_reduce(args) -> int:
    _require_n(args.n)
    cfg = _load_config(args)
    if args.g is not None or args.f is not None:
        if args.g is None or args.f is None:
            raise ConfigError("pass both --g and --f (constants) or use --model")
        if args.g <= 0.0:
            raise DomainError(f"g must be positive, got {args.g}")
        params = gauge_mod.GFParams(g=ScalarField.constant(args.g),
                                    f=ScalarField.constant(args.f))
        label = f"constant(g={args.g}, f={args.f})"
    else:
        model, mparams = _model_params(args, cfg)
        sysm = _build_system(model, mparams)
        spec = sysm.s_spec
        params = gauge_mod.GFParams(g=spec.g, f=spec.f)
        label = sysm.name
    seed = args.seed if args.seed is not None else 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = gauge_mod.reduction_report(params, L=args.L, n_states=args.n, seed=seed)
    report = {"schema_version": SCHEMA_VERSION, "command": "reduce",
              "source": label, **rep}
    residual_ok = rep["residual"] <= args.residual_tol
    bracket_ok = rep["bracket_dev"] <= 1e-6
    report["pass"] = bool(residual_ok and bracket_ok)
    _emit(report, args.report)
    if not residual_ok:
        sys.stderr.write(
            f"curl-equation residual {rep['residual']:.3e} > {args.residual_tol:.1e}; "
            f"try --L {2 * args.L}\n")
        return 4
    return 0 if bracket_ok else 4


def cmd_planar_demo(args) -> int:
    sysm = planar_mod.demo_system()
    icfg = IntegratorConfig(rtol=args.rtol or 1e-10, atol=args.atol or 1e-12,
                            horizon=args.horizon or 100.0, samples=args.samples or 1001)
    z0 = np.array([0.2, -0.3, 0.4, 0.1])
    E = planar_mod.energy_fn(sysm)
    traj = integrate(lambda z: planar_mod.planar_rhs(sysm, z), z0, icfg, integral_fns={"E": E})
    drift = drift_report(traj)["E"]
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    residual = float(max(planar_mod.to_conformal(sysm, rng.standard_normal(4))[2]
                         for _ in range(100)))
    with open(args.csv, "w") as fh:
        fh.write("t,q1,q2,P1,P2,E\n")
        for i, t in enumerate(traj.t):
            row = [t, *traj.states[i], traj.integrals["E"][i]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    ok = drift <= 1e-8 and residual <= 1e-8
    report = {"schema_version": SCHEMA_VERSION, "command": "planar-demo",
              "energy_drift": float(drift), "conformal_residual_max": residual,
              "horizon": icfg.horizon, "csv": str(args.csv), "pass": ok}
    _emit(report, args.report)
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--model", choices=["ball", "veselova"])
    p.add_argument("--A", help="ball inertia-type diagonal a1,a2,a3")
    p.add_argument("--D", type=float, help="ball coupling constant")
    p.add_argument("--Ahat", help="veselova diagonal a1,a2,a3")
    p.add_argument("--gyrostat", help="gyrostatic momentum k1,k2,k3")
    p.add_argument("--U", choices=["zero", "linear", "quadratic"])
    p.add_argument("--U-vec", dest="U_vec", help="potential coefficients r1,r2,r3")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int)
    p.add_argument("--report", help="write the JSON report here as well")


# One parser per process: an argparse parser holds reference cycles, so one
# built per call stays in memory until a full garbage collection.  1 600
# in-process `check` runs raised peak RSS by 2 MB that way, and each build
# costs about 1.2 ms.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nonholo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a model and monitor drifts")
    _add_model_flags(p)
    p.add_argument("--M", help="initial momentum m1,m2,m3")
    p.add_argument("--omega", help="initial angular velocity w1,w2,w3")
    p.add_argument("--gamma", help="initial direction g1,g2,g3 (renormalized)")
    p.add_argument("--demo", action="store_true", help="fill demo parameters and state")
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--threshold", type=float, help="drift pass threshold (default 1e-8)")
    p.add_argument("--csv", default="trajectory.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_CHECKS))
    _add_model_flags(p)
    p.add_argument("-n", type=int, default=1000, help="number of probe states")
    p.add_argument("--negative-control", action="store_true",
                   help="jacobi: assemble a measure-mismatched structure instead")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", help="reduce a bracket to the e(3) form")
    _add_model_flags(p)
    p.add_argument("--g", type=float, help="constant g instead of a model")
    p.add_argument("--f", type=float, help="constant f instead of a model")
    p.add_argument("--L", type=int, default=32, help="spherical-harmonic band limit")
    p.add_argument("-n", type=int, default=200, help="bracket probe states")
    p.add_argument("--residual-tol", dest="residual_tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("planar-demo", help="run the planar demo system")
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--csv", default="planar_trajectory.csv")
    p.add_argument("--report")
    p.set_defaults(func=cmd_planar_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    except ToleranceFailure as exc:
        sys.stderr.write(f"tolerance failure: {exc}\n")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
