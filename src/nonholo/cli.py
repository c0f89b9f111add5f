"""Config-driven command line frontend.

Subcommands:

    simulate      integrate a model, write a trajectory CSV and a JSON
                  drift report; exit 0 iff all tracked drifts pass
    check SUITE   run a verification suite of ``nonholo.checks`` (jacobi,
                  measure, conformal, duality, gauge, planar) at seeded
                  random states
    reduce        run the bracket reduction pipeline and report deviations
    planar-demo   integrate the admissible planar demo system

Each subcommand reads its flags and config, builds the objects, calls the
library and writes the report; the gates live in the library.  Exit codes:
0 pass, 2 configuration error, 3 domain violation, 4 numerical tolerance
failure.  All randomness flows from the --seed value, so repeated runs
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import checks
from . import gauge as gauge_mod
from . import planar as planar_mod
from .core import ConfigError, DomainError, ScalarField, ToleranceFailure, pack
from .integrate import IntegratorConfig, drift_report, integrate, integrate_sphere, trajectory_csv
from .models import (DEMO_BALL, DEMO_VESELOVA, BallParams, VeselovaParams, ball_M_from_omega,
                     ball_system, linear_potential, quadratic_potential, veselova_M_from_omega,
                     veselova_system)

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


def _require_n(n: int) -> None:
    if n < 1:
        raise ConfigError(f"-n must be at least 1, got {n}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    return cfg


def _vec3(value, field: str) -> np.ndarray:
    """Three numbers from a flag's "a,b,c" text or a config list; anything
    else is a configuration error that names the field."""
    try:
        parts = [float(v) for v in (value.split(",") if isinstance(value, str) else value)]
    except (TypeError, ValueError):
        parts = None
    if parts is None or len(parts) != 3:
        raise ConfigError(f"{field} needs three numbers, got {value!r}")
    return np.array(parts)


def _flag_or_config(flag_value, flag: str, cfg: dict, key: str, default=None):
    """A 3-vector from its flag, else from the config field ``key`` (dotted
    for a nested entry), else the default."""
    if flag_value is not None:
        return _vec3(flag_value, flag)
    value = cfg
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return default if value is None else _vec3(value, key)


_POTENTIALS = {"linear": ("r", linear_potential), "quadratic": ("C", quadratic_potential)}


def _potential(args, cfg):
    """U from --U and --U-vec, each over its config field: potential.kind,
    then potential.r (linear) or potential.C (quadratic).  None for zero."""
    spec = cfg.get("potential") or {}
    if not isinstance(spec, dict):
        raise ConfigError(f"potential must be an object with a kind, got {spec!r}")
    kind = args.U or spec.get("kind", "zero")
    if kind == "zero":
        return None
    if kind not in _POTENTIALS:
        raise ConfigError(f"unknown potential kind {kind!r}; use zero, linear or quadratic")
    key, make = _POTENTIALS[kind]
    vec = _flag_or_config(args.U_vec, "--U-vec", cfg, f"potential.{key}")
    if vec is None:
        x = key.lower()
        raise ConfigError(f"--U {kind} needs --U-vec {x}1,{x}2,{x}3 (or potential.{key} in the config)")
    return make(vec)


def _model(args, cfg):
    """The model's parameters and its system, flags over the config."""
    model = args.model or cfg.get("model")
    if model not in ("ball", "veselova"):
        raise ConfigError("pick a model: --model ball | veselova")
    U = _potential(args, cfg)
    k = _flag_or_config(args.gyrostat, "--gyrostat", cfg, "gyrostat", np.zeros(3))
    if model == "ball":
        A = _flag_or_config(args.A, "--A", cfg, "A", np.asarray(DEMO_BALL["A"], float))
        D = args.D if args.D is not None else float(cfg.get("D", DEMO_BALL["D"]))
        params = BallParams(A=A, D=D, U=U, k=k)
        return params, ball_system(params)
    Ah = _flag_or_config(args.Ahat, "--Ahat", cfg, "Ahat", np.asarray(DEMO_VESELOVA["Ahat"], float))
    params = VeselovaParams(Ahat=Ah, U=U, k=k)
    return params, veselova_system(params)


def _initial_state(args, cfg, params):
    M, omega, gamma = (_flag_or_config(getattr(args, name), f"--{name}", cfg, f"initial.{name}")
                       for name in ("M", "omega", "gamma"))
    if args.omega is not None:  # a velocity flag overrides any momentum
        M = None
    if args.demo:
        gamma = np.array(DEMO_GAMMA) if gamma is None else gamma
        M = np.array(DEMO_M) if M is None and omega is None else M
    if gamma is None:
        raise ConfigError("no initial condition; pass --gamma (plus --M or --omega) or --demo")
    norm = np.linalg.norm(gamma)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"renormalizing gamma: |gamma| = {norm:.8f}")
    gamma = gamma / norm
    if M is None and omega is None:
        raise ConfigError("initial condition needs M or omega")
    if M is None:
        M = (ball_M_from_omega if isinstance(params, BallParams) else veselova_M_from_omega)(params, omega, gamma)
    return pack(M, gamma)


def _integrator_config(args, cfg) -> IntegratorConfig:
    icfg = dict(cfg.get("integrator", {}))
    def pick(name, default):
        v = getattr(args, name, None)
        return v if v is not None else icfg.get(name, default)
    return IntegratorConfig(rtol=float(pick("rtol", 1e-10)), atol=float(pick("atol", 1e-12)),
                            horizon=float(pick("horizon", 100.0)), samples=int(pick("samples", 1001)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params, sysm = _model(args, cfg)
    x0 = _initial_state(args, cfg, params)
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


def cmd_check(args) -> int:
    _require_n(args.n)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    states = checks.random_states(rng, args.n)
    if args.suite == "jacobi" and args.negative_control:
        body, ok = checks.negative_control(states)
    elif args.suite == "jacobi":
        body, ok = checks.jacobi(states, _model(args, _load_config(args))[1])
    elif args.suite == "duality":
        body, ok = checks.duality(states, args.D if args.D is not None else 1.0)
    elif args.suite == "planar":
        # the probes follow the states in the seeded stream
        body, ok = checks.planar(rng.standard_normal((args.n, 4)))
    else:
        body, ok = getattr(checks, args.suite)(states)
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
        sysm = _model(args, cfg)[1]
        params, label = gauge_mod.GFParams(g=sysm.s_spec.g, f=sysm.s_spec.f), sysm.name
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
    trajectory_csv(traj, args.csv, columns=("q1", "q2", "P1", "P2"))
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
    p.add_argument("suite", choices=checks.SUITES)
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
