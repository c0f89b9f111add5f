"""Config-driven command line frontend.

Subcommands:

    simulate      integrate a model, write a trajectory CSV and a JSON
                  drift report; exit 0 iff all tracked drifts pass
    check SUITE   run a verification suite of ``nonholo.checks`` (jacobi,
                  measure, conformal, duality, gauge, planar) at seeded
                  random states
    reduce        run the bracket reduction pipeline and report deviations
    planar-demo   integrate the admissible planar demo system

Each subcommand and each check suite parses only the flags it reads, and
they follow the suite name.  Any other flag exits 2, as does a flag that
acts only under another choice: --A or --D on the Veselova model, --Ahat
on the ball, a model flag beside --negative-control or --g/--f.  A config
file may hold fields a command does not read; the command ignores them.
The check suites and the reduction decide their own pass; simulate and
planar-demo gate their drifts.  Exit codes: 0 pass, 2 configuration error,
3 domain violation, 4 numerical tolerance failure.  All randomness flows
from the --seed value, so repeated runs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import checks
from . import gauge as gauge_mod
from . import planar as planar_mod
from .core import ConfigError, DomainError, ScalarField, ToleranceFailure, pack, write_in_place
from .integrate import IntegratorConfig, drift_report, integrate, integrate_sphere, trajectory_csv
from .models import (DEMO_BALL, DEMO_VESELOVA, BallParams, VeselovaParams, ball_M_from_omega,
                     ball_system, linear_potential, quadratic_potential, veselova_M_from_omega,
                     veselova_system)
from .sphere import random_states

SCHEMA_VERSION = 1

DEMO_M = (0.3, -0.2, 0.5)
# unit vector along (1, -2, 4)
DEMO_GAMMA = tuple(np.array([1.0, -2.0, 4.0]) / np.sqrt(21.0))
PLANAR_DEMO_GATE = 1e-8  # largest energy drift and conformal residual planar-demo passes with


@contextlib.contextmanager
def _output(flag: str, path):
    """Turn a failure to write an output file into a ConfigError naming its flag."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot write {path}: {exc.strerror or exc}") from None


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with _output("--report", path):
            write_in_place(path, text)
    sys.stdout.write(text)


def _require_n(n: int) -> None:
    if n < 1:
        raise ConfigError(f"-n must be at least 1, got {n}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--config {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"--config {args.config} must hold a JSON object, got {type(cfg).__name__}")
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


def _number(value, field: str, kind=float):
    """One number from a flag or a config field; anything else (a list, a boolean,
    text, a fraction where an integer belongs) is a configuration error naming it."""
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fraction:
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{field} needs {'an integer' if kind is int else 'a number'}, got {value!r}")


_integer = functools.partial(_number, kind=int)


def _flag_or_config(flag_value, flag: str, cfg: dict, key: str, default=None, parse=_vec3):
    """A value (a 3-vector unless ``parse`` says otherwise) from its flag,
    else from the config field ``key`` (dotted for a nested entry), else
    the default."""
    if flag_value is not None:
        return parse(flag_value, flag)
    value = cfg
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return default if value is None else parse(value, key)


_POTENTIALS = {"linear": ("r", linear_potential), "quadratic": ("C", quadratic_potential)}
_MODEL_FLAGS = ("--model", "--A", "--D", "--Ahat", "--gyrostat")


def _potential(args, cfg):
    """U from --U and --U-vec, each over its config field: potential.kind,
    then potential.r (linear) or potential.C (quadratic).  None for zero."""
    spec = cfg.get("potential") or {}
    if not isinstance(spec, dict):
        raise ConfigError(f"potential must be an object with a kind, got {spec!r}")
    kind = args.U or spec.get("kind", "zero")
    if kind == "zero":
        if args.U_vec is not None or (args.U is None and ("r" in spec or "C" in spec)):
            raise ConfigError("a potential vector needs its kind: pass --U linear | quadratic "
                              "(or potential.kind in the config)")
        return None
    if kind not in _POTENTIALS:
        raise ConfigError(f"potential.kind must be zero, linear or quadratic, got {kind!r}")
    key, make = _POTENTIALS[kind]
    vec = _flag_or_config(args.U_vec, "--U-vec", cfg, f"potential.{key}")
    if vec is None:
        x = key.lower()
        raise ConfigError(f"--U {kind} needs --U-vec {x}1,{x}2,{x}3 (or potential.{key} in the config)")
    return make(vec)


def _refuse(args, flags, where: str) -> None:
    """A configuration error naming the first of the flags set where it does not act."""
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            raise ConfigError(f"{flag} does not act {where}")


def _model(args, cfg, U=None):
    """The model's parameters, with the potential U, and its system; flags over the config."""
    model = args.model or cfg.get("model")
    if model not in ("ball", "veselova"):
        raise ConfigError("pick a model: --model ball | veselova")
    _refuse(args, ("--Ahat",) if model == "ball" else ("--A", "--D"), f"on the {model} model")
    k = _flag_or_config(args.gyrostat, "--gyrostat", cfg, "gyrostat", np.zeros(3))
    if model == "ball":
        A = _flag_or_config(args.A, "--A", cfg, "A", np.asarray(DEMO_BALL["A"], float))
        D = _flag_or_config(args.D, "--D", cfg, "D", DEMO_BALL["D"], _number)
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
    if not 0.0 < norm < np.inf:
        raise DomainError(f"--gamma (initial.gamma) must be a finite nonzero direction, got {gamma.tolist()}")
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"renormalizing gamma: |gamma| = {norm:.8f}")
    gamma = gamma / norm
    if M is None and omega is None:
        raise ConfigError("initial condition needs --M or --omega (or initial.M or initial.omega)")
    if M is None:
        M = (ball_M_from_omega if isinstance(params, BallParams) else veselova_M_from_omega)(params, omega, gamma)
    return pack(M, gamma)


def _integrator_config(args, cfg) -> IntegratorConfig:
    values = {name: _flag_or_config(getattr(args, name), f"--{name}", cfg, f"integrator.{name}", parse=parse)
              for name, parse in (("rtol", _number), ("atol", _number), ("horizon", _number),
                                  ("samples", _integer))}
    return IntegratorConfig(**{name: v for name, v in values.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params, sysm = _model(args, cfg, _potential(args, cfg))
    x0 = _initial_state(args, cfg, params)
    icfg = _integrator_config(args, cfg)
    threshold = _flag_or_config(args.threshold, "--threshold", cfg, "drift_threshold", 1e-8, _number)
    seed = _flag_or_config(args.seed, "--seed", cfg, "seed", 0, _integer)

    traj = integrate_sphere(sysm, x0, icfg)
    with _output("--csv", args.csv):
        trajectory_csv(traj, args.csv)
    drifts = drift_report(traj)
    ok = all(v <= threshold for v in drifts.values())
    report = {"schema_version": SCHEMA_VERSION, "command": "simulate", "model": sysm.name,
              "seed": seed, "initial_state": [float(v) for v in x0], "horizon": icfg.horizon,
              "rtol": icfg.rtol, "atol": icfg.atol, "drift_threshold": threshold,
              "drifts": {k: float(v) for k, v in drifts.items()}, "nfev": traj.nfev,
              "csv": str(args.csv), "pass": ok}
    _emit(report, args.report)
    if ok:
        return 0
    _drift_failure(traj, drifts, threshold)
    return 4


def _drift_failure(traj, drifts: dict, threshold: float) -> None:
    """Name the worst integral of a failing drift gate, when, and the knob."""
    worst = max(drifts, key=drifts.get)
    vals = traj.integrals[worst]
    t = traj.t[np.argmax(np.abs(vals - vals[0]))]
    sys.stderr.write(f"drift gate: {worst} drifted {drifts[worst]:.3e} > {threshold:g} at t = {t:g}; "
                     f"try a smaller --rtol\n")


def cmd_check(args) -> int:
    _require_n(args.n)
    cfg = _load_config(args)
    seed = _flag_or_config(args.seed, "--seed", cfg, "seed", 0, _integer)
    rng = np.random.default_rng(seed)
    states = random_states(rng, args.n)
    if args.suite == "jacobi" and args.negative_control:
        _refuse(args, _MODEL_FLAGS, "beside --negative-control")
        body, ok = checks.negative_control(states)
    elif args.suite == "jacobi":
        body, ok = checks.jacobi(states, _model(args, cfg)[1])
    elif args.suite == "duality":
        body, ok = checks.duality(states, _flag_or_config(args.D, "--D", cfg, "D", 1.0, _number))
    elif args.suite == "planar":
        # the probes follow the states in the seeded stream
        body, ok = checks.planar(rng.standard_normal((args.n, 4)))
    else:
        body, ok = getattr(checks, args.suite)(states)
    report = {"schema_version": SCHEMA_VERSION, "command": "check", "seed": seed, "n": args.n, **body}
    _emit(report, args.report)
    return 0 if ok else 4


def cmd_reduce(args) -> int:
    _require_n(args.n)
    if args.L < 1:
        raise ConfigError(f"--L must be at least 1, got {args.L}")
    cfg = _load_config(args)
    if args.g is not None or args.f is not None:
        _refuse(args, _MODEL_FLAGS, "beside --g/--f")
        if args.g is None or args.f is None:
            raise ConfigError("pass both --g and --f (constants) or use --model")
        if args.g <= 0.0:
            raise DomainError(f"g must be positive, got {args.g}")
        params = gauge_mod.GFParams(g=ScalarField.constant(args.g), f=ScalarField.constant(args.f))
        label = f"constant(g={args.g}, f={args.f})"
    else:
        sysm = _model(args, cfg)[1]
        params, label = gauge_mod.GFParams(g=sysm.s_spec.g, f=sysm.s_spec.f), sysm.name
    seed = _flag_or_config(args.seed, "--seed", cfg, "seed", 0, _integer)
    rep = gauge_mod.reduction_report(params, L=args.L, n_states=args.n, seed=seed)
    _emit({"schema_version": SCHEMA_VERSION, "command": "reduce", "source": label, **rep}, args.report)
    if rep["pass"]:
        return 0
    sys.stderr.write(f"reduction failed: residual {rep['residual']:.3e}, bracket_dev "
                     f"{rep['bracket_dev']:.3e}; try --L {2 * args.L}\n")
    return 4


def cmd_planar_demo(args) -> int:
    sysm = planar_mod.demo_system()
    icfg = _integrator_config(args, {})
    traj = integrate(sysm.flow, np.array([0.2, -0.3, 0.4, 0.1]), icfg)
    traj = replace(traj, integrals={"E": planar_mod.energy_fn(sysm)(traj.states)})
    drift = drift_report(traj)["E"]
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    residual = float(np.max(planar_mod.to_conformal(sysm, rng.standard_normal((100, 4)))[2]))
    with _output("--csv", args.csv):
        trajectory_csv(traj, args.csv, columns=("q1", "q2", "P1", "P2"))
    ok = drift <= PLANAR_DEMO_GATE and residual <= PLANAR_DEMO_GATE
    report = {"schema_version": SCHEMA_VERSION, "command": "planar-demo",
              "energy_drift": float(drift), "conformal_residual_max": residual,
              "horizon": icfg.horizon, "csv": str(args.csv), "pass": ok}
    _emit(report, args.report)
    if drift > PLANAR_DEMO_GATE:
        _drift_failure(traj, {"E": drift}, PLANAR_DEMO_GATE)
    elif not ok:
        sys.stderr.write(f"conformal gate: residual {residual:.3e} > {PLANAR_DEMO_GATE:g} "
                         f"over the 100 probes of the demo system\n")
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# One parser per process: an argparse parser holds reference cycles, so one
# built per call stays in memory until a full garbage collection.  1 600
# in-process `check` runs raised peak RSS by 2 MB that way, and each build
# costs about 1.2 ms.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # the flag groups, each declared once and given to the parsers that read it
    run, coupling, potential, integrator = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    run.add_argument("--config", help="JSON config file; flags override its fields")
    run.add_argument("--seed", type=int)
    run.add_argument("--report", help="write the JSON report here as well")
    coupling.add_argument("--D", type=float, help="ball coupling constant")
    model = argparse.ArgumentParser(add_help=False, parents=[coupling])
    model.add_argument("--model", choices=["ball", "veselova"])
    model.add_argument("--A", help="ball inertia-type diagonal a1,a2,a3")
    model.add_argument("--Ahat", help="veselova diagonal a1,a2,a3")
    model.add_argument("--gyrostat", help="gyrostatic momentum k1,k2,k3")
    potential.add_argument("--U", choices=["zero", "linear", "quadratic"])
    potential.add_argument("--U-vec", dest="U_vec", help="potential coefficients r1,r2,r3")
    for name, kind in (("rtol", float), ("atol", float), ("horizon", float), ("samples", int)):
        integrator.add_argument(f"--{name}", type=kind)

    parser = argparse.ArgumentParser(prog="nonholo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[run, model, potential, integrator],
                       help="integrate a model and monitor drifts")
    p.add_argument("--M", help="initial momentum m1,m2,m3")
    p.add_argument("--omega", help="initial angular velocity w1,w2,w3")
    p.add_argument("--gamma", help="initial direction g1,g2,g3 (renormalized)")
    p.add_argument("--demo", action="store_true", help="fill demo parameters and state")
    p.add_argument("--threshold", type=float, help="drift pass threshold (default 1e-8)")
    p.add_argument("--csv", default="trajectory.csv")
    p.set_defaults(func=cmd_simulate)

    check = sub.add_parser("check", help="run a verification suite")
    suites = check.add_subparsers(dest="suite", required=True)
    groups = {"jacobi": [run, model], "duality": [run, coupling]}
    for suite in checks.SUITES:
        p = suites.add_parser(suite, parents=groups.get(suite, [run]))
        p.add_argument("-n", type=int, default=1000, help="number of probe states")
        p.set_defaults(func=cmd_check)
    suites.choices["jacobi"].add_argument("--negative-control", action="store_true",
                                          help="assemble a measure-mismatched structure instead")

    p = sub.add_parser("reduce", parents=[run, model], help="reduce a bracket to the e(3) form")
    p.add_argument("--g", type=float, help="constant g instead of a model")
    p.add_argument("--f", type=float, help="constant f instead of a model")
    p.add_argument("--L", type=int, default=32, help="spherical-harmonic band limit")
    p.add_argument("-n", type=int, default=200, help="bracket probe states")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("planar-demo", parents=[integrator], help="run the planar demo system")
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
