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
A flag's value is read as its config field is: a malformed one, or one
below its bound (-n and --L at least 1, --seed at least 0), exits 2 and a
non-finite number exits 3, each with one line naming the flag or field.
The library refuses a flow or a (g, f) it cannot compute, and the command
adds the knobs that set it.  The check suites and the reduction decide
their own pass; simulate and planar-demo gate their drifts.  Exit codes:
0 pass, 2 configuration error, 3 domain violation, 4 numerical tolerance
failure.  All randomness flows from --seed: reruns give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from dataclasses import replace
from decimal import Decimal

import numpy as np

from . import checks
from . import gauge as gauge_mod
from . import planar as planar_mod
from .core import BudgetError, ConfigError, DomainError, ScalarField, ToleranceFailure, pack, write_in_place
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


def _leaves(value, key: str = ""):
    """(dotted key, value) of each number, text or flag in a report."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def _emit(report: dict, path: str | None) -> None:
    """Write a report as strict JSON; a non-finite value is a domain error naming its key."""
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        key = next(k for k, v in _leaves(report) if isinstance(v, float) and not np.isfinite(v))
        raise DomainError(f"the report's {key} is not finite") from None
    if path:
        with _output("--report", path):
            write_in_place(path, text)
    sys.stdout.write(text)


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


def _number(value, field: str, kind=float, least=-np.inf):
    """One number from a flag's text or a config field.  A non-number (a list, a boolean, text, a
    fraction where an integer belongs) or one below ``least`` is a configuration error naming the
    field, a non-finite number a domain error."""
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        x = None if isinstance(value, bool) or fraction else kind(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an integer too large for a float
        x = None
    if x is None:
        raise ConfigError(f"{field} needs {'an integer' if kind is int else 'a number'}, got {value!r}")
    if x < least:
        raise ConfigError(f"{field} must be at least {least}, got {x}")
    if kind is float and not np.isfinite(x):
        raise DomainError(f"{field} must be finite, got {x}")
    return x


_integer = functools.partial(_number, kind=int)
_seed = functools.partial(_number, kind=int, least=0)


def _vec3(value, field: str) -> np.ndarray:
    """Three numbers from a flag's "a,b,c" text or a config list, the i-th read by _number as ``field[i]``."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != 3:
        raise ConfigError(f"{field} needs three numbers, got {value!r}")
    return np.array([_number(v, f"{field}[{i}]") for i, v in enumerate(parts)])


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
    kind, field = (spec.get("kind", "zero"), "potential.kind") if args.U is None else (args.U, "--U")
    if kind == "zero":
        if args.U_vec is not None or (args.U is None and ("r" in spec or "C" in spec)):
            raise ConfigError("a potential vector needs its kind: pass --U linear | quadratic "
                              "(or potential.kind in the config)")
        return None
    if kind not in _POTENTIALS:
        raise ConfigError(f"{field} must be zero, linear or quadratic, got {kind!r}")
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
    model = cfg.get("model") if args.model is None else args.model
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
    # scaled by the power of two of its largest component, exactly, so that
    # the norm of a finite nonzero gamma neither overflows nor underflows
    e = np.frexp(np.max(np.abs(gamma)))[1]
    scaled = np.ldexp(gamma, -e)
    norm = np.linalg.norm(scaled)
    if not 0.0 < norm < np.inf:
        raise DomainError(f"--gamma (initial.gamma) must be a finite nonzero direction, got {gamma.tolist()}")
    with np.errstate(over="ignore"):
        length = np.ldexp(norm, e)
    if abs(length - 1.0) > 1e-6:
        # a length past the largest float is printed from its exact decimal value
        text = f"{length:.8g}" if length < np.inf else format(Decimal(norm) * 2 ** Decimal(int(e)), ".8g")
        sys.stderr.write(f"warning: renormalizing gamma: |gamma| = {text}\n")
    gamma = scaled / norm
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
    threshold = _flag_or_config(args.threshold, "--threshold", cfg, "drift_threshold", 1e-8,
                                functools.partial(_number, least=0))
    seed = _flag_or_config(args.seed, "--seed", cfg, "seed", 0, _seed)

    try:
        traj = integrate_sphere(sysm, x0, icfg)
    except DomainError as exc:  # name the knobs that set the flow, and the horizon past the budget
        model_flags = ", --A and --D" if isinstance(params, BallParams) else " and --Ahat"
        horizon = "--horizon, " if isinstance(exc, BudgetError) else ""
        raise DomainError(f"{exc}; its knobs are {horizon}--M or --omega, --gamma, --gyrostat, --U-vec"
                          f"{model_flags}") from None
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
    n = _integer(args.n, "-n", least=1)
    cfg = _load_config(args)
    seed = _flag_or_config(args.seed, "--seed", cfg, "seed", 0, _seed)
    rng = np.random.default_rng(seed)
    states = random_states(rng, n)
    if args.suite == "jacobi" and args.negative_control:
        _refuse(args, _MODEL_FLAGS, "beside --negative-control")
        body, ok = checks.negative_control(states)
    elif args.suite == "jacobi":
        body, ok = checks.jacobi(states, _model(args, cfg)[0])
    elif args.suite == "duality":
        body, ok = checks.duality(states, _flag_or_config(args.D, "--D", cfg, "D", 1.0, _number))
    elif args.suite == "planar":
        # the probes follow the states in the seeded stream
        body, ok = checks.planar(rng.standard_normal((n, 4)))
    else:
        body, ok = getattr(checks, args.suite)(states)
    report = {"schema_version": SCHEMA_VERSION, "command": "check", "seed": seed, "n": n, **body}
    _emit(report, args.report)
    return 0 if ok else 4


def cmd_reduce(args) -> int:
    n, L = _integer(args.n, "-n", least=1), _integer(args.L, "--L", least=1)
    cfg = _load_config(args)
    if args.g is not None or args.f is not None:
        _refuse(args, _MODEL_FLAGS, "beside --g/--f")
        if args.g is None or args.f is None:
            raise ConfigError("pass both --g and --f (constants) or use --model")
        g, f = _number(args.g, "--g"), _number(args.f, "--f")
        params = gauge_mod.GFParams(g=ScalarField.constant(g), f=ScalarField.constant(f))
        label, knobs = f"constant(g={g}, f={f})", "--g and --f"
    else:
        model, sysm = _model(args, cfg)
        # the one place that drops a gyrostat's Phi and k, which the reduction refuses;
        # the benchmark's reduce-veselova-gyrostat-L16 checks this run against k = 0
        params, label = gauge_mod.GFParams(g=sysm.s_spec.g, f=sysm.s_spec.f), sysm.name
        knobs = "--A and --D" if isinstance(model, BallParams) else "--Ahat"
    seed = _flag_or_config(args.seed, "--seed", cfg, "seed", 0, _seed)
    try:
        rep = gauge_mod.reduction_report(params, L=L, n_states=n, seed=seed)
    except DomainError as exc:  # name the knobs that set (g, f)
        raise DomainError(f"{exc}; its knobs are {knobs}") from None
    # the worst points go to the gate's stderr line, as for every gate
    residual_at, bracket_at = (", ".join(f"{v:.17g}" for v in rep.pop(key))
                               for key in ("worst_gamma", "worst_bracket_gamma"))
    _emit({"schema_version": SCHEMA_VERSION, "command": "reduce", "source": label, **rep}, args.report)
    if rep["pass"]:
        return 0
    # constant (g, f): both deviations are round-off of |F|, at any band limit
    hint = ("F = -(f/g^2 + 1/g) is constant and the gates are absolute, so no band limit helps; "
            "choose --g/--f with a smaller |F|") if args.g is not None else f"try --L {2 * L}"
    sys.stderr.write(f"reduction failed: residual {rep['residual']:.3e} at gamma ({residual_at}), bracket_dev "
                     f"{rep['bracket_dev']:.3e} at gamma ({bracket_at}); {hint}\n")
    return 4


def cmd_planar_demo(args) -> int:
    sysm = planar_mod.demo_system()
    icfg, seed = _integrator_config(args, {}), _flag_or_config(args.seed, "--seed", {}, "seed", 0, _seed)
    try:
        traj = integrate(sysm.flow, np.array([0.2, -0.3, 0.4, 0.1]), icfg)
    except BudgetError as exc:
        raise DomainError(f"{exc}; its knob is --horizon") from None
    traj = replace(traj, integrals={"E": planar_mod.energy_fn(sysm)(traj.states)})
    drift = drift_report(traj)["E"]
    probes = np.random.default_rng(seed).standard_normal((100, 4))
    residuals = planar_mod.to_conformal(sysm, probes)[2]
    worst = int(np.argmax(residuals))
    residual = float(residuals[worst])
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
        checks.report_worst("conformal gate", residual, f"> {PLANAR_DEMO_GATE:g}", worst, probes[worst])
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
    run.add_argument("--seed")
    run.add_argument("--report", help="write the JSON report here as well")
    coupling.add_argument("--D", help="ball coupling constant")
    model = argparse.ArgumentParser(add_help=False, parents=[coupling])
    model.add_argument("--model", metavar="{ball,veselova}")
    model.add_argument("--A", help="ball inertia-type diagonal a1,a2,a3")
    model.add_argument("--Ahat", help="veselova diagonal a1,a2,a3")
    model.add_argument("--gyrostat", help="gyrostatic momentum k1,k2,k3")
    potential.add_argument("--U", metavar="{zero,linear,quadratic}")
    potential.add_argument("--U-vec", dest="U_vec", help="potential coefficients r1,r2,r3")
    for name in ("rtol", "atol", "horizon", "samples"):
        integrator.add_argument(f"--{name}")

    parser = argparse.ArgumentParser(prog="nonholo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[run, model, potential, integrator],
                       help="integrate a model and monitor drifts")
    p.add_argument("--M", help="initial momentum m1,m2,m3")
    p.add_argument("--omega", help="initial angular velocity w1,w2,w3")
    p.add_argument("--gamma", help="initial direction g1,g2,g3 (renormalized)")
    p.add_argument("--demo", action="store_true", help="fill demo parameters and state")
    p.add_argument("--threshold", help="drift pass threshold (default 1e-8)")
    p.add_argument("--csv", default="trajectory.csv")
    p.set_defaults(func=cmd_simulate)

    check = sub.add_parser("check", help="run a verification suite")
    suites = check.add_subparsers(dest="suite", required=True)
    groups = {"jacobi": [run, model], "duality": [run, coupling]}
    for suite in checks.SUITES:
        p = suites.add_parser(suite, parents=groups.get(suite, [run]))
        p.add_argument("-n", default=1000, help="number of probe states")
        p.set_defaults(func=cmd_check)
    suites.choices["jacobi"].add_argument("--negative-control", action="store_true",
                                          help="assemble a measure-mismatched structure instead")

    p = sub.add_parser("reduce", parents=[run, model], help="reduce a bracket to the e(3) form")
    p.add_argument("--g", help="constant g instead of a model")
    p.add_argument("--f", help="constant f instead of a model")
    p.add_argument("--L", default=32, help="spherical-harmonic band limit")
    p.add_argument("-n", default=200, help="bracket probe states")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("planar-demo", parents=[integrator], help="run the planar demo system")
    p.add_argument("--seed")
    p.add_argument("--csv", default="planar_trajectory.csv")
    p.add_argument("--report")
    p.set_defaults(func=cmd_planar_demo)

    # a token that starts like a negative number ("--M -0.3,0.2,0.5", "--D -inf") is a value, not a flag
    for p in (*sub.choices.values(), *suites.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d|-inf", re.IGNORECASE)
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
