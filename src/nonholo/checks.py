"""The verification suites: the one implementation of each guarantee the
package advertises, run by ``nonholo check`` and by the acceptance tests.

Each suite takes states of shape (n, 6) (``planar``: probes of shape
(n, 4)) and only the objects it uses, evaluates them in a few array calls
and returns ``(body, ok)``, the report body and whether every gate passed.
A failing gate writes its worst value, threshold, state index and state to
stderr.

    jacobi(states, params)  jacobiator of the model's bracket P <= 1e-6
    negative_control(states)  Jacobi must fail (> 1e-3) at >= 90 % of states
                            for the measure-mismatched P(g = 1, K of the ball)
    measure(states)         rho = 1/g invariant-measure residual <= 1e-10,
                            demo ball and Veselova
    conformal(states)       |flow - (1/g) P grad H| <= 1e-10, demo ball and
                            Veselova with and without gyrostat
    duality(states, D)      dual Hamiltonian identity times D, g relation
                            times sqrt(D) <= 1e-12
    gauge(states)           composition law <= 1e-12, action on (g, f) of
                            fields with no analytic derivatives <= 1e-8
    planar(probes)          conformal residual <= 1e-8, bracket jacobiator
                            <= 1e-9 (first 50 probes); negative control: the
                            measure gate rejects the density N = 1

Each threshold is one of the gate constants below, which the reports echo.
The library's evaluation functions are called through their home modules
(``core.jacobiator``, ``sphere.assemble_P``, ...), where a wrapper sees them.
"""

from __future__ import annotations

import sys
from dataclasses import fields, replace

import numpy as np

from . import core, sphere
from . import gauge as gauge_mod
from . import planar as planar_mod
from .core import DomainError, ScalarField, unpack, vector
from .models import (DEMO_BALL, DEMO_GYROSTAT, DEMO_VESELOVA, BallParams, VeselovaParams, ball_K,
                     ball_system, duality_map, veselova_K, veselova_system)

SUITES = ("conformal", "duality", "gauge", "jacobi", "measure", "planar")

# the gates, each stated once and reported as stated
JACOBI_GATE = 1e-6
NEGATIVE_GATE, NEGATIVE_FRACTION = 1e-3, 0.9   # violation level, share of states
RESIDUAL_GATE = 1e-10                          # measure and conformal
DUALITY_GATE = 1e-12
GAUGE_GATES = {"composition": 1e-12, "action": 1e-8}
PLANAR_GATES = {"residual": 1e-8, "jacobiator": 1e-9}


def _gate(label: str, vals, threshold: float, points) -> tuple[float, bool]:
    """The largest of the per-state values and whether it passes the
    threshold; a failure names the worst value and its state on stderr."""
    i = int(np.argmax(vals))
    worst = float(vals[i])
    ok = worst <= threshold
    if not ok:
        report_worst(label, worst, f"> {threshold:g}", i, points[i])
    return worst, ok


def report_worst(label, value, relation, i, point) -> None:
    state = ", ".join(f"{v:.17g}" for v in point)
    sys.stderr.write(f"{label}: worst value {value:.6e} {relation} at state {i}: ({state})\n")


def _gate_by_model(suite, vals_by_model, threshold, states) -> tuple[dict, bool]:
    """A suite's report body from per-state values of several models."""
    report = {name: float(np.max(vals)) for name, vals in vals_by_model.items()}
    name = max(report, key=report.get)
    worst, ok = _gate(f"{suite} {name}", vals_by_model[name], threshold, states)
    return {"suite": suite, "max_by_model": report, "max": worst,
            "threshold": threshold, "pass": ok}, ok


def jacobi(states, params: BallParams | VeselovaParams) -> tuple[dict, bool]:
    system = (ball_system if isinstance(params, BallParams) else veselova_system)(params)
    # the ball's bracket grows as 1/D: a jacobiator that overflows (D = 1e-308,
    # say) is refused at the first overflow, before any value is reported
    with np.errstate(over="raise", invalid="raise"):
        try:
            vals = core.jacobiator(lambda x: sphere.assemble_P(system, x), states)
        except FloatingPointError:
            named = ", ".join(f"{f.name} = {np.asarray(getattr(params, f.name)).tolist()}"
                              for f in fields(params) if f.name != "U")
            raise DomainError(f"the {system.name} bracket's jacobiator overflows at {named}") from None
    worst, ok = _gate(f"jacobi {system.name}", vals, JACOBI_GATE, states)
    return {"suite": "jacobi", "model": system.name, "max": worst,
            "threshold": JACOBI_GATE, "pass": ok}, ok


def negative_control(states) -> tuple[dict, bool]:
    P = sphere.bivector_field(g=ScalarField.constant(1.0), K=ball_K(BallParams(**DEMO_BALL)))
    vals = core.jacobiator(P, states)
    frac = float(np.mean(vals > NEGATIVE_GATE))
    ok = frac >= NEGATIVE_FRACTION
    if not ok:
        i = int(np.argmin(vals))
        report_worst(f"jacobi negative control (fraction violating {frac:.3f} < {NEGATIVE_FRACTION:g})",
                     vals[i], f"<= {NEGATIVE_GATE:g}", i, states[i])
    return {"suite": "jacobi-negative-control", "max": float(np.max(vals)),
            "min": float(np.min(vals)), "fraction_violating": frac,
            "threshold": NEGATIVE_GATE, "pass": ok}, ok


def measure(states) -> tuple[dict, bool]:
    ball, ves = BallParams(**DEMO_BALL), VeselovaParams(**DEMO_VESELOVA)
    vals = {}
    for name, system, K in (("ball", ball_system(ball), ball_K(ball)),
                            ("veselova", veselova_system(ves), veselova_K(ves))):
        rho = system.s_spec.g.reciprocal()
        vals[name] = np.max(np.abs(sphere.measure_residual(K, states, rho)), axis=-1)
    return _gate_by_model("measure", vals, RESIDUAL_GATE, states)


def conformal(states) -> tuple[dict, bool]:
    k = np.asarray(DEMO_GYROSTAT)
    systems = [ball_system(BallParams(**DEMO_BALL)), ball_system(BallParams(**DEMO_BALL, k=k)),
               veselova_system(VeselovaParams(**DEMO_VESELOVA)),
               veselova_system(VeselovaParams(**DEMO_VESELOVA, k=k))]
    return _gate_by_model("conformal", {s.name: sphere.conformal_residual(s, states) for s in systems},
                          RESIDUAL_GATE, states)


def duality(states, D: float) -> tuple[dict, bool]:
    vparams = VeselovaParams(**DEMO_VESELOVA)
    ball, ves = ball_system(duality_map(vparams, D=D)), veselova_system(vparams)
    M, G = unpack(states)
    # H_ball = (M, M)/(2D) - H_ves/D times D and g_ball = g_ves/sqrt(D) times
    # sqrt(D): their terms, and so their round-off, then do not grow with 1/D.
    # The dual ball's Hamiltonian squares its inertia (1 - Ahat) / D times M,
    # which overflows once D is below about 1e-154 (the bound moves with the
    # states' |M|): refused at the first overflow, before any value is
    # reported
    with np.errstate(over="raise"):
        try:
            h_vals = np.abs(D * ball.hamiltonian(M, G) - 0.5 * np.vecdot(M, M) + ves.hamiltonian(M, G))
            g_vals = np.abs(np.sqrt(D) * ball.s_spec.g(G) - ves.s_spec.g(G))
        except FloatingPointError:
            raise DomainError(f"D = {D} is too small: the dual ball's Hamiltonian overflows") from None
    h_dev, h_ok = _gate("duality hamiltonian identity", h_vals, DUALITY_GATE, states)
    g_dev, g_ok = _gate("duality g relation", g_vals, DUALITY_GATE, states)
    ok = h_ok and g_ok
    return {"suite": "duality", "D": D, "hamiltonian_identity_max": h_dev,
            "g_relation_max": g_dev, "threshold": DUALITY_GATE, "pass": ok}, ok


def gauge(states) -> tuple[dict, bool]:
    # leaves with no analytic derivatives: only they are differenced, and the
    # composed transform carries its derivatives by the product rule over them
    t1 = gauge_mod.GaugeTransform(
        ScalarField(lambda g: 1.2 + 0.3 * g[..., 0] + 0.1 * g[..., 1] ** 2), 1.7,
        gauge_mod.VectorField3(
            lambda g: vector(0.2 * g[..., 1], -0.1 * g[..., 2] ** 2, 0.3 * g[..., 0] * g[..., 1])))
    t2 = gauge_mod.GaugeTransform(
        ScalarField(lambda g: 0.9 + 0.2 * g[..., 2]), 0.8,
        gauge_mod.VectorField3(lambda g: vector(0.1 * g[..., 0], 0.05 * g[..., 1], -0.2 * g[..., 2])))
    t21 = gauge_mod.compose(t2, t1)
    apply = gauge_mod.apply_gauge_state
    comp = np.max(np.abs(apply(t2, apply(t1, states)) - apply(t21, states)), axis=-1)

    base = gauge_mod.GFParams(g=ScalarField(ball_system(BallParams(**DEMO_BALL)).s_spec.g.fn),
                              f=ScalarField.constant(0.0))
    two_step = gauge_mod.pushforward_params(t2, gauge_mod.pushforward_params(t1, base))
    composed = gauge_mod.pushforward_params(t21, base)
    G = unpack(states)[1]
    action = np.maximum(np.abs(two_step.g(G) - composed.g(G)), np.abs(two_step.f(G) - composed.f(G)))
    comp_dev, comp_ok = _gate("gauge composition", comp, GAUGE_GATES["composition"], states)
    action_dev, action_ok = _gate("gauge action property", action, GAUGE_GATES["action"], states)
    ok = comp_ok and action_ok
    return {"suite": "gauge", "composition_state_max": comp_dev,
            "action_property_max": action_dev,
            "thresholds": dict(GAUGE_GATES), "pass": ok}, ok


def planar(probes) -> tuple[dict, bool]:
    system = planar_mod.demo_system()
    residual, residual_ok = _gate("planar conformal residual",
                                  planar_mod.to_conformal(system, probes)[2], PLANAR_GATES["residual"], probes)
    jac, jac_ok = _gate("planar bracket jacobiator",
                        core.jacobiator(planar_mod.conformal_bracket(system), probes[:50]),
                        PLANAR_GATES["jacobiator"], probes)
    inadmissible = replace(system, N=ScalarField.constant(1.0))
    try:
        planar_mod.to_conformal(inadmissible, probes[0])
    except DomainError:
        gate_ok = True
    else:
        gate_ok = False
        report_worst("planar measure gate admits the density N = 1",
                     np.max(np.abs(planar_mod.measure_residual(inadmissible, probes[0, :2]))),
                     f"<= {core.MEASURE_GATE:g}", 0, probes[0])
    ok = residual_ok and jac_ok and gate_ok
    return {"suite": "planar", "conformal_residual_max": residual,
            "bracket_jacobiator_max": jac, "gate_rejects_inadmissible": gate_ok,
            "thresholds": dict(PLANAR_GATES), "pass": ok}, ok
