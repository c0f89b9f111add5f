"""The fiberwise transformation group of the bracket family and the
constructive reduction to the e(3) bracket.

A transform is a triple (alpha(gamma), c, h(gamma)) acting on states by

    M  ->  alpha * M_perp + c * M_par + M_par x h,        gamma -> gamma,

where M_par = (M, gamma) gamma and M_perp = M - M_par.  Composition mirrors
the product of the 2x2 block matrices [[alpha, h], [0, c]]: performing
(alpha1, c1, h1) then (alpha2, c2, h2) equals
(alpha1 alpha2, c1 c2, h1 alpha2 + h2 c1).

The action on bracket parameters (g, f) is

    g~ = alpha g
    f~ = (alpha^2/c) f + (alpha/c - 1) (g~ - (gamma, dg~/dgamma))
         + (1/c) (gamma, g~ dalpha/dgamma + g~^2 curl(h/g~)).

Choosing alpha = 1/g and solving (gamma, curl h) = F + c for the target

    F = -(alpha^2 f + alpha + (gamma, dalpha/dgamma))

drives any (g, f) to (1, 0), i.e. to the standard e(3) structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ZERO_LEVEL,
    DomainError,
    ScalarField,
    VectorField3,
    any_point,
    lift,
    pack,
    require_unit_gamma,
    unpack,
)
from .sphere import bivector_field, e3_bivector, random_states
from .spherical import RESIDUAL_TOL, CurlSolution, solve_curl_equation, verify_points

Array = np.ndarray

BRACKET_TOL = 1e-6      # largest bracket_dev a reduction passes with
JACOBIAN_STEP = 1e-6    # central step of gauge_state_jacobian's gamma-block


@dataclass(frozen=True)
class GaugeTransform:
    alpha: ScalarField
    c: float
    h: VectorField3

    def __post_init__(self):
        if self.c == 0.0:
            raise DomainError("the normal dilation c must be nonzero")


@dataclass(frozen=True)
class GFParams:
    g: ScalarField
    f: ScalarField


def identity_gauge() -> GaugeTransform:
    return GaugeTransform(ScalarField.constant(1.0), 1.0, VectorField3.zero())


def compose(t2: GaugeTransform, t1: GaugeTransform) -> GaugeTransform:
    """The transform acting as 'first t1, then t2'."""
    return GaugeTransform(
        alpha=t1.alpha * t2.alpha,
        c=t1.c * t2.c,
        h=t1.h.scaled(t2.alpha) + t2.h.scaled(t1.c),
    )


def inverse(t: GaugeTransform) -> GaugeTransform:
    scale = (t.alpha * t.c).reciprocal() * (-1.0)
    return GaugeTransform(alpha=t.alpha.reciprocal(), c=1.0 / t.c, h=t.h.scaled(scale))


def _fiber_map(a, c: float, h: Array, M: Array, gamma: Array) -> Array:
    """The raw fiber map with alpha = a and h already evaluated at gamma,
    over the last axis; defined for any gamma (used off-sphere by FD)."""
    m_par = lift(np.vecdot(M, gamma)) * gamma
    m_perp = M - m_par
    return lift(a) * m_perp + c * m_par + np.cross(m_par, h)


def apply_gauge_state(t: GaugeTransform, x) -> Array:
    """Image of states of shape (..., 6); preserves gamma and scales
    (M, gamma) by c."""
    M, gamma = unpack(x)
    require_unit_gamma(gamma)
    return pack(_fiber_map(t.alpha(gamma), t.c, t.h(gamma), M, gamma), gamma)


def _outer(u: Array, v: Array) -> Array:
    return u[..., :, None] * v[..., None, :]


def gauge_state_jacobian(t: GaugeTransform, x) -> Array:
    """Jacobian of x -> (M~, gamma) at states of shape (..., 6), shape
    (..., 6, 6).  The M-block is analytic; the gamma-block is
    central-differenced on the raw fiber map.  alpha and h are evaluated
    once on the stacked 7-point stencil gamma, gamma + step e_j,
    gamma - step e_j, step = JACOBIAN_STEP."""
    M, gamma = unpack(x)
    E = JACOBIAN_STEP * np.eye(3)
    stencil = gamma[..., None, :] + np.concatenate([np.zeros((1, 3)), E, -E])
    a, h = t.alpha(stencil), t.h(stencil)
    mapped = _fiber_map(a[..., 1:], t.c, h[..., 1:, :], M[..., None, :], stencil[..., 1:, :])
    a0 = lift(a[..., 0], 2)
    gh = np.cross(gamma, h[..., 0, :])
    J = np.zeros(gamma.shape[:-1] + (6, 6))
    J[..., :3, :3] = a0 * np.eye(3) + (t.c - a0) * _outer(gamma, gamma) + _outer(gh, gamma)
    J[..., :3, 3:] = np.swapaxes((mapped[..., :3, :] - mapped[..., 3:, :]) / (2.0 * JACOBIAN_STEP), -1, -2)
    J[..., 3:, 3:] = np.eye(3)
    return J


def pushforward_bivector(t: GaugeTransform, P_field, x) -> Array:
    """Congruence J P J^T of a bivector field under the state map, at states
    of shape (..., 6).

    The result lives at the image point apply_gauge_state(t, x); compare it
    there against any direct assembly.
    """
    x = np.asarray(x, float)
    _, gamma = unpack(x)
    if np.any(np.abs(t.alpha(gamma)) < 1e-14):
        raise DomainError("alpha vanishes; the fiber map is singular here")
    J = gauge_state_jacobian(t, x)
    P = np.asarray(P_field(x), float)
    return J @ P @ np.swapaxes(J, -1, -2)


def pushforward_params(t: GaugeTransform, p: GFParams) -> GFParams:
    """Image parameters (g~, f~) of the action on the bracket family.

    g~ keeps an analytic gradient when both factors have one; f~ is a plain
    evaluation map (nothing downstream differentiates it analytically).
    """
    g_new = t.alpha * p.g

    def f_new(gamma):
        a = t.alpha(gamma)
        c = t.c
        gt = g_new(gamma)
        radial = gt - np.vecdot(gamma, g_new.gradient(gamma))
        grad_a = t.alpha.gradient(gamma)
        curl_term = t.h.scaled(g_new.reciprocal()).curl_at(gamma)
        return (a * a / c) * p.f(gamma) + (a / c - 1.0) * radial \
            + np.vecdot(gamma, lift(gt) * grad_a + lift(gt * gt) * curl_term) / c

    return GFParams(g=g_new, f=ScalarField(f_new))


def gf_bivector(p: GFParams):
    """The bracket field x -> P(x) of a parameter pair (k = 0, Phi = 0)."""
    return bivector_field(g=p.g, f=p.f)


# ---------------------------------------------------------------------------
# zero-level reduction
# ---------------------------------------------------------------------------

def zero_level_reduce(g: ScalarField, x) -> Array:
    """On (M, gamma) = 0 the rescaling M -> M / g(gamma) already lands on the
    e(3) bracket; this returns the rescaled states, over the last axis."""
    M, gamma = unpack(x)
    require_unit_gamma(gamma)
    level = np.abs(np.vecdot(M, gamma))
    if any_point(level > ZERO_LEVEL):
        raise DomainError(f"state is off the zero level: |(M, gamma)| = {np.max(level):.3e}")
    return pack(M / lift(g(gamma)), gamma)


def zero_level_jacobian(g: ScalarField, x) -> Array:
    """Analytic Jacobian of x -> (M / g, gamma) at states of shape (..., 6),
    shape (..., 6, 6), for the bracket congruence."""
    M, gamma = unpack(x)
    a = 1.0 / g(gamma)
    J = np.zeros(gamma.shape[:-1] + (6, 6))
    J[..., :3, :3] = lift(a, 2) * np.eye(3)
    J[..., :3, 3:] = -lift(a * a, 2) * _outer(M, g.gradient(gamma))
    J[..., 3:, 3:] = np.eye(3)
    return J


# ---------------------------------------------------------------------------
# reduction to the e(3) bracket
# ---------------------------------------------------------------------------

def curl_target_F(p: GFParams) -> ScalarField:
    """Right-hand side F of the curl equation for the reducing gauge.

    With alpha = 1/g fixed by g~ = 1, driving f~ to zero asks for
    (gamma, curl h) = F + c with F = -(alpha^2 f + alpha + (gamma, dalpha)).
    """
    alpha = p.g.reciprocal()

    def F(gamma):
        a = alpha(gamma)
        return -(a * a * p.f(gamma) + a + np.vecdot(gamma, alpha.gradient(gamma)))

    return ScalarField(F)


def reduce_to_e3(p: GFParams, L: int = 32) -> tuple[GaugeTransform, CurlSolution]:
    """The transform sending (g, f) to (1, 0), plus the solver diagnostics."""
    sol = solve_curl_equation(curl_target_F(p), L=L)
    gauge = GaugeTransform(alpha=p.g.reciprocal(), c=sol.c, h=sol.h)
    return gauge, sol


def reduction_report(p: GFParams, L: int = 32, n_states: int = 200,
                     seed: int = 0) -> dict:
    """End-to-end diagnostics of the reduction, as plain floats.

    Reports the curl-equation residual, the sup deviation of the pushed
    parameters from (1, 0) on the verification grid, and the worst entrywise
    mismatch between the pushed-forward bivector and the e(3) bivector at
    seeded random unit-gamma states.  Each probe set is one array call.
    ``pass`` holds iff the residual is at most spherical.RESIDUAL_TOL and
    the bracket mismatch at most BRACKET_TOL.
    """
    gauge, sol = reduce_to_e3(p, L=L)
    pushed = pushforward_params(gauge, p)

    grid_pts = verify_points(L)
    g_dev = np.max(np.abs(pushed.g(grid_pts) - 1.0))
    f_dev = np.max(np.abs(pushed.f(grid_pts)))

    X = random_states(np.random.default_rng(seed), n_states)
    left = pushforward_bivector(gauge, gf_bivector(p), X)
    right = e3_bivector(apply_gauge_state(gauge, X))
    bracket_dev = float(np.max(np.abs(left - right), initial=0.0))

    return {
        "L": L,
        "c": float(sol.c),
        "residual": float(sol.residual),
        "g_tilde_dev": float(g_dev),
        "f_tilde_dev": float(f_dev),
        "bracket_dev": bracket_dev,
        "n_states": n_states,
        "seed": seed,
        "pass": sol.residual <= RESIDUAL_TOL and bracket_dev <= BRACKET_TOL,
    }
