"""The fiberwise transformation group of the bracket family and the
constructive reduction to the e(3) bracket.

A transform is a triple (alpha(gamma), c, h(gamma)) acting on states by

    M  ->  alpha * M_perp + c * M_par + M_par x h,        gamma -> gamma,

where M_par = (M, gamma) gamma and M_perp = M - M_par.  Composition mirrors
the product of the 2x2 block matrices [[alpha, h], [0, c]]: performing
(alpha1, c1, h1) then (alpha2, c2, h2) equals
(alpha1 alpha2, c1 c2, h1 alpha2 + h2 c1).

The action on bracket parameters (g, f, Phi) is

    g~   = alpha g
    f~   = (alpha^2/c) f + (alpha/c - 1) (g~ - (gamma, dg~/dgamma))
           + (1/c) (gamma, g~ dalpha/dgamma + g~^2 curl(h/g~))
    Phi~ = alpha^2 Phi,

and it refuses a gyrostat k, which the fiber map does not preserve.
Choosing alpha = 1/g and solving (gamma, curl h) = F + c for the target

    F = -(alpha^2 f + alpha + (gamma, dalpha/dgamma))

drives any (g, f) within reduce_to_e3's scale rule to (1, 0), i.e. to the
standard e(3) structure.  The group removes neither Phi (alpha = c = 1
leaves Phi~ = Phi) nor k, so the reduction refuses both by name.

Chaplygin's reducing multiplier is the element (1/g, 1, 0),
zero_level_transform: on the zero level (M, gamma) = 0 it is the rescaling
M -> M / g, and its congruence lands on e(3) there with no curl equation.

h enters f~ only through itself and its normal curl (gamma, curl h), which
is Lap_S psi on the sphere for the reduction's h = u x grad_S psi.  A
bracket moves by the congruence J P J^T with the Jacobian J of the state
map, which gauge_state_jacobian takes in closed form from dh, whose
antisymmetric part is curl h.  The reduction's h carries its
analytic Jacobian (spherical._rotated_gradient), so the reported
bracket_dev measures the reduction itself, to quadrature round-off where
the band limit resolves F, and no finite difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    ScalarField,
    VectorField3,
    hat,
    lift,
    pack,
    require_unit_gamma,
    unpack,
)
from .sphere import GFParams, e3_bivector, gf_bivector, random_states
from .spherical import RESIDUAL_TOL, CurlSolution, solve_curl_equation

Array = np.ndarray

BRACKET_TOL = 1e-6      # largest bracket_dev a reduction passes with
F_SCALE = 1e102         # largest |F| a reduction reads: J P J^T multiplies three, and cbrt(max float) = 5.6e102


@dataclass(frozen=True)
class GaugeTransform:
    alpha: ScalarField
    c: float
    h: VectorField3

    def __post_init__(self):
        if self.c == 0.0:
            raise DomainError("the normal dilation c must be nonzero")


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
    over the last axis; defined for any gamma, so that a finite-difference
    oracle of its Jacobian may step off the sphere."""
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
    (..., 6, 6), in closed form.

    With a = alpha(gamma), m_par = (M, gamma) gamma and its gamma-derivative
    dm_par = gamma M^T + (M, gamma) I, the gamma-block of the fiber map is
    m_perp (x) grad a + (c - a) dm_par - hat(h) dm_par + hat(m_par) dh, with
    grad a from ``alpha.gradient`` and dh from ``h.jacobian_at``, which a
    composed transform carries by the product rule: only a leaf made without
    a derivative is differenced, at the field-fallback rule."""
    M, gamma = unpack(x)
    a = lift(t.alpha(gamma), 2)
    h = t.h(gamma)
    m_dot = np.vecdot(M, gamma)
    m_par = lift(m_dot) * gamma
    dm_par = _outer(gamma, M) + lift(m_dot, 2) * np.eye(3)
    J = np.zeros(gamma.shape[:-1] + (6, 6))
    J[..., :3, :3] = a * np.eye(3) + (t.c - a) * _outer(gamma, gamma) + _outer(np.cross(gamma, h), gamma)
    J[..., :3, 3:] = _outer(M - m_par, t.alpha.gradient(gamma)) + ((t.c - a) * np.eye(3) - hat(h)) @ dm_par \
        + hat(m_par) @ t.h.jacobian_at(gamma)
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
    a = t.alpha(gamma)
    if np.any(a == 0.0) or not np.all(np.isfinite(a)):
        raise DomainError("alpha vanishes or is not finite; the fiber map is singular here")
    J = gauge_state_jacobian(t, x)
    P = np.asarray(P_field(x), float)
    return J @ P @ np.swapaxes(J, -1, -2)


def pushforward_params(t: GaugeTransform, p: GFParams) -> GFParams:
    """Image parameters (g~, f~, Phi~) of the action on the bracket family.

    g~ = alpha g and Phi~ = alpha^2 Phi carry their gradients by the
    product rule; f~ is a plain evaluation map (_pushed_f) of h and its
    normal curl (gamma, curl h) (read off dh) at its points.  A nonzero
    gyrostat k raises DomainError.
    """
    if np.any(p.k):
        raise DomainError("the gauge action does not preserve a nonzero gyrostat k")
    return GFParams(g=t.alpha * p.g,
                    f=ScalarField(lambda gamma: _pushed_f(t, p, gamma, t.h(gamma),
                                                          np.vecdot(gamma, t.h.curl_at(gamma)))),
                    phi=None if p.phi is None else (t.alpha * t.alpha) * p.phi)


def _pushed_f(t: GaugeTransform, p: GFParams, gamma: Array, h: Array, normal_curl: Array) -> Array:
    """f~ at points gamma where h and (gamma, curl h) take the values given:
    its (gamma, g~^2 curl(h/g~)) is g~ (gamma, curl h) - (gamma, grad g~ x h)
    with grad g~ = alpha grad g + g grad alpha, from one gradient of each
    factor."""
    a, g, c = t.alpha(gamma), p.g(gamma), t.c
    grad_a = t.alpha.gradient(gamma)
    gt = a * g
    grad_gt = lift(a) * p.g.gradient(gamma) + lift(g) * grad_a
    radial = gt - np.vecdot(gamma, grad_gt)
    return (a * a / c) * p.f(gamma) + (a / c - 1.0) * radial \
        + (gt * (np.vecdot(gamma, grad_a) + normal_curl) - np.vecdot(gamma, np.cross(grad_gt, h))) / c


# ---------------------------------------------------------------------------
# zero-level reduction
# ---------------------------------------------------------------------------

def zero_level_transform(g: ScalarField) -> GaugeTransform:
    """Chaplygin's rescaling M -> M / g(gamma) as the group element
    (1/g, 1, 0).  Its Jacobian differs from the rescaling's by a multiple
    of e (x) d(M, gamma), which every bracket of the family annihilates,
    (M, gamma) being a Casimir: on the zero level both congruences agree."""
    return GaugeTransform(g.reciprocal(), 1.0, VectorField3.zero())


# ---------------------------------------------------------------------------
# reduction to the e(3) bracket
# ---------------------------------------------------------------------------

def _F_terms(p: GFParams, gamma) -> Array:
    """-F's terms alpha^2 f, alpha and (gamma, dalpha) at points, on a first
    axis; g <= 0 raises DomainError before any division."""
    g = p.g(gamma)
    if not np.all(g > 0.0):
        raise DomainError(f"g must be positive on the sphere, got g = {np.min(g):g}")
    a = 1.0 / g
    return np.array([a * a * p.f(gamma), a, np.vecdot(gamma, -p.g.gradient(gamma) / lift(g * g))])


def curl_target_F(p: GFParams) -> ScalarField:
    """Right-hand side F of the curl equation for the reducing gauge.

    With alpha = 1/g fixed by g~ = 1, driving f~ to zero asks for
    (gamma, curl h) = F + c with F = -(alpha^2 f + alpha + (gamma, dalpha)).
    A Phi or a nonzero gyrostat k raises DomainError naming it.
    """
    if p.phi is not None:
        raise DomainError("the reduction to e(3) cannot remove a Phi term")
    if np.any(p.k):
        raise DomainError("the reduction to e(3) cannot remove a nonzero gyrostat k")
    return ScalarField(lambda gamma: -np.sum(_F_terms(p, gamma), axis=0))


def reduce_to_e3(p: GFParams, L: int = 32) -> tuple[GaugeTransform, CurlSolution]:
    """The transform sending (g, f) to (1, 0), plus the solver diagnostics.

    A (g, f) is refused with DomainError unless g > 0 wherever F is read
    and, at the verification points, |F| <= F_SCALE and c = -mean(F) keeps
    half the digits of F's terms, |c| >= sqrt(eps) mean(|alpha^2 f| +
    |alpha| + |(gamma, dalpha)|): a cancelling F would reduce their round-off.
    """
    sol = solve_curl_equation(curl_target_F(p), L=L)
    terms = _F_terms(p, sol.points)
    F_max = np.max(np.abs(np.sum(terms, axis=0)))
    least = np.sqrt(np.finfo(float).eps) * np.mean(np.sum(np.abs(terms), axis=0))
    if not F_max <= F_SCALE:
        raise DomainError(f"F = -(f/g^2 + 1/g + (gamma, d(1/g))) reaches |F| = {F_max:g}, past {F_SCALE:g}")
    if not abs(sol.c) >= least:
        raise DomainError(f"the dilation c = -mean(F) keeps fewer than half the digits of F's terms: |c| = "
                          f"{abs(sol.c):g}, below sqrt(eps) mean(|f|/g^2 + 1/g + |(gamma, d(1/g))|) = {least:g}")
    return GaugeTransform(alpha=p.g.reciprocal(), c=sol.c, h=sol.h), sol


def reduction_report(p: GFParams, L: int = 32, n_states: int = 200,
                     seed: int = 0) -> dict:
    """End-to-end diagnostics of the reduction, as plain floats.

    Reports the curl-equation residual, the sup deviation of the pushed
    parameters from (1, 0) on the verification grid, and the worst entrywise
    mismatch between the pushed-forward bivector and the e(3) bivector at
    seeded random states of e(3), unit gamma and momenta of order 1, pulled
    back by the inverse transform: the mismatch is read where the reduced
    flow lives, at its own scale.  g~ and f~ are pushforward_params's
    maps, with h and its normal curl read off the solution's synthesis on
    the verification rings instead of a synthesis per point; each probe set
    is one array call.  ``pass`` holds iff the residual is at most
    spherical.RESIDUAL_TOL and the bracket mismatch at most BRACKET_TOL.
    ``worst_gamma`` is the verification point where the residual peaks and
    ``worst_bracket_gamma`` the probe gamma where the bracket mismatch does,
    [] with no probe states.  An overflow raises DomainError, as a refusal does.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            gauge, sol = reduce_to_e3(p, L=L)
            g_dev = np.max(np.abs((gauge.alpha * p.g)(sol.points) - 1.0))
            f_dev = np.max(np.abs(_pushed_f(gauge, p, sol.points, sol.verify_h, sol.verify_normal_curl)))
            X = apply_gauge_state(inverse(gauge), random_states(np.random.default_rng(seed), n_states))
            # the image first: the Jacobian's h(gamma) and dh then reuse the image's
            # one synthesis of h's field at the same points
            image = apply_gauge_state(gauge, X)
            left = pushforward_bivector(gauge, gf_bivector(p), X)
            right = e3_bivector(image)
            deviation = np.max(np.abs(left - right), axis=(-2, -1), initial=0.0)
            worst = X[np.argmax(deviation), 3:] if n_states else []
            bracket_dev = float(np.max(deviation, initial=0.0))
    except FloatingPointError as exc:
        raise DomainError(f"the reduction of this (g, f) is not finite: {exc}") from None

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
        "worst_gamma": [float(v) for v in sol.worst_gamma],
        "worst_bracket_gamma": [float(v) for v in worst],
    }
