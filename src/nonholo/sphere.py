"""Momentum-direction systems on R^6 and their rank-4 bracket family.

A system is the flow

    dM/dt     = (M + k - S*gamma) x dH/dM + gamma x dH/dgamma
    dgamma/dt = gamma x dH/dM

driven by a Hamiltonian H(M, gamma) that is quadratic and non-degenerate in
M, a function S linear in M, and a constant gyrostatic momentum k.  Every
such flow conserves gamma^2, (M + k, gamma) and H.  A system's ``s_spec``,
of the one type GFParams(g, f, Phi, k) with g > 0 near the sphere, holds k
and S in its one form

    S = (1/g) (-dg/dgamma + f*gamma, M) + Phi/g

The flow equals (1/g) P grad H for the family's one bracket gf_bivector,

    P = g [[hat(M+k), hat(gamma)], [hat(gamma), 0]]
        - g S [[hat(gamma), 0], [0, 0]]

which satisfies the Jacobi identity, has Casimirs gamma^2 and (M+k, gamma),
and admits the invariant measure density rho = 1/g.  ``measure_residual(K,
x, rho)`` tests an explicit S-vector K (S = (K, M) + ...) against an
explicit density rho.

``rhs`` evaluates the flow from the generic data (the H-gradient and the
parameters); it is the reference.  The integrators step through a system's
``flow``, which is ``rhs`` unless the system supplies a closed-form kernel,
as the ball and Veselova models do.

States act over the last axis, as the fields do: ``s_value``, ``rhs``,
``integrals``, ``assemble_P``, ``conformal_residual`` and
``measure_residual`` take one state of shape (6,) or a stack of shape
(..., 6) and give per-state results of shape (...), (..., 6) or
(..., 6, 6); one state gives a float (or one vector or matrix).  A
system's Hamiltonian and its gradient act over the last axis of M and
gamma in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DomainError,
    ScalarField,
    VectorField3,
    any_point,
    hat,
    lift,
    pack,
    point_values,
    unpack,
)

Array = np.ndarray


def random_states(rng, n):
    """n states of shape (n, 6), each drawn as a direction (normalised) and
    then a momentum."""
    raw = rng.standard_normal((n, 6))
    g = raw[:, :3]
    # bitwise the one-vector norm; norm(axis=-1) is not
    return pack(raw[:, 3:], g / lift(np.sqrt(np.vecdot(g, g))))


# ---------------------------------------------------------------------------
# the bracket family's parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GFParams:
    """A member of the bracket family: the multiplier pair (g, f), the term
    Phi and the gyrostatic momentum k; requires g > 0 near the sphere."""

    g: ScalarField
    f: ScalarField
    phi: ScalarField | None = None
    k: Array = field(default_factory=lambda: np.zeros(3))


def k_from_gf(g: ScalarField, f: ScalarField, gamma) -> Array:
    """The S-vector of (g, f), K = (f*gamma - dg/dgamma) / g over the last
    axis of gamma: exactly the one-parameter family of solutions of the
    invariant-measure equation for density rho = 1/g."""
    gamma = np.asarray(gamma, float)
    gv = g(gamma)
    if any_point(gv <= 0.0):
        raise DomainError(f"g(gamma) = {np.min(gv):.3e} is not positive")
    return (lift(f(gamma)) * gamma - g.gradient(gamma)) / lift(gv)


@dataclass(frozen=True)
class SphereSystem:
    """Immutable specification of a flow on R^6(M, gamma).

    The Hamiltonian, its gradient and the extra integrals are analytic
    callables of (M, gamma) that act over the last axis: M and gamma of
    shape (..., 3) give values of shape (...), and ``grad_H`` gives
    (dH/dM, dH/dgamma) packed as the state is, shape (..., 6).  The tight
    residual tolerances downstream are not reachable with
    finite-difference gradients.  ``extra_integrals`` holds named first
    integrals beyond the three automatic ones, e.g. M^2 where it is
    conserved.  ``flow`` maps one state of shape (6,) to dx/dt; it defaults
    to the reference ``rhs`` and is what the integrators call.  ``g`` maps
    one gamma of shape (3,) to the conformal factor as a float; it defaults
    to its parameters' g and is what the time-rescaled run calls.
    """

    name: str
    hamiltonian: Callable[[Array, Array], Array]
    grad_H: Callable[[Array, Array], Array]
    s_spec: GFParams
    extra_integrals: tuple[tuple[str, Callable[[Array, Array], Array]], ...] = ()
    flow: Callable[[Array], Array] | None = field(default=None, repr=False, compare=False)
    g: Callable[[Array], float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.flow is None:
            object.__setattr__(self, "flow", lambda x: rhs(self, x))
        if self.g is None:
            object.__setattr__(self, "g", self.s_spec.g)


@dataclass(frozen=True)
class IntegralValues:
    """First integrals: floats at one state, arrays of shape (...) at a
    stack of states."""

    F1: float | Array              # gamma^2
    F2: float | Array              # (M + k, gamma)
    F3: float | Array              # H
    extras: dict[str, float | Array]


def _s_term(p: GFParams, M: Array, gamma: Array) -> Array:
    """S = (K, M) + Phi/g over the last axis, with K = k_from_gf(g, f)."""
    s = np.vecdot(k_from_gf(p.g, p.f, gamma), M)
    return s if p.phi is None else s + p.phi(gamma) / p.g(gamma)


def s_value(sys: SphereSystem, x):
    """S = (K, M) + Phi/g at states, with K = k_from_gf(g, f)."""
    M, gamma = unpack(x)
    return point_values(_s_term(sys.s_spec, M, gamma), x)


def rhs(sys: SphereSystem, x) -> Array:
    """Right-hand side of the equations of motion, from the generic data:
    the reference against which a closed-form ``flow`` is tested."""
    M, gamma = unpack(x)
    hm, hg = unpack(sys.grad_H(M, gamma))
    S = lift(s_value(sys, x))
    Mdot = np.cross(M + sys.s_spec.k - S * gamma, hm) + np.cross(gamma, hg)
    gdot = np.cross(gamma, hm)
    return pack(Mdot, gdot)


def integrals(sys: SphereSystem, x) -> IntegralValues:
    M, gamma = unpack(x)
    return IntegralValues(
        F1=point_values(np.vecdot(gamma, gamma), x),
        F2=point_values(np.vecdot(M + sys.s_spec.k, gamma), x),
        F3=point_values(sys.hamiltonian(M, gamma), x),
        extras={name: point_values(fn(M, gamma), x) for name, fn in sys.extra_integrals},
    )


def measure_residual(K: VectorField3, x, rho: ScalarField) -> Array:
    """The obstruction ((1/rho) drho/dgamma - K) x gamma, a 3-vector per
    state, for the S-vector K of S = (K, M) + ... and the density rho.

    Zero iff rho(gamma) dM dgamma is an invariant measure of the flow.
    """
    _, gamma = unpack(x)
    dlog_rho = rho.gradient(gamma) / lift(rho(gamma))
    return np.cross(dlog_rho - K(gamma), gamma)


# ---------------------------------------------------------------------------
# bivector assembly
# ---------------------------------------------------------------------------

def _pgf_matrix(M: Array, gamma: Array, g_val, S_val, k: Array) -> Array:
    """The 6x6 bracket matrices of states stacked over the last axis of M
    and gamma, shape (..., 6, 6), with g and S of shape (...)."""
    g_val, S_val = lift(g_val, 2), lift(S_val, 2)
    G = hat(gamma)
    P = np.zeros(G.shape[:-2] + (6, 6))
    P[..., :3, :3] = g_val * hat(M + k) - g_val * S_val * G
    P[..., :3, 3:] = g_val * G
    P[..., 3:, :3] = g_val * G
    return P


def e3_bivector(x) -> Array:
    """The standard e(3) Lie-Poisson bivector [[hat(M), hat(g)], [hat(g), 0]]
    at states of shape (..., 6)."""
    M, gamma = unpack(x)
    return _pgf_matrix(M, gamma, 1.0, 0.0, np.zeros(3))


def bivector_field(g: ScalarField, K: VectorField3) -> Callable[[Array], Array]:
    """Build x -> P(x), states (..., 6) to matrices (..., 6, 6), from g and
    an explicit S-vector K, S = (K, M), whatever the measure: how negative
    controls assemble deliberately broken (non-Jacobi) structures."""
    def P(x):
        M, gamma = unpack(x)
        return _pgf_matrix(M, gamma, g(gamma), np.vecdot(K(gamma), M), np.zeros(3))

    return P


def gf_bivector(p: GFParams) -> Callable[[Array], Array]:
    """The bracket field x -> P(x) of a member of the family, for states x
    of shape (..., 6) and matrices of shape (..., 6, 6)."""
    def P(x):
        M, gamma = unpack(x)
        return _pgf_matrix(M, gamma, p.g(gamma), _s_term(p, M, gamma), p.k)

    return P


def assemble_P(sys: SphereSystem, x) -> Array:
    """The bracket matrices of a system at states."""
    return gf_bivector(sys.s_spec)(x)


def conformal_residual(sys: SphereSystem, x):
    """Sup-norm of rhs(x) - (1/g) P(x) grad H(x) per state; zero for
    admissible systems."""
    M, gamma = unpack(x)
    gradH = np.asarray(sys.grad_H(M, gamma), float)
    bracket = (assemble_P(sys, x) @ gradH[..., None])[..., 0] / lift(sys.s_spec.g(gamma))
    return point_values(np.max(np.abs(rhs(sys, x) - bracket), axis=-1), x)

