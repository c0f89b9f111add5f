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
``flow`` (and the time-rescaled run through its ``rescaled_flow``), which
is ``rhs`` unless the system supplies a closed-form kernel, as the ball and
Veselova models do.

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


def k_from_gf(g: ScalarField, f: ScalarField, gamma, g_val=None) -> Array:
    """The S-vector of (g, f), K = (f*gamma - dg/dgamma) / g over the last
    axis of gamma: exactly the one-parameter family of solutions of the
    invariant-measure equation for density rho = 1/g.  ``g_val`` is g at
    gamma, where the caller has it already."""
    gamma = np.asarray(gamma, float)
    gv = g(gamma) if g_val is None else g_val
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
    conserved.  ``flow`` maps states of shape (..., 6) to dx/dt; it defaults
    to the reference ``rhs`` and is what the integrators call.
    ``rescaled_flow`` maps states of shape (..., 6) to the time-rescaled
    field (dx/dtau, dt/dtau) = (g flow, g), shape (..., 7), that the
    time-rescaled run calls; it defaults to ``flow`` and its parameters'
    g.
    """

    name: str
    hamiltonian: Callable[[Array, Array], Array]
    grad_H: Callable[[Array, Array], Array]
    s_spec: GFParams
    extra_integrals: tuple[tuple[str, Callable[[Array, Array], Array]], ...] = ()
    flow: Callable[[Array], Array] | None = field(default=None, repr=False, compare=False)
    rescaled_flow: Callable[[Array], Array] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.flow is None:
            object.__setattr__(self, "flow", lambda x: rhs(self, x))
        if self.rescaled_flow is None:
            object.__setattr__(self, "rescaled_flow", lambda x: _rescaled(self, x))


@dataclass(frozen=True)
class IntegralValues:
    """First integrals: floats at one state, arrays of shape (...) at a
    stack of states."""

    F1: float | Array              # gamma^2
    F2: float | Array              # (M + k, gamma)
    F3: float | Array              # H
    extras: dict[str, float | Array]


def _s_term(p: GFParams, M: Array, gamma: Array, g_val=None) -> Array:
    """S = (K, M) + Phi/g over the last axis, with K = k_from_gf(g, f);
    ``g_val`` is g at gamma, where the caller has it already."""
    g_val = p.g(gamma) if g_val is None else g_val
    s = np.vecdot(k_from_gf(p.g, p.f, gamma, g_val), M)
    return s if p.phi is None else s + p.phi(gamma) / g_val


def s_value(sys: SphereSystem, x):
    """S = (K, M) + Phi/g at states, with K = k_from_gf(g, f)."""
    M, gamma = unpack(x)
    return point_values(_s_term(sys.s_spec, M, gamma), x)


def rhs(sys: SphereSystem, x) -> Array:
    """Right-hand side of the equations of motion, from the generic data:
    the reference against which a closed-form ``flow`` is tested."""
    M, gamma = unpack(x)
    return _cross_form(M, gamma, sys.grad_H(M, gamma), s_value(sys, x), sys.s_spec.k)


def _cross_form(M: Array, gamma: Array, grad_H, S, k: Array) -> Array:
    """The flow (M + k - S gamma) x dH/dM + gamma x dH/dgamma, gamma x dH/dM
    from grad H packed as the state is and S of shape (...)."""
    hm, hg = unpack(grad_H)
    Mdot = np.cross(M + k - lift(S) * gamma, hm) + np.cross(gamma, hg)
    gdot = np.cross(gamma, hm)
    return pack(Mdot, gdot)


def _rescaled(sys: SphereSystem, x) -> Array:
    """(g flow, g) at states, from the system's flow and its parameters' g."""
    g = sys.s_spec.g(unpack(x)[1])
    return np.concatenate([sys.flow(x) * lift(g), np.asarray(g, float)[..., None]], axis=-1)


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

def _pgf_select() -> Array:
    """The signed selection matrix (6, 36) that takes (a, g gamma) to a
    bracket matrix, flattened: hat(a) upper left, with a = g (M + k) -
    g S gamma, and hat(g gamma) in the two off-diagonal blocks.  Each entry
    is +-1 times one value plus zeros, which is exact, as in ``hat``."""
    select = np.zeros((6, 6, 6))
    select[:3, :3, :3] = select[3:, :3, 3:] = select[3:, 3:, :3] = hat(np.eye(3))   # [j] = hat(e_j)
    return select.reshape(6, 36)


_PGF_SELECT = _pgf_select()


def _pgf_matrix(M: Array, gamma: Array, g_val, S_val, k: Array) -> Array:
    """The 6x6 bracket matrices of states stacked over the last axis of M
    and gamma, shape (..., 6, 6), with g and S of shape (...): the 6 values
    (a, g gamma) per state times ``_PGF_SELECT``."""
    g_val = lift(g_val)
    V = np.empty(np.shape(gamma)[:-1] + (6,))
    V[..., :3] = g_val * (M + k) - g_val * lift(S_val) * gamma
    V[..., 3:] = g_val * gamma
    return (V @ _PGF_SELECT).reshape(V.shape[:-1] + (6, 6))


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
        g = p.g(gamma)
        return _pgf_matrix(M, gamma, g, _s_term(p, M, gamma, g), p.k)

    return P


def assemble_P(sys: SphereSystem, x) -> Array:
    """The bracket matrices of a system at states."""
    return gf_bivector(sys.s_spec)(x)


def conformal_residual(sys: SphereSystem, x):
    """Sup-norm of rhs(x) - (1/g) P(x) grad H(x) per state; zero for
    admissible systems.  The two sides share one grad H, one g and one S."""
    p = sys.s_spec
    M, gamma = unpack(x)
    gradH = np.asarray(sys.grad_H(M, gamma), float)
    g = p.g(gamma)
    S = _s_term(p, M, gamma, g)
    bracket = (_pgf_matrix(M, gamma, g, S, p.k) @ gradH[..., None])[..., 0] / lift(g)
    return point_values(np.max(np.abs(_cross_form(M, gamma, gradH, S, p.k) - bracket), axis=-1), x)

