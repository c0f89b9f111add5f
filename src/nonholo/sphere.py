"""Momentum-direction systems on R^6 and their rank-4 bracket family.

A system is the flow

    dM/dt     = (M + k - S*gamma) x dH/dM + gamma x dH/dgamma
    dgamma/dt = gamma x dH/dM

driven by a Hamiltonian H(M, gamma) that is quadratic and non-degenerate in
M, a function S linear in M, and a constant gyrostatic momentum k.  Every
such flow conserves gamma^2, (M + k, gamma) and H.  When S comes in the
reduced form

    S = (1/g) (-dg/dgamma + f*gamma, M) + Phi/g

the flow equals (1/g) P grad H for the skew 6x6 field

    P = g [[hat(M+k), hat(gamma)], [hat(gamma), 0]]
        - g S [[hat(gamma), 0], [0, 0]]

which satisfies the Jacobi identity, has Casimirs gamma^2 and (M+k, gamma),
and admits the invariant measure density rho = 1/g.

``rhs`` evaluates the flow from the generic data (the H-gradients and the
S-spec); it is the reference.  The integrators step through a system's
``flow``, which is ``rhs`` unless the system supplies a closed-form kernel,
as the ball and Veselova models do.

States act over the last axis, as the fields do: ``s_value``, ``rhs``,
``integrals``, ``assemble_P``, ``conformal_residual`` and
``measure_residual`` take one state of shape (6,) or a stack of shape
(..., 6) and give per-state results of shape (...), (..., 6) or
(..., 6, 6); one state gives a float (or one vector or matrix).  A
system's Hamiltonian and its gradients act over the last axis of M and
gamma in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    ConfigError,
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
# S-function specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedS:
    """S given through (g, f, Phi); requires g > 0 near the sphere."""

    g: ScalarField
    f: ScalarField
    phi: ScalarField | None = None


@dataclass(frozen=True)
class DirectS:
    """S given directly as (K(gamma), M) + offset(gamma)."""

    K: VectorField3
    offset: ScalarField | None = None


SFunctionSpec = ReducedS | DirectS


def k_from_gf(g: ScalarField, f: ScalarField, gamma) -> Array:
    """The S-vector of a reduced spec: K = (f*gamma - dg/dgamma) / g, over
    the last axis of gamma.

    This is exactly the one-parameter family of solutions of the
    invariant-measure equation for density rho = 1/g.
    """
    gamma = np.asarray(gamma, float)
    gv = g(gamma)
    if any_point(gv <= 0.0):
        raise DomainError(f"g(gamma) = {np.min(gv):.3e} is not positive")
    return (lift(f(gamma)) * gamma - g.gradient(gamma)) / lift(gv)


@dataclass(frozen=True)
class SphereSystem:
    """Immutable specification of a flow on R^6(M, gamma).

    The Hamiltonian, its gradients and the extra integrals are analytic
    callables of (M, gamma) that act over the last axis: M and gamma of
    shape (..., 3) give values of shape (...) or gradients of shape
    (..., 3).  The tight residual tolerances downstream are not reachable
    with finite-difference gradients.  ``extra_integrals`` holds named first
    integrals beyond the three automatic ones, e.g. M^2 where it is
    conserved.  ``flow`` maps one state of shape (6,) to dx/dt; it defaults
    to the reference ``rhs`` and is what the integrators call.  ``g`` maps
    one gamma of shape (3,) to the conformal factor as a float; it defaults
    to the reduced spec's g and is what the time-rescaled run calls.
    """

    name: str
    hamiltonian: Callable[[Array, Array], Array]
    dH_dM: Callable[[Array, Array], Array]
    dH_dgamma: Callable[[Array, Array], Array]
    s_spec: SFunctionSpec
    k: Array = field(default_factory=lambda: np.zeros(3))
    extra_integrals: tuple[tuple[str, Callable[[Array, Array], Array]], ...] = ()
    flow: Callable[[Array], Array] | None = field(default=None, repr=False, compare=False)
    g: Callable[[Array], float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.flow is None:
            object.__setattr__(self, "flow", lambda x: rhs(self, x))
        if self.g is None and isinstance(self.s_spec, ReducedS):
            object.__setattr__(self, "g", self.s_spec.g)


@dataclass(frozen=True)
class IntegralValues:
    """First integrals: floats at one state, arrays of shape (...) at a
    stack of states."""

    F1: float | Array              # gamma^2
    F2: float | Array              # (M + k, gamma)
    F3: float | Array              # H
    extras: dict[str, float | Array]


def s_value(sys: SphereSystem, x):
    """S at states, for either spec form."""
    M, gamma = unpack(x)
    spec = sys.s_spec
    if isinstance(spec, DirectS):
        s = np.vecdot(spec.K(gamma), M)
        if spec.offset is not None:
            s = s + spec.offset(gamma)
    else:
        s = np.vecdot(k_from_gf(spec.g, spec.f, gamma), M)
        if spec.phi is not None:
            s = s + spec.phi(gamma) / spec.g(gamma)
    return point_values(s, x)


def rhs(sys: SphereSystem, x) -> Array:
    """Right-hand side of the equations of motion, from the generic data:
    the reference against which a closed-form ``flow`` is tested."""
    M, gamma = unpack(x)
    hm = np.asarray(sys.dH_dM(M, gamma), float)
    hg = np.asarray(sys.dH_dgamma(M, gamma), float)
    S = lift(s_value(sys, x))
    Mdot = np.cross(M + sys.k - S * gamma, hm) + np.cross(gamma, hg)
    gdot = np.cross(gamma, hm)
    return pack(Mdot, gdot)


def integrals(sys: SphereSystem, x) -> IntegralValues:
    M, gamma = unpack(x)
    return IntegralValues(
        F1=point_values(np.vecdot(gamma, gamma), x),
        F2=point_values(np.vecdot(M + sys.k, gamma), x),
        F3=point_values(sys.hamiltonian(M, gamma), x),
        extras={name: point_values(fn(M, gamma), x) for name, fn in sys.extra_integrals},
    )


def measure_residual(sys_or_spec, x, rho: ScalarField | None = None) -> Array:
    """The obstruction ((1/rho) drho/dgamma - K) x gamma, a 3-vector per
    state.

    Zero iff rho(gamma) dM dgamma is an invariant measure of the flow.  For
    a reduced spec the density defaults to rho = 1/g; a direct spec needs an
    explicit density.
    """
    spec = sys_or_spec.s_spec if isinstance(sys_or_spec, SphereSystem) else sys_or_spec
    _, gamma = unpack(x)
    if isinstance(spec, ReducedS):
        if rho is None:
            rho = spec.g.reciprocal()
        K = k_from_gf(spec.g, spec.f, gamma)
    else:
        if rho is None:
            raise ConfigError("a direct S-spec carries no density; pass rho explicitly")
        K = spec.K(gamma)
    dlog_rho = rho.gradient(gamma) / lift(rho(gamma))
    return np.cross(dlog_rho - K, gamma)


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


def bivector_field(g: ScalarField, K: VectorField3 | None = None,
                   f: ScalarField | None = None,
                   phi: ScalarField | None = None,
                   k: Array | None = None) -> Callable[[Array], Array]:
    """Build x -> P(x) from either (g, f[, phi]) or (g, K[, phi as offset]),
    for states x of shape (..., 6) and matrices of shape (..., 6, 6).

    With K supplied the S-term is (K, M) regardless of any measure
    compatibility, which is how deliberately broken (non-Jacobi) structures
    are assembled for negative controls.
    """
    if (K is None) == (f is None):
        raise ConfigError("pass exactly one of K or f")
    kvec = np.zeros(3) if k is None else np.asarray(k, float)

    def P(x):
        M, gamma = unpack(x)
        gv = g(gamma)
        Kv = k_from_gf(g, f, gamma) if K is None else K(gamma)
        S = np.vecdot(Kv, M)
        if phi is not None:
            S = S + phi(gamma) / gv
        return _pgf_matrix(M, gamma, gv, S, kvec)

    return P


def assemble_P(sys: SphereSystem, x) -> Array:
    """The bracket matrices of a reduced-spec system at states."""
    spec = sys.s_spec
    if not isinstance(spec, ReducedS):
        raise ConfigError("bracket assembly needs a reduced S-spec (g, f, Phi)")
    return bivector_field(spec.g, f=spec.f, phi=spec.phi, k=sys.k)(x)


def conformal_residual(sys: SphereSystem, x):
    """Sup-norm of rhs(x) - (1/g) P(x) grad H(x) per state; zero for
    admissible systems."""
    spec = sys.s_spec
    if not isinstance(spec, ReducedS):
        raise ConfigError("conformal residual needs a reduced S-spec")
    M, gamma = unpack(x)
    gradH = pack(sys.dH_dM(M, gamma), sys.dH_dgamma(M, gamma))
    bracket = (assemble_P(sys, x) @ gradH[..., None])[..., 0] / lift(spec.g(gamma))
    return point_values(np.max(np.abs(rhs(sys, x) - bracket), axis=-1), x)


def gradient_consistency(sys: SphereSystem, x) -> float:
    """Worst deviation of the analytic H-gradients from central differences."""
    from .core import fd_gradient

    M, gamma = unpack(x)
    gm = fd_gradient(lambda m: sys.hamiltonian(m, gamma), M)
    gg = fd_gradient(lambda g: sys.hamiltonian(M, g), gamma)
    err_m = np.max(np.abs(gm - sys.dH_dM(M, gamma)))
    err_g = np.max(np.abs(gg - sys.dH_dgamma(M, gamma)))
    return float(max(err_m, err_g))
