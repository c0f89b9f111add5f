"""Two-degree-of-freedom systems with velocity-affine gyroscopic coupling.

In momentum form the equations of motion are

    dq_i/dt = dH/dP_i
    dP_1/dt = -dH/dq_1 + (dH/dP_2) S
    dP_2/dt = -dH/dq_2 - (dH/dP_1) S,      S = A1 P1 + A2 P2 + B,

which conserve the energy H for any coefficients.  If a density N(q) > 0
satisfies

    (1/N) dN/dq1 = A2,        (1/N) dN/dq2 = -A1,

the flow preserves the volume N dq dP, and after the momentum rescaling
p = N(q) P the field becomes N(q) times the Hamiltonian field of
H(q, p/N) for the bracket

    {q_i, p_j} = delta_ij,   {q1, q2} = 0,   {p1, p2} = N(q) B(q).

Everything acts over the last axis, as in the sphere layer: a system's
callables take q and P of shape (..., 2), the functions here states of
shape (..., 4), and one state of shape (4,) gives floats.  The integrator
calls ``PlanarSystem.flow``, which defaults to the reference ``planar_rhs``;
the demo system supplies a closed-form kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import MEASURE_GATE, DomainError, ScalarField, fd_gradient, lift, point_values, vector

Array = np.ndarray


@dataclass(frozen=True)
class PlanarLagrangian:
    """L = (1/2) qdot^T G(q) qdot - V(q) with coupling S = a.qdot + b."""

    G: Callable[[Array], Array]           # (..., 2, 2) symmetric positive-definite
    V: ScalarField
    a1: Callable[[Array], Array]
    a2: Callable[[Array], Array]
    b: Callable[[Array], Array]


@dataclass(frozen=True)
class PlanarSystem:
    H: Callable[[Array, Array], Array]
    grad_H: Callable[[Array, Array], Array]   # (dH/dq, dH/dP), shape (..., 4)
    A: Callable[[Array], Array]               # (A1, A2), shape (..., 2)
    B: Callable[[Array], Array]
    N: ScalarField                        # candidate invariant-measure density
    flow: Callable[[Array], Array] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.flow is None:
            object.__setattr__(self, "flow", lambda z: planar_rhs(self, z))


def _first(mask, q: Array) -> Array:
    """The first point of a stack q of shape (..., 2) where mask holds."""
    return np.reshape(q, (-1, 2))[np.argmax(np.reshape(mask, -1))]


def _kinetic_matrix(lag: PlanarLagrangian, q: Array) -> Array:
    G = np.asarray(lag.G(q), float)
    bad = (G[..., 0, 0] <= 0.0) | (np.linalg.det(G) <= 0.0)
    if np.any(bad):
        raise DomainError(f"kinetic matrix is not positive-definite at q = {_first(bad, q)}")
    return G


def legendre(lag: PlanarLagrangian, q, qdot) -> tuple[Array, Array]:
    """Momenta P = G(q) qdot and the energy H = (1/2) P^T G^{-1} P + V."""
    q = np.asarray(q, float)
    qdot = np.asarray(qdot, float)
    P = np.vecdot(_kinetic_matrix(lag, q), qdot[..., None, :])
    return P, point_values(0.5 * np.vecdot(qdot, P) + lag.V(q), q)


def from_lagrangian(lag: PlanarLagrangian, N: ScalarField) -> PlanarSystem:
    """Momentum-form system of a quadratic-kinetic Lagrangian.

    The velocity coefficients (a1, a2) turn into momentum coefficients via
    qdot = G^{-1} P; the velocity-free term B is b, zero for usual Chaplygin.
    H-partials in q fall back to finite differences of the assembled H, so
    an analytic G keeps them at FD accuracy only.
    """

    def velocity(q, P):
        return np.vecdot(np.linalg.inv(_kinetic_matrix(lag, q)), np.asarray(P, float)[..., None, :])

    def H(q, P):
        return point_values(0.5 * np.vecdot(P, velocity(q, P)) + lag.V(q), q)

    return PlanarSystem(
        H=H,
        grad_H=lambda q, P: np.concatenate([fd_gradient(lambda qq: H(qq, P), q), velocity(q, P)], axis=-1),
        A=lambda q: velocity(q, vector(lag.a1(q), lag.a2(q))),
        B=lag.b,
        N=N,
    )


def planar_rhs(sys: PlanarSystem, state) -> Array:
    """(qdot1, qdot2, Pdot1, Pdot2) at states (q1, q2, P1, P2)."""
    z = np.asarray(state, float)
    q, P = z[..., :2], z[..., 2:]
    grad = np.asarray(sys.grad_H(q, P), float)
    hq, hp = grad[..., :2], grad[..., 2:]
    a = np.asarray(sys.A(q), float)
    S = a[..., 0] * P[..., 0] + a[..., 1] * P[..., 1] + sys.B(q)
    return vector(hp[..., 0], hp[..., 1], -hq[..., 0] + hp[..., 1] * S, -hq[..., 1] - hp[..., 0] * S)


def measure_residual(sys: PlanarSystem, q) -> Array:
    """(r1, r2) = ((1/N) dN/dq1 - A2, (1/N) dN/dq2 + A1); zero iff N works."""
    q = np.asarray(q, float)
    n = sys.N(q)
    if np.any(n <= 0.0):
        raise DomainError(f"measure density N(q) = {np.min(n):.3e} is not positive "
                          f"at q = {_first(n <= 0.0, q)}")
    dn = sys.N.gradient(q) / lift(n)
    a = np.asarray(sys.A(q), float)
    return vector(dn[..., 0] - a[..., 1], dn[..., 1] + a[..., 0])


def conformal_bracket(sys: PlanarSystem) -> Callable[[Array], Array]:
    """The 4x4 bracket matrix field in (q1, q2, p1, p2) coordinates, for
    states of shape (..., 4) and matrices of shape (..., 4, 4)."""
    canonical = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])

    def P4(z):
        q = np.asarray(z, float)[..., :2]
        P = np.broadcast_to(canonical, q.shape[:-1] + (4, 4)).copy()
        P[..., 2, 3] = sys.N(q) * sys.B(q)
        P[..., 3, 2] = -P[..., 2, 3]
        return P

    return P4


def _conformal_residual(sys: PlanarSystem, state) -> Array:
    """Sup norm of the rescaled flow minus N X_Hbar, one value per state.

    Hbar(q, p) = H(q, p / N(q)) has its partials by the chain rule, at the
    momenta P = p / N of the rescaled p = N P.
    """
    z = np.asarray(state, float)
    q, P = z[..., :2], z[..., 2:]
    n = sys.N(q)
    nv = lift(n)
    dn = sys.N.gradient(q)
    vel = planar_rhs(sys, z)
    qdot, Pdot = vel[..., :2], vel[..., 2:]
    pdot = nv * Pdot + lift(np.vecdot(dn, qdot)) * P
    Pn = nv * P / nv
    grad = np.asarray(sys.grad_H(q, Pn), float)
    hp = grad[..., 2:]
    hq = grad[..., :2] - (dn / nv) * lift(np.vecdot(Pn, hp))
    hp = hp / nv
    nb = n * sys.B(q)
    X = vector(hp[..., 0], hp[..., 1], -hq[..., 0] + nb * hp[..., 1], -hq[..., 1] - nb * hp[..., 0])
    lhs = np.concatenate([qdot, pdot], axis=-1)
    return point_values(np.max(np.abs(lhs - nv * X), axis=-1), z)


def to_conformal(sys: PlanarSystem, state) -> tuple[Array, Array, Array]:
    """Rescaled momenta, the {p1, p2} bracket entry, and the representation
    residual at states of shape (..., 4).

    Refuses when the measure conditions fail at any state, naming the q of
    the largest violation: the rescaling only produces a Hamiltonian field
    (up to the factor N) on an admissible system.
    """
    z = np.asarray(state, float)
    q, P = z[..., :2], z[..., 2:]
    r = measure_residual(sys, q)
    worst = np.max(np.abs(r), axis=-1)
    if np.any(worst > MEASURE_GATE):
        at = worst == np.max(worst)
        r1, r2 = _first(at, r)
        raise DomainError(f"measure conditions violated at q = {_first(at, q)}: "
                          f"(r1, r2) = ({r1:.3e}, {r2:.3e})")
    n = sys.N(q)
    return lift(n) * P, point_values(n * sys.B(q), q), _conformal_residual(sys, z)


def energy_fn(sys: PlanarSystem) -> Callable[[Array], Array]:
    """z -> H at states of shape (..., 4); a float for one state."""
    return lambda z: point_values(sys.H(np.asarray(z, float)[..., :2], np.asarray(z, float)[..., 2:]), z)


def _demo_flow(z) -> Array:
    """The demo's velocity at one state on Python floats: the float
    operations of ``planar_rhs`` in the same order, so they agree bitwise."""
    q1, q2, P1, P2 = np.asarray(z, float).tolist()
    S = 0.0 * P1 + 1.0 * P2 + 0.5 * math.cos(q2)
    return np.array([P1, P2, math.sin(q1) + P2 * S, -math.cos(q2) - P1 * S])


def demo_system() -> PlanarSystem:
    """Admissible demo: N = exp(q1), (A1, A2) = (0, 1), unit kinetic matrix,
    bounded potential and B = cos(q2) / 2, with its closed-form flow."""
    V = ScalarField(lambda q: np.cos(q[..., 0]) + np.sin(q[..., 1]),
                    grad=lambda q: vector(-np.sin(q[..., 0]), np.cos(q[..., 1])))
    return PlanarSystem(
        H=lambda q, P: 0.5 * np.vecdot(P, P) + V(q),
        grad_H=lambda q, P: np.concatenate([V.gradient(q), np.asarray(P, float)], axis=-1),
        A=lambda q: (0.0, 1.0),
        B=lambda q: 0.5 * np.cos(q[..., 1]),
        N=ScalarField(lambda q: np.exp(q[..., 0]),
                      grad=lambda q: vector(np.exp(q[..., 0]), 0.0)),
        flow=_demo_flow,
    )
