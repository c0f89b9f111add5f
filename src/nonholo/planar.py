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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DomainError, ScalarField, TOLS, vector

Array = np.ndarray


@dataclass(frozen=True)
class PlanarLagrangian:
    """L = (1/2) qdot^T G(q) qdot - V(q) with coupling S = a.qdot + b."""

    G: Callable[[Array], Array]           # 2x2 symmetric positive-definite
    V: ScalarField
    a1: Callable[[Array], float]
    a2: Callable[[Array], float]
    b: Callable[[Array], float]


@dataclass(frozen=True)
class PlanarSystem:
    H: Callable[[Array, Array], float]
    dH_dq: Callable[[Array, Array], Array]
    dH_dP: Callable[[Array, Array], Array]
    A1: Callable[[Array], float]
    A2: Callable[[Array], float]
    B: Callable[[Array], float]
    N: ScalarField                        # candidate invariant-measure density


def _check_spd(G: Array, q: Array) -> None:
    if G[0, 0] <= 0.0 or np.linalg.det(G) <= 0.0:
        raise DomainError(f"kinetic matrix is not positive-definite at q = {q}")


def legendre(lag: PlanarLagrangian, q, qdot) -> tuple[Array, float]:
    """Momenta P = G(q) qdot and the energy H = (1/2) P^T G^{-1} P + V."""
    q = np.asarray(q, float)
    qdot = np.asarray(qdot, float)
    G = np.asarray(lag.G(q), float)
    _check_spd(G, q)
    P = G @ qdot
    H = 0.5 * qdot @ G @ qdot + lag.V(q)
    return P, float(H)


def from_lagrangian(lag: PlanarLagrangian, N: ScalarField,
                    usual_chaplygin: bool = False) -> PlanarSystem:
    """Momentum-form system of a quadratic-kinetic Lagrangian.

    The velocity coefficients (a1, a2) turn into momentum coefficients via
    qdot = G^{-1} P; ``usual_chaplygin`` zeroes the velocity-free term B.
    H-partials in q fall back to finite differences of the assembled H, so
    an analytic G keeps them at FD accuracy only.
    """

    def Ginv(q):
        G = np.asarray(lag.G(q), float)
        _check_spd(G, q)
        return np.linalg.inv(G)

    def H(q, P):
        return float(0.5 * P @ Ginv(q) @ P + lag.V(q))

    def dH_dP(q, P):
        return Ginv(q) @ P

    def dH_dq(q, P):
        from .core import fd_gradient
        return fd_gradient(lambda qq: H(qq, P), q)

    def mom_coeffs(q):
        a = np.array([lag.a1(q), lag.a2(q)])
        return Ginv(q) @ a

    zero = (lambda q: 0.0)
    return PlanarSystem(
        H=H, dH_dq=dH_dq, dH_dP=dH_dP,
        A1=lambda q: float(mom_coeffs(q)[0]),
        A2=lambda q: float(mom_coeffs(q)[1]),
        B=zero if usual_chaplygin else (lambda q: float(lag.b(q))),
        N=N,
    )


def planar_rhs(sys: PlanarSystem, state) -> Array:
    """(qdot1, qdot2, Pdot1, Pdot2) at a state (q1, q2, P1, P2)."""
    z = np.asarray(state, float)
    q, P = z[:2], z[2:]
    hp = np.asarray(sys.dH_dP(q, P), float)
    hq = np.asarray(sys.dH_dq(q, P), float)
    S = sys.A1(q) * P[0] + sys.A2(q) * P[1] + sys.B(q)
    return np.array([hp[0], hp[1], -hq[0] + hp[1] * S, -hq[1] - hp[0] * S])


def measure_residual(sys: PlanarSystem, q) -> Array:
    """(r1, r2) = ((1/N) dN/dq1 - A2, (1/N) dN/dq2 + A1); zero iff N works."""
    q = np.asarray(q, float)
    n = sys.N(q)
    if n <= 0.0:
        raise DomainError(f"measure density N(q) = {n:.3e} is not positive")
    dn = sys.N.gradient(q) / n
    return np.array([dn[0] - sys.A2(q), dn[1] + sys.A1(q)])


def conformal_bracket(sys: PlanarSystem) -> Callable[[Array], Array]:
    """The 4x4 bracket matrix field in (q1, q2, p1, p2) coordinates, for
    states of shape (..., 4) and matrices of shape (..., 4, 4).  N and B
    must act over the last axis of q."""
    canonical = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])

    def P4(z):
        q = np.asarray(z, float)[..., :2]
        P = np.broadcast_to(canonical, q.shape[:-1] + (4, 4)).copy()
        P[..., 2, 3] = sys.N(q) * sys.B(q)
        P[..., 3, 2] = -P[..., 2, 3]
        return P

    return P4


def _hbar_partials(sys: PlanarSystem, q: Array, p: Array) -> tuple[Array, Array]:
    """Partials of Hbar(q, p) = H(q, p / N(q)) via the chain rule."""
    n = sys.N(q)
    P = p / n
    hp = np.asarray(sys.dH_dP(q, P), float)
    hq = np.asarray(sys.dH_dq(q, P), float)
    dn = sys.N.gradient(q)
    dHbar_dp = hp / n
    dHbar_dq = hq - (dn / n) * float(P @ hp)
    return dHbar_dq, dHbar_dp


def _conformal_residual(sys: PlanarSystem, state) -> float:
    z = np.asarray(state, float)
    q, P = z[:2], z[2:]
    n = sys.N(q)
    p = n * P
    dn = sys.N.gradient(q)
    vel = planar_rhs(sys, z)
    qdot, Pdot = vel[:2], vel[2:]
    pdot = n * Pdot + float(dn @ qdot) * P
    hq, hp = _hbar_partials(sys, q, p)
    nb = n * sys.B(q)
    X = np.array([hp[0], hp[1], -hq[0] + nb * hp[1], -hq[1] - nb * hp[0]])
    lhs = np.array([qdot[0], qdot[1], pdot[0], pdot[1]])
    return float(np.max(np.abs(lhs - n * X)))


def to_conformal(sys: PlanarSystem, state,
                 gate: float = TOLS.measure_gate) -> tuple[Array, float, float]:
    """Rescaled momenta, the {p1, p2} bracket entry, and the representation
    residual at a state.

    Refuses when the measure conditions fail: the rescaling only produces a
    Hamiltonian field (up to the factor N) on an admissible system.
    """
    z = np.asarray(state, float)
    q, P = z[:2], z[2:]
    r = measure_residual(sys, q)
    if np.max(np.abs(r)) > gate:
        raise DomainError(
            f"measure conditions violated at q = {q}: (r1, r2) = ({r[0]:.3e}, {r[1]:.3e})"
        )
    n = sys.N(q)
    return n * P, float(n * sys.B(q)), _conformal_residual(sys, z)


def energy_fn(sys: PlanarSystem) -> Callable[[Array], float]:
    return lambda z: float(sys.H(np.asarray(z, float)[:2], np.asarray(z, float)[2:]))


def demo_system(B: Callable[[Array], float] | None = None) -> PlanarSystem:
    """Admissible demo: N = exp(q1), A2 = 1, A1 = 0, unit kinetic matrix,
    bounded potential, and an arbitrary (default cosine) B."""
    V = ScalarField(lambda q: np.cos(q[..., 0]) + np.sin(q[..., 1]),
                    grad=lambda q: vector(-np.sin(q[..., 0]), np.cos(q[..., 1])))
    return PlanarSystem(
        H=lambda q, P: float(0.5 * P @ P + V(q)),
        dH_dq=lambda q, P: V.gradient(q),
        dH_dP=lambda q, P: np.asarray(P, float),
        A1=lambda q: 0.0,
        A2=lambda q: 1.0,
        B=B if B is not None else (lambda q: 0.5 * np.cos(q[..., 1])),
        N=ScalarField(lambda q: np.exp(q[..., 0]),
                      grad=lambda q: vector(np.exp(q[..., 0]), 0.0)),
    )
