"""Concrete systems: the rolling ball and the constrained body.

Both models are stated with a diagonal positive matrix (stored as its
diagonal), an optional potential U(gamma), and an optional gyrostatic
momentum k.  With U = 0 the plain ball conserves M^2 and the gyrostatic
Veselova system conserves (M + k)^2 on top of the three automatic
integrals.

Ball (rolling without slipping on a plane), with u = 1/D - (gamma, A gamma):

    H = (1/2) [ (A M, M) + (A M, gamma)^2 / u ] + U
    S = (A M, gamma) / u,   g = sqrt(u),  f = 0,  Phi = 0
    M = A^{-1} omega - D (omega, gamma) gamma,   omega = A (M + S gamma)

For the gyrostatic ball the Hamiltonian, S, the momentum maps and the
measure data are all kept k-independent: the gyrostatic momentum enters
only through the flow and the (M, M) block of the bracket.

Veselova (body with a fixed point, (omega, gamma) constrained), with
G = (gamma, Ahat gamma) and w = ((Ahat - E) M - k, gamma):

    H = (1/2) [ (Ahat M, M) - w^2 / G ] + U
    S = -w / G,   g = sqrt(G),  f = 1/g,  Phi = (k, gamma) / g
    M = Ahat^{-1} omega - ((Ahat^{-1} - E) omega + k, gamma) gamma
    omega = Ahat (M + S gamma),   with (M + k, gamma) = (omega, gamma)

The Veselova sign convention is pinned jointly by the invariant-measure
equation for rho = 1/g, the ball-Veselova duality identity, and
conservation of (M + k)^2; see the tests.

H, S and the H-gradients act over the last axis of M and gamma, so that
the sphere layer evaluates a stack of states in one call.  Each model
system also carries a closed-form ``flow`` built once from its parameters:
S and the H-gradients above, and the cross products of the sphere flow,
written out by components on Python floats for one state.  The generic
``sphere.rhs`` stays the reference it is tested against.  Each also carries
the conformal factor g of one gamma, from the same sums as its flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DomainError, ScalarField, VectorField3, lift
from .sphere import ReducedS, SphereSystem

Array = np.ndarray

_AXES = "xyz"


def _diag3(value, name: str) -> Array:
    a = np.asarray(value, float)
    if a.shape != (3,):
        raise DomainError(f"{name} must be the three diagonal entries, got shape {a.shape}")
    if not np.all(a > 0.0):
        i = int(np.argmin(a))
        raise DomainError(f"{name}[{i}] ({_AXES[i]}-axis) must be positive, got {a[i]}")
    return a


# ---------------------------------------------------------------------------
# potential catalogue
# ---------------------------------------------------------------------------

def linear_potential(r: Sequence[float]) -> ScalarField:
    """U(gamma) = (r, gamma)."""
    r = np.asarray(r, float)
    return ScalarField(lambda g: np.vecdot(g, r), grad=lambda g: np.broadcast_to(r, g.shape))


def quadratic_potential(c_diag: Sequence[float]) -> ScalarField:
    """U(gamma) = (gamma, C gamma) with diagonal C."""
    c = np.asarray(c_diag, float)
    return ScalarField(lambda g: np.vecdot(g, c * g), grad=lambda g: 2.0 * c * g)


# ---------------------------------------------------------------------------
# closed-form flows
# ---------------------------------------------------------------------------

def _closed_form_flow(k: Array, U: ScalarField | None, parts):
    """x -> dx/dt of the sphere flow for one state of shape (6,).

    ``parts(M1, M2, M3, g1, g2, g3)`` gives S, dH/dM and dH/dgamma (the
    latter without the potential) as Python floats; the flow adds
    grad U and forms

        dM/dt = (M + k - S gamma) x dH/dM + gamma x dH/dgamma,
        dgamma/dt = gamma x dH/dM

    by components, with no per-call array arithmetic.
    """
    k1, k2, k3 = np.asarray(k, float).tolist()

    def flow(x):
        x = np.asarray(x, float)
        M1, M2, M3, g1, g2, g3 = x.tolist()
        S, (h1, h2, h3), (q1, q2, q3) = parts(M1, M2, M3, g1, g2, g3)
        if U is not None:
            u1, u2, u3 = U.gradient(x[3:]).tolist()
            q1, q2, q3 = q1 + u1, q2 + u2, q3 + u3
        p1, p2, p3 = M1 + k1 - S * g1, M2 + k2 - S * g2, M3 + k3 - S * g3
        return np.array([
            (p2 * h3 - p3 * h2) + (g2 * q3 - g3 * q2),
            (p3 * h1 - p1 * h3) + (g3 * q1 - g1 * q3),
            (p1 * h2 - p2 * h1) + (g1 * q2 - g2 * q1),
            g2 * h3 - g3 * h2,
            g3 * h1 - g1 * h3,
            g1 * h2 - g2 * h1,
        ])

    return flow


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallParams:
    A: Sequence[float]                    # diagonal of A
    D: float = 1.0
    U: ScalarField | None = None
    k: Array = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        A = _diag3(self.A, "A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "k", np.asarray(self.k, float))
        if self.D <= 0.0:
            raise DomainError(f"D must be positive, got {self.D}")
        bad = 1.0 / self.D - A
        if np.any(bad <= 0.0):
            i = int(np.argmin(bad))
            raise DomainError(
                f"1/D - A[{i}] = {bad[i]:.6g} <= 0 along the {_AXES[i]}-axis; "
                f"the measure density would not stay real on the sphere"
            )


def _ball_s(A: Array, Dinv: float, M: Array, gamma: Array):
    return np.vecdot(A * M, gamma) / (Dinv - np.vecdot(gamma, A * gamma))


def ball_system(p: BallParams) -> SphereSystem:
    A = p.A
    Dinv = 1.0 / p.D
    U = p.U

    def u(g):
        return Dinv - np.vecdot(g, A * g)

    def H(M, g):
        am = A * M
        val = 0.5 * (np.vecdot(am, M) + np.vecdot(am, g) ** 2 / u(g))
        return val + (U(g) if U is not None else 0.0)

    def dH_dM(M, g):
        S = lift(_ball_s(A, Dinv, M, g))
        return A * M + S * (A * g)

    def dH_dgamma(M, g):
        S = lift(_ball_s(A, Dinv, M, g))
        out = S * (A * M) + S * S * (A * g)
        if U is not None:
            out = out + U.gradient(g)
        return out

    a1, a2, a3 = A.tolist()

    def u_closed(g1, g2, g3):
        uv = Dinv - (g1 * (a1 * g1) + g2 * (a2 * g2) + g3 * (a3 * g3))
        if uv <= 0.0:
            # BallParams keeps uv > 0 on the unit sphere
            raise DomainError(f"1/D - (gamma, A gamma) = {uv:.3e} is not positive: "
                              f"gamma is off the unit sphere")
        return uv

    def parts(M1, M2, M3, g1, g2, g3):
        m1, m2, m3 = a1 * M1, a2 * M2, a3 * M3
        n1, n2, n3 = a1 * g1, a2 * g2, a3 * g3
        S = (m1 * g1 + m2 * g2 + m3 * g3) / u_closed(g1, g2, g3)
        SS = S * S
        return (S, (m1 + S * n1, m2 + S * n2, m3 + S * n3),
                (S * m1 + SS * n1, S * m2 + SS * n2, S * m3 + SS * n3))

    g_field = ScalarField(lambda g: np.sqrt(u(g)),
                          grad=lambda g: -(A * g) / lift(np.sqrt(u(g))))
    extras = ()
    if U is None and not np.any(p.k):
        extras = (("Msq", lambda M, g: np.vecdot(M, M)),)
    return SphereSystem(
        name="ball" if not np.any(p.k) else "ball+gyrostat",
        hamiltonian=H,
        dH_dM=dH_dM,
        dH_dgamma=dH_dgamma,
        s_spec=ReducedS(g=g_field, f=ScalarField.constant(0.0)),
        k=p.k,
        extra_integrals=extras,
        flow=_closed_form_flow(p.k, U, parts),
        g=lambda gamma: math.sqrt(u_closed(*gamma.tolist())),
    )


def ball_K(p: BallParams) -> VectorField3:
    """Closed form of the ball's S-vector: K = A gamma / (1/D - (gamma, A gamma))."""
    A, Dinv = p.A, 1.0 / p.D
    return VectorField3(lambda g: (A * g) / lift(Dinv - np.vecdot(g, A * g)))


def ball_M_from_omega(p: BallParams, omega, gamma) -> Array:
    omega = np.asarray(omega, float)
    gamma = np.asarray(gamma, float)
    return omega / p.A - p.D * lift(np.vecdot(omega, gamma)) * gamma


def ball_omega_from_M(p: BallParams, M, gamma) -> Array:
    M = np.asarray(M, float)
    gamma = np.asarray(gamma, float)
    S = lift(_ball_s(p.A, 1.0 / p.D, M, gamma))
    return p.A * (M + S * gamma)


# ---------------------------------------------------------------------------
# Veselova
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VeselovaParams:
    Ahat: Sequence[float]                 # diagonal of Ahat = I^{-1}
    U: ScalarField | None = None
    k: Array = field(default_factory=lambda: np.zeros(3))
    b: float = 0.0                        # constraint value (omega, gamma) = b

    def __post_init__(self):
        object.__setattr__(self, "Ahat", _diag3(self.Ahat, "Ahat"))
        object.__setattr__(self, "k", np.asarray(self.k, float))


def _veselova_s(Ah: Array, k: Array, M: Array, gamma: Array):
    G = np.vecdot(gamma, Ah * gamma)
    w = np.vecdot(Ah * M - M - k, gamma)
    return -w / G


def veselova_system(p: VeselovaParams) -> SphereSystem:
    Ah = p.Ahat
    k = p.k
    U = p.U

    def G(g):
        return np.vecdot(g, Ah * g)

    def H(M, g):
        w = np.vecdot(Ah * M - M - k, g)
        val = 0.5 * (np.vecdot(Ah * M, M) - w * w / G(g))
        return val + (U(g) if U is not None else 0.0)

    def dH_dM(M, g):
        S = lift(_veselova_s(Ah, k, M, g))
        return Ah * M + S * (Ah * g - g)

    def dH_dgamma(M, g):
        S = lift(_veselova_s(Ah, k, M, g))
        out = S * (Ah * M - M - k) + S * S * (Ah * g)
        if U is not None:
            out = out + U.gradient(g)
        return out

    b1, b2, b3 = Ah.tolist()
    k1, k2, k3 = k.tolist()

    def G_closed(g1, g2, g3):
        return g1 * (b1 * g1) + g2 * (b2 * g2) + g3 * (b3 * g3)

    def parts(M1, M2, M3, g1, g2, g3):
        n1, n2, n3 = b1 * g1, b2 * g2, b3 * g3
        r1, r2, r3 = b1 * M1 - M1 - k1, b2 * M2 - M2 - k2, b3 * M3 - M3 - k3
        S = -(r1 * g1 + r2 * g2 + r3 * g3) / G_closed(g1, g2, g3)
        SS = S * S
        return (S, (b1 * M1 + S * (n1 - g1), b2 * M2 + S * (n2 - g2), b3 * M3 + S * (n3 - g3)),
                (S * r1 + SS * n1, S * r2 + SS * n2, S * r3 + SS * n3))

    g_field = ScalarField(lambda g: np.sqrt(G(g)),
                          grad=lambda g: (Ah * g) / lift(np.sqrt(G(g))))
    f_field = ScalarField(lambda g: 1.0 / np.sqrt(G(g)),
                          grad=lambda g: -(Ah * g) / lift(G(g) ** 1.5))
    phi_field = None
    if np.any(k):
        phi_field = ScalarField(
            lambda g: np.vecdot(g, k) / np.sqrt(G(g)),
            grad=lambda g: k / lift(np.sqrt(G(g))) - lift(np.vecdot(g, k)) * (Ah * g) / lift(G(g) ** 1.5))
    extras = ()
    if U is None:
        name = "MkSq" if np.any(k) else "Msq"
        extras = ((name, lambda M, g: np.vecdot(M + k, M + k)),)
    return SphereSystem(
        name="veselova" if not np.any(k) else "veselova+gyrostat",
        hamiltonian=H,
        dH_dM=dH_dM,
        dH_dgamma=dH_dgamma,
        s_spec=ReducedS(g=g_field, f=f_field, phi=phi_field),
        k=k,
        extra_integrals=extras,
        flow=_closed_form_flow(k, U, parts),
        g=lambda gamma: math.sqrt(G_closed(*gamma.tolist())),
    )


def veselova_K(p: VeselovaParams) -> VectorField3:
    """Closed form of the Veselova S-vector: K = -(Ahat - E) gamma / (gamma, Ahat gamma)."""
    Ah = p.Ahat
    return VectorField3(lambda g: -(Ah * g - g) / lift(np.vecdot(g, Ah * g)))


def veselova_M_from_omega(p: VeselovaParams, omega, gamma) -> Array:
    omega = np.asarray(omega, float)
    gamma = np.asarray(gamma, float)
    lam = np.vecdot(omega / p.Ahat - omega + p.k, gamma)
    return omega / p.Ahat - lift(lam) * gamma


def veselova_omega_from_M(p: VeselovaParams, M, gamma) -> Array:
    M = np.asarray(M, float)
    gamma = np.asarray(gamma, float)
    S = lift(_veselova_s(p.Ahat, p.k, M, gamma))
    return p.Ahat * (M + S * gamma)


def veselova_initial_state(p: VeselovaParams, gamma, omega_tangent) -> Array:
    """A state realizing the constraint (omega, gamma) = b.

    ``omega_tangent`` is projected onto the tangent plane at gamma and the
    normal component b * gamma is added before converting to M.
    """
    from .core import pack, require_unit_gamma

    gamma = np.asarray(gamma, float)
    require_unit_gamma(gamma)
    w = np.asarray(omega_tangent, float)
    omega = w - lift(np.vecdot(w, gamma)) * gamma + p.b * gamma
    return pack(veselova_M_from_omega(p, omega, gamma), gamma)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def duality_map(p: VeselovaParams, D: float) -> BallParams:
    """Parameter change sending the Veselova model to a ball model.

    A = (E - Ahat) / D and U_ball = U_veselova / D.  For zero potential the
    two Hamiltonians then satisfy, pointwise on R^6,

        H_ball = (1/(2D)) (M, M) - (1/D) H_veselova,

    and the measure factors obey g_ball = g_veselova / sqrt(D).
    """
    if np.any(p.k):
        raise DomainError("the duality is stated for the gyrostat-free model only")
    if D <= 0.0:
        raise DomainError(f"D must be positive, got {D}")
    A = (1.0 - p.Ahat) / D
    if np.any(A <= 0.0):
        i = int(np.argmax(p.Ahat))
        raise DomainError(
            f"Ahat[{i}] = {p.Ahat[i]} >= 1 makes the dual inertia direction "
            f"degenerate along the {_AXES[i]}-axis"
        )
    U = None if p.U is None else (1.0 / D) * p.U
    return BallParams(A=A, D=D, U=U)


def extra_integral_drifts(sys: SphereSystem, traj) -> dict[str, float]:
    """Relative drift of the model-specific integrals along a trajectory."""
    from .integrate import drift_report

    return drift_report(traj, [name for name, _ in sys.extra_integrals])


DEMO_BALL = dict(A=(0.4, 0.5, 0.6), D=1.0)
DEMO_VESELOVA = dict(Ahat=(0.6, 0.75, 0.9))
DEMO_GYROSTAT = (0.0, 0.0, 0.1)
