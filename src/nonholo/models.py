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

Each model is one component kernel, built once from its parameters: u
(or G) and ``parts``, which gives S, g^2 = u (or G), dH/dM and dH/dgamma.
The same sums run on the Python floats of one state and on component
arrays over the last axis: for the closed-form ``flow`` and
``rescaled_flow`` (g flow and g from one kernel pass) that the integrators
call on one state and on stacks, and for the stacked H-gradient, H, the
g/f/Phi fields and the S-vector K of the sphere layer.  The generic
``sphere.rhs``, built from the spec, stays the reference they are tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DomainError, ScalarField, VectorField3, any_point, lift, pack, vector
from .sphere import GFParams, SphereSystem

Array = np.ndarray

_AXES = "xyz"


def _diag3(value, name: str) -> Array:
    a = np.asarray(value, float)
    if a.shape != (3,):
        raise DomainError(f"{name} must be the three diagonal entries, got shape {a.shape}")
    with np.errstate(over="ignore", divide="ignore"):
        inv = 1.0 / a
    for i, v in enumerate(a):
        if not 0.0 < v < np.inf:
            raise DomainError(f"{name}[{i}] ({_AXES[i]}-axis) must be "
                              f"{'finite' if v > 0.0 else 'positive'}, got {v}")
        if inv[i] == np.inf:
            raise DomainError(f"{name}[{i}] = {v} is too small: 1/{name}[{i}] overflows")
    return a


def _gyrostat(value) -> Array:
    k = np.asarray(value, float)
    if not np.all(np.isfinite(k)):
        raise DomainError(f"gyrostat k must be finite, got {k.tolist()}")
    return k


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
# component kernels
# ---------------------------------------------------------------------------

def _xyz(v) -> tuple:
    """The components of vectors over the last axis, each of shape (...)."""
    v = np.asarray(v, float)
    return v[..., 0], v[..., 1], v[..., 2]


def _kernel_maps(parts, k: Array, U: ScalarField | None):
    """The flow, the rescaled field and the H-gradient from a kernel
    ``parts(M1, M2, M3, g1, g2, g3)`` = (S, g^2, dH/dM, dH/dgamma without
    U).  The flow adds grad U and forms, by components,

        dM/dt = (M + k - S gamma) x dH/dM + gamma x dH/dgamma,
        dgamma/dt = gamma x dH/dM

    on the Python floats of one state of shape (6,), or on component arrays
    over the last axis of a stack, in the same order, so that a stacked row
    equals its state alone bit for bit.  With the clock it gives
    (g flow, g), of shape (..., 7), from the same kernel pass."""
    k1, k2, k3 = k.tolist()

    def field(x, clock):
        x = np.asarray(x, float)
        one = x.ndim == 1
        M1, M2, M3, g1, g2, g3 = x.tolist() if one else (x[..., i] for i in range(6))
        S, gg, (h1, h2, h3), (q1, q2, q3) = parts(M1, M2, M3, g1, g2, g3)
        if U is not None:
            du = U.gradient(x[..., 3:])
            u1, u2, u3 = du.tolist() if one else _xyz(du)
            q1, q2, q3 = q1 + u1, q2 + u2, q3 + u3
        p1, p2, p3 = M1 + k1 - S * g1, M2 + k2 - S * g2, M3 + k3 - S * g3
        v = [(p2 * h3 - p3 * h2) + (g2 * q3 - g3 * q2),
             (p3 * h1 - p1 * h3) + (g3 * q1 - g1 * q3),
             (p1 * h2 - p2 * h1) + (g1 * q2 - g2 * q1),
             g2 * h3 - g3 * h2,
             g3 * h1 - g1 * h3,
             g1 * h2 - g2 * h1]
        if clock:
            g = math.sqrt(gg) if one else np.sqrt(gg)
            v = [c * g for c in v] + [g]
        return np.array(v) if one else np.stack(v, axis=-1)

    def grad_H(M, g):
        _, _, hm, hg = parts(*_xyz(M), *_xyz(g))
        return pack(vector(*hm), vector(*hg) if U is None else vector(*hg) + U.gradient(g))

    return (lambda x: field(x, False)), (lambda x: field(x, True)), grad_H


def _sphere_system(model: str, p: "BallParams | VeselovaParams", parts, H, g: ScalarField, f: ScalarField,
                   phi: ScalarField | None = None, extras=()) -> SphereSystem:
    """The SphereSystem of a model's kernel ``parts`` and Hamiltonian H without
    U, with its fields (g, f, Phi) and extra integrals; U and k from ``p``."""
    U, k = p.U, p.k
    flow, rescaled_flow, grad_H = _kernel_maps(parts, k, U)
    return SphereSystem(
        name=model + "+gyrostat" if np.any(k) else model,
        hamiltonian=lambda M, gamma: H(M, gamma) + (U(gamma) if U is not None else 0.0),
        grad_H=grad_H,
        s_spec=GFParams(g=g, f=f, phi=phi, k=k),
        extra_integrals=extras,
        flow=flow,
        rescaled_flow=rescaled_flow,
    )


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
        object.__setattr__(self, "k", _gyrostat(self.k))
        if not self.D > 0.0:        # NaN too; an infinite D fails 1/D - A > 0 below
            raise DomainError(f"D must be positive, got {self.D}")
        with np.errstate(over="ignore"):
            Dinv = 1.0 / self.D
        if not np.isfinite(Dinv):
            raise DomainError(f"D = {self.D} is too small: 1/D overflows")
        bad = Dinv - A
        if np.any(bad <= 0.0):
            i = int(np.argmin(bad))
            raise DomainError(
                f"1/D - A[{i}] = {bad[i]:.6g} <= 0 along the {_AXES[i]}-axis; "
                f"the measure density would not stay real on the sphere"
            )


def _ball_kernel(p: BallParams):
    """u and parts of the ball over components (floats or arrays)."""
    a1, a2, a3 = p.A.tolist()
    Dinv = 1.0 / p.D

    def u(g1, g2, g3):
        uv = Dinv - (g1 * (a1 * g1) + g2 * (a2 * g2) + g3 * (a3 * g3))
        if any_point(uv <= 0.0):
            # BallParams keeps u > 0 on the unit sphere
            raise DomainError(f"1/D - (gamma, A gamma) = {np.min(uv):.3e} is not positive: "
                              f"gamma is off the unit sphere")
        return uv

    def parts(M1, M2, M3, g1, g2, g3):
        m1, m2, m3 = a1 * M1, a2 * M2, a3 * M3
        n1, n2, n3 = a1 * g1, a2 * g2, a3 * g3
        uv = u(g1, g2, g3)
        S = (m1 * g1 + m2 * g2 + m3 * g3) / uv
        SS = S * S
        return (S, uv, (m1 + S * n1, m2 + S * n2, m3 + S * n3),
                (S * m1 + SS * n1, S * m2 + SS * n2, S * m3 + SS * n3))

    return u, parts


def ball_system(p: BallParams) -> SphereSystem:
    A = p.A
    u, parts = _ball_kernel(p)

    def H(M, g):
        am = A * M
        return 0.5 * (np.vecdot(am, M) + np.vecdot(am, g) ** 2 / u(*_xyz(g)))

    g_field = ScalarField(lambda g: np.sqrt(u(*_xyz(g))),
                          grad=lambda g: -(A * g) / lift(np.sqrt(u(*_xyz(g)))))
    extras = ()
    if p.U is None and not np.any(p.k):
        extras = (("Msq", lambda M, g: np.vecdot(M, M)),)
    return _sphere_system("ball", p, parts, H, g_field, ScalarField.constant(0.0), extras=extras)


def ball_K(p: BallParams) -> VectorField3:
    """Closed form of the ball's S-vector: K = A gamma / (1/D - (gamma, A gamma))."""
    A, (u, _) = p.A, _ball_kernel(p)
    return VectorField3(lambda g: (A * g) / lift(u(*_xyz(g))))


def ball_M_from_omega(p: BallParams, omega, gamma) -> Array:
    omega, gamma = np.asarray(omega, float), np.asarray(gamma, float)
    return omega / p.A - p.D * lift(np.vecdot(omega, gamma)) * gamma


# ---------------------------------------------------------------------------
# Veselova
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VeselovaParams:
    Ahat: Sequence[float]                 # diagonal of Ahat = I^{-1}
    U: ScalarField | None = None
    k: Array = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "Ahat", _diag3(self.Ahat, "Ahat"))
        object.__setattr__(self, "k", _gyrostat(self.k))


def _veselova_kernel(p: VeselovaParams):
    """G and parts of the Veselova body over components (floats or arrays)."""
    b1, b2, b3 = p.Ahat.tolist()
    k1, k2, k3 = p.k.tolist()

    def G(g1, g2, g3):
        Gv = g1 * (b1 * g1) + g2 * (b2 * g2) + g3 * (b3 * g3)
        if any_point(Gv <= 0.0):
            # Ahat > 0 keeps G > 0 for every gamma but 0
            raise DomainError(f"(gamma, Ahat gamma) = {np.min(Gv):.3e} is not positive: "
                              f"gamma is off the unit sphere")
        return Gv

    def parts(M1, M2, M3, g1, g2, g3):
        n1, n2, n3 = b1 * g1, b2 * g2, b3 * g3
        r1, r2, r3 = b1 * M1 - M1 - k1, b2 * M2 - M2 - k2, b3 * M3 - M3 - k3
        Gv = G(g1, g2, g3)
        S = -(r1 * g1 + r2 * g2 + r3 * g3) / Gv
        SS = S * S
        return (S, Gv, (b1 * M1 + S * (n1 - g1), b2 * M2 + S * (n2 - g2), b3 * M3 + S * (n3 - g3)),
                (S * r1 + SS * n1, S * r2 + SS * n2, S * r3 + SS * n3))

    return G, parts


def veselova_system(p: VeselovaParams) -> SphereSystem:
    Ah, k = p.Ahat, p.k
    G, parts = _veselova_kernel(p)

    def Gv(g):
        return G(*_xyz(g))

    def H(M, g):
        w = np.vecdot(Ah * M - M - k, g)
        return 0.5 * (np.vecdot(Ah * M, M) - w * w / Gv(g))

    g_field = ScalarField(lambda g: np.sqrt(Gv(g)),
                          grad=lambda g: (Ah * g) / lift(np.sqrt(Gv(g))))
    f_field = ScalarField(lambda g: 1.0 / np.sqrt(Gv(g)),
                          grad=lambda g: -(Ah * g) / lift(Gv(g) ** 1.5))
    phi_field = None
    if np.any(k):
        phi_field = ScalarField(
            lambda g: np.vecdot(g, k) / np.sqrt(Gv(g)),
            grad=lambda g: k / lift(np.sqrt(Gv(g))) - lift(np.vecdot(g, k)) * (Ah * g) / lift(Gv(g) ** 1.5))
    extras = ()
    if p.U is None:
        name = "MkSq" if np.any(k) else "Msq"
        extras = ((name, lambda M, g: np.vecdot(M + k, M + k)),)
    return _sphere_system("veselova", p, parts, H, g_field, f_field, phi_field, extras)


def veselova_K(p: VeselovaParams) -> VectorField3:
    """Closed form of the Veselova S-vector: K = -(Ahat - E) gamma / (gamma, Ahat gamma)."""
    Ah, (G, _) = p.Ahat, _veselova_kernel(p)
    return VectorField3(lambda g: -(Ah * g - g) / lift(G(*_xyz(g))))


def veselova_M_from_omega(p: VeselovaParams, omega, gamma) -> Array:
    omega, gamma = np.asarray(omega, float), np.asarray(gamma, float)
    lam = np.vecdot(omega / p.Ahat - omega + p.k, gamma)
    return omega / p.Ahat - lift(lam) * gamma


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
    if not D > 0.0:
        raise DomainError(f"D must be positive, got {D}")
    with np.errstate(over="ignore"):
        A = (1.0 - p.Ahat) / D
    if np.any(A <= 0.0):
        i = int(np.argmax(p.Ahat))
        raise DomainError(
            f"Ahat[{i}] = {p.Ahat[i]} >= 1 makes the dual inertia direction "
            f"degenerate along the {_AXES[i]}-axis"
        )
    if not np.all(np.isfinite(A)):
        raise DomainError(f"D = {D} is too small: the dual inertia (1 - Ahat) / D overflows")
    U = None if p.U is None else (1.0 / D) * p.U
    return BallParams(A=A, D=D, U=U)


DEMO_BALL = dict(A=(0.4, 0.5, 0.6), D=1.0)
DEMO_VESELOVA = dict(Ahat=(0.6, 0.75, 0.9))
DEMO_GYROSTAT = (0.0, 0.0, 0.1)
