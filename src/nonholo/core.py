"""Shared numerical primitives.

Phase points on R^6 are packed as ``x = (M, gamma)`` with the momentum
``M = x[:3]`` and the direction (Poisson) vector ``gamma = x[3:]``.
Everything in this module is a pure function of immutable values and is
safe to evaluate from concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


class DomainError(ValueError):
    """A mathematical precondition is violated (bad parameters or state)."""


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class ToleranceFailure(RuntimeError):
    """A numerical result exceeded its required tolerance."""


class StiffnessError(RuntimeError):
    """Adaptive integration stalled (step-size underflow)."""

    def __init__(self, message: str, last_t: float | None = None,
                 last_state: Array | None = None):
        super().__init__(message)
        self.last_t = last_t
        self.last_state = last_state


@dataclass(frozen=True)
class Tolerances:
    """Central record of the package-wide numerical tolerances."""

    unit_gamma: float = 1e-9      # |gamma^2 - 1| accepted for on-sphere states
    fd_step: float = 1e-5         # base finite-difference step, scaled by |x|
    gradient_check: float = 1e-6  # analytic vs finite-difference agreement
    measure_gate: float = 1e-8    # admissibility gate for conformal forms
    zero_level: float = 1e-12     # |(M, gamma)| accepted as the zero level


TOLS = Tolerances()


def pack(M, gamma) -> Array:
    """Stack (M, gamma) into a single 6-vector."""
    return np.concatenate([np.asarray(M, float), np.asarray(gamma, float)])


def unpack(x) -> tuple[Array, Array]:
    x = np.asarray(x, float)
    return x[:3], x[3:]


def require_unit_gamma(gamma: Array, tol: float = TOLS.unit_gamma) -> None:
    err = abs(gamma @ gamma - 1.0)
    if err > tol:
        raise DomainError(f"gamma is off the unit sphere: |gamma^2 - 1| = {err:.3e}")


def hat(v) -> Array:
    """Matrix of the cross product: hat(v) @ w == v x w."""
    v = np.asarray(v, float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def skew_defect(P: Array) -> float:
    """Largest entry of P + P^T; zero for an exactly skew matrix."""
    return float(np.max(np.abs(P + P.T)))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _base_step(x: Array, step: float | None) -> float:
    h = TOLS.fd_step if step is None else step
    return h * max(1.0, float(np.linalg.norm(x)))


def _central(fn, x: Array, h: float) -> Array:
    n = x.size
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"non-finite field value near {x}")
    return out


def fd_gradient(fn: Callable[[Array], float], point, step: float | None = None,
                richardson: bool = True) -> Array:
    """Central-difference gradient of a scalar function.

    One level of Richardson extrapolation brings the truncation error to
    O(step^4), which keeps polynomial fields of degree <= 3 exact up to
    round-off.
    """
    x = np.asarray(point, float)
    h = _base_step(x, step)
    if h <= 0.0:
        raise DomainError("finite-difference step must be positive")
    d1 = _central(fn, x, h)
    if not richardson:
        return d1
    d2 = _central(fn, x, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def fd_jacobian(fn: Callable[[Array], Array], point, step: float | None = None,
                richardson: bool = False) -> Array:
    """Jacobian J[..., i, j] = d fn_i / d x_j by central differences.

    ``point`` is one point of shape (n,) or a stack of shape (..., n), and
    ``fn`` maps a stack of points to the stack of its values.  Each point's
    step is scaled by its own norm, so stacked points give the per-point
    Jacobians.
    """
    x = np.asarray(point, float)
    h = (TOLS.fd_step if step is None else step) \
        * np.maximum(1.0, np.linalg.norm(x, axis=-1, keepdims=True))

    def one(hh):
        cols = [np.asarray(fn(x + hh * e), float) - np.asarray(fn(x - hh * e), float)
                for e in np.eye(x.shape[-1])]
        return np.stack(cols, axis=-1) / (2.0 * hh[..., None])

    J1 = one(h)
    if not richardson:
        return J1
    J2 = one(h / 2.0)
    return (4.0 * J2 - J1) / 3.0


def fd_curl(fn: Callable[[Array], Array], point, step: float | None = None,
            richardson: bool = False) -> Array:
    """curl F = (dF3/dx2 - dF2/dx3, dF1/dx3 - dF3/dx1, dF2/dx1 - dF1/dx2),
    over the last axis of ``point`` as in ``fd_jacobian``."""
    J = fd_jacobian(fn, point, step, richardson)
    return np.stack([J[..., 2, 1] - J[..., 1, 2], J[..., 0, 2] - J[..., 2, 0],
                     J[..., 1, 0] - J[..., 0, 1]], axis=-1)


def jacobiator(P: Callable[[Array], Array], x, step: float | None = None) -> float:
    """Largest component of the Jacobi-identity obstruction of a bivector field.

    For each index triple (i, j, k) the cyclic sum
    ``sum_l P[l,i] d_l P[j,k] + P[l,j] d_l P[k,i] + P[l,k] d_l P[i,j]``
    vanishes identically iff the bracket defined by P satisfies the Jacobi
    identity.  Derivatives are taken by plain central differences, so the
    caller only needs point evaluations of P.
    """
    x = np.asarray(x, float)
    h = _base_step(x, step)
    P0 = np.asarray(P(x), float)
    n = P0.shape[0]
    dP = np.empty((n, n, n))  # dP[l, i, j] = d_l P[i, j]
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        dP[l] = (np.asarray(P(x + e), float) - np.asarray(P(x - e), float)) / (2.0 * h)
    T = np.einsum("li,ljk->ijk", P0, dP)
    J = T + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)
    return float(np.max(np.abs(J)))


# ---------------------------------------------------------------------------
# fields with optional analytic derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """A scalar function of a point, with an optional analytic gradient.

    Where no gradient is supplied, differentiation falls back to
    ``fd_gradient``.  The dimension of the point is not fixed; the same
    type serves fields of gamma on R^3 and fields of q on R^2.
    """

    fn: Callable[[Array], float]
    grad: Callable[[Array], Array] | None = None

    def __call__(self, point) -> float:
        return float(self.fn(np.asarray(point, float)))

    def gradient(self, point, step: float | None = None) -> Array:
        x = np.asarray(point, float)
        if self.grad is not None:
            return np.asarray(self.grad(x), float)
        return fd_gradient(self.fn, x, step)

    @staticmethod
    def constant(c: float) -> "ScalarField":
        return ScalarField(lambda x: c, grad=lambda x: np.zeros_like(np.asarray(x, float)))

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            g = None
            if self.grad is not None and other.grad is not None:
                g = lambda x: self(x) * other.gradient(x) + other(x) * self.gradient(x)
            return ScalarField(lambda x: self(x) * other(x), grad=g)
        c = float(other)
        g = None if self.grad is None else (lambda x: c * self.gradient(x))
        return ScalarField(lambda x: c * self(x), grad=g)

    __rmul__ = __mul__

    def reciprocal(self) -> "ScalarField":
        g = None
        if self.grad is not None:
            g = lambda x: -self.gradient(x) / self(x) ** 2
        return ScalarField(lambda x: 1.0 / self(x), grad=g)


@dataclass(frozen=True)
class VectorField3:
    """An R^3-valued function of gamma, with an optional analytic curl."""

    fn: Callable[[Array], Array]
    curl: Callable[[Array], Array] | None = None

    def __call__(self, point) -> Array:
        return np.asarray(self.fn(np.asarray(point, float)), float)

    def curl_at(self, point, step: float | None = None, richardson: bool = False) -> Array:
        x = np.asarray(point, float)
        if self.curl is not None:
            return np.asarray(self.curl(x), float)
        return fd_curl(self.fn, x, step, richardson)

    @staticmethod
    def zero() -> "VectorField3":
        return VectorField3(lambda x: np.zeros(np.shape(x)), curl=lambda x: np.zeros(np.shape(x)))

    def __add__(self, other: "VectorField3") -> "VectorField3":
        c = None
        if self.curl is not None and other.curl is not None:
            c = lambda x: self.curl_at(x) + other.curl_at(x)
        return VectorField3(lambda x: self(x) + other(x), curl=c)

    def scaled(self, s) -> "VectorField3":
        """Pointwise product s(gamma) * h(gamma); curl by the product rule."""
        if not isinstance(s, ScalarField):
            s = ScalarField.constant(float(s))
        c = None
        if self.curl is not None and s.grad is not None:
            c = lambda x: s(x) * self.curl_at(x) + np.cross(s.gradient(x), self(x))
        return VectorField3(lambda x: s(x) * self(x), curl=c)
