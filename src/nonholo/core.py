"""Shared numerical primitives.

Phase points on R^6 are packed as ``x = (M, gamma)`` with the momentum
``M = x[..., :3]`` and the direction (Poisson) vector ``gamma = x[..., 3:]``.
Points, states and fields act over the last axis: a stack of shape
(..., n) is evaluated in one call, and one point of shape (n,) is the same
code on a stack of one.
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
    measure_gate: float = 1e-8    # admissibility gate for conformal forms
    zero_level: float = 1e-12     # |(M, gamma)| accepted as the zero level


TOLS = Tolerances()


def pack(M, gamma) -> Array:
    """Stack (M, gamma) into 6-vectors over the last axis."""
    return np.concatenate([np.asarray(M, float), np.asarray(gamma, float)], axis=-1)


def unpack(x) -> tuple[Array, Array]:
    x = np.asarray(x, float)
    return x[..., :3], x[..., 3:]


def require_unit_gamma(gamma: Array, tol: float = TOLS.unit_gamma) -> None:
    err = np.max(np.abs(np.vecdot(gamma, gamma) - 1.0))
    if err > tol:
        raise DomainError(f"gamma is off the unit sphere: |gamma^2 - 1| = {err:.3e}")


# hat(v) flattened is v @ _HAT: each entry of the cross-product matrix is
# +-1 times one component of v
_HAT = np.zeros((3, 9))
_HAT[2, 1] = _HAT[0, 5] = _HAT[1, 6] = -1.0
_HAT[1, 2] = _HAT[2, 3] = _HAT[0, 7] = 1.0


def hat(v) -> Array:
    """Matrix of the cross product over the last axis: hat(v) @ w == v x w.

    v of shape (..., 3) gives matrices of shape (..., 3, 3).
    """
    v = np.asarray(v, float)
    return (v @ _HAT).reshape(v.shape[:-1] + (3, 3))


def skew_defect(P: Array) -> float:
    """Largest entry of P + P^T; zero for an exactly skew matrix."""
    return float(np.max(np.abs(P + P.T)))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _stencil(fn, x: Array, h: Array) -> Array:
    """Central differences of fn along each coordinate of the last axis of x,
    stacked on a new last axis.  h has shape (..., 1), one step per point."""
    cols = [np.asarray(fn(x + h * e), float) - np.asarray(fn(x - h * e), float)
            for e in np.eye(x.shape[-1])]
    D = np.stack(cols, axis=-1)
    # scalar fields give (..., n), vector fields (..., m, n)
    return D / (2.0 * h.reshape(h.shape + (1,) * (D.ndim - x.ndim)))


def _steps(x: Array, step: float | None) -> Array:
    return (TOLS.fd_step if step is None else step) \
        * np.maximum(1.0, np.linalg.norm(x, axis=-1, keepdims=True))


def fd_gradient(fn: Callable[[Array], Array], point, step: float | None = None) -> Array:
    """Central-difference gradient of a scalar function over the last axis.

    ``point`` is one point of shape (n,) or a stack of shape (..., n), and
    ``fn`` maps a stack of points to the stack of its values, shape (...).
    One level of Richardson extrapolation brings the truncation error to
    O(step^4), which keeps polynomial fields of degree <= 3 exact up to
    round-off.
    """
    x = np.asarray(point, float)
    h = _steps(x, step)
    if np.any(h <= 0.0):
        raise DomainError("finite-difference step must be positive")
    d = (4.0 * _stencil(fn, x, h / 2.0) - _stencil(fn, x, h)) / 3.0
    if not np.all(np.isfinite(d)):
        raise DomainError(f"non-finite field value near {x}")
    return d


def fd_jacobian(fn: Callable[[Array], Array], point, step: float | None = None,
                richardson: bool = False) -> Array:
    """Jacobian J[..., i, j] = d fn_i / d x_j by central differences.

    ``point`` is one point of shape (n,) or a stack of shape (..., n), and
    ``fn`` maps a stack of points to the stack of its values.  Each point's
    step is scaled by its own norm, so stacked points give the per-point
    Jacobians.
    """
    x = np.asarray(point, float)
    h = _steps(x, step)
    J1 = _stencil(fn, x, h)
    if not richardson:
        return J1
    J2 = _stencil(fn, x, h / 2.0)
    return (4.0 * J2 - J1) / 3.0


def fd_curl(fn: Callable[[Array], Array], point, step: float | None = None,
            richardson: bool = False) -> Array:
    """curl F = (dF3/dx2 - dF2/dx3, dF1/dx3 - dF3/dx1, dF2/dx1 - dF1/dx2),
    over the last axis of ``point`` as in ``fd_jacobian``."""
    J = fd_jacobian(fn, point, step, richardson)
    return np.stack([J[..., 2, 1] - J[..., 1, 2], J[..., 0, 2] - J[..., 2, 0],
                     J[..., 1, 0] - J[..., 0, 1]], axis=-1)


# Points or states per block where a stacked evaluation holds a large table
# per point: the Legendre tables of spectral synthesis, (L+1)^2 values per
# point, and the jacobiator's 2n+1 stencil matrices and n^3 derivatives per
# state.  At 32, `reduce --model ball --L 32` keeps the peak memory of
# one-point synthesis (128 points add about 3 MB), and the three `check
# jacobi` suites at -n 1000 raise peak RSS by 1.1 MB, against 14 MB with
# all 1000 states in one block, in the same wall time (2-vCPU Xeon VM).
CHUNK = 32


def jacobiator(P: Callable[[Array], Array], x):
    """Largest component of the Jacobi-identity obstruction of a bivector
    field, one value per state.

    For each index triple (i, j, k) the cyclic sum
    ``sum_l P[l,i] d_l P[j,k] + P[l,j] d_l P[k,i] + P[l,k] d_l P[i,j]``
    vanishes identically iff the bracket defined by P satisfies the Jacobi
    identity.  Derivatives are taken by plain central differences, with the
    step scaled by the state's norm.  ``P`` maps states of shape (..., n) to
    matrices of shape (..., n, n) (a constant matrix is broadcast) and is
    evaluated once per block of ``CHUNK`` states, on their stacked
    2n+1-point stencils.  ``x`` is one state of shape (n,), which gives a
    float, or a stack of shape (..., n), which gives shape (...).
    """
    x = np.asarray(x, float)
    flat = x.reshape(-1, x.shape[-1])
    vals = np.concatenate([_jacobi_block(P, flat[k:k + CHUNK])
                           for k in range(0, flat.shape[0], CHUNK)])
    return point_values(vals.reshape(x.shape[:-1]), x)


def _jacobi_block(P, x: Array) -> Array:
    """The jacobiator of states of shape (b, n), shape (b,)."""
    b, n = x.shape
    # sqrt of vecdot is bitwise the one-point norm; norm(axis=-1) is not
    h = TOLS.fd_step * np.maximum(1.0, np.sqrt(np.vecdot(x, x)))
    E = h[:, None, None] * np.eye(n)
    X = np.concatenate([x[:, None], x[:, None] + E, x[:, None] - E], axis=1)
    PX = np.broadcast_to(np.asarray(P(X), float), (b, 2 * n + 1, n, n))
    P0 = PX[:, 0]
    dP = (PX[:, 1:n + 1] - PX[:, n + 1:]) / (2.0 * h[:, None, None, None])  # [b, l, i, j] = d_l P[i, j]
    T = np.einsum("bli,bljk->bijk", P0, dP)
    J = T + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)
    return np.max(np.abs(J), axis=(1, 2, 3))


# ---------------------------------------------------------------------------
# fields with optional analytic derivatives
# ---------------------------------------------------------------------------

def lift(v, n: int = 1):
    """Field values of shape (...) as shape (..., 1) (n = 1) or (..., 1, 1)
    (n = 2), so that they scale vectors or matrices point by point; one
    point's float passes as is."""
    return v[(..., *(None,) * n)] if isinstance(v, np.ndarray) else v


def any_point(mask) -> bool:
    """Whether a condition holds at any point of a stack (or at the one point)."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def vector(*components) -> Array:
    """Vectors over the last axis from per-point components of shape (...);
    constant components are broadcast."""
    try:
        v = np.array(components, float)
    except ValueError:
        # a constant beside components of a stack
        v = np.array(np.broadcast_arrays(*components), float)
    return v if v.ndim == 1 else np.moveaxis(v, 0, -1)


def _fit(v, shape) -> Array:
    """A field result as a float array of the stack's shape; a result that
    does not depend on the point (a constant) is broadcast."""
    v = np.asarray(v, float)
    return v if v.shape == shape else np.broadcast_to(v, shape)


def point_values(v, x):
    """Per-point scalar results at points x of shape (..., n) as an array
    of shape (...), a constant broadcast; a float for one point."""
    shape = np.shape(x)[:-1]
    return _fit(v, shape) if shape else float(v)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of points, with an optional analytic gradient.

    ``fn`` maps points of shape (..., n) to values of shape (...) and
    ``grad`` maps them to gradients of shape (..., n); both read the
    components of a point as ``x[..., i]``, and a result that does not depend
    on the point may be a constant.  Calling the field on one point of shape
    (n,) gives a float.  Where no gradient is supplied,
    differentiation falls back to ``fd_gradient``.  The dimension of the
    point is not fixed; the same type serves fields of gamma on R^3 and
    fields of q on R^2.
    """

    fn: Callable[[Array], Array]
    grad: Callable[[Array], Array] | None = None

    def __call__(self, point):
        x = np.asarray(point, float)
        return point_values(self.fn(x), x)

    def gradient(self, point) -> Array:
        x = np.asarray(point, float)
        if self.grad is None:
            return fd_gradient(self, x)
        return _fit(self.grad(x), x.shape)

    @staticmethod
    def constant(c: float) -> "ScalarField":
        return ScalarField(lambda x: c, grad=lambda x: 0.0)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            g = None
            if self.grad is not None and other.grad is not None:
                g = lambda x: lift(self(x)) * other.gradient(x) + lift(other(x)) * self.gradient(x)
            return ScalarField(lambda x: self(x) * other(x), grad=g)
        c = float(other)
        g = None if self.grad is None else (lambda x: c * self.gradient(x))
        return ScalarField(lambda x: c * self(x), grad=g)

    __rmul__ = __mul__

    def reciprocal(self) -> "ScalarField":
        g = None
        if self.grad is not None:
            g = lambda x: -self.gradient(x) / lift(self(x) ** 2)
        return ScalarField(lambda x: 1.0 / self(x), grad=g)


@dataclass(frozen=True)
class VectorField3:
    """An R^3-valued function of gamma, with an optional analytic curl.

    ``fn`` and ``curl`` map points of shape (..., 3) to vectors of shape
    (..., 3), or to one constant 3-vector; one point of shape (3,) gives one
    3-vector.
    """

    fn: Callable[[Array], Array]
    curl: Callable[[Array], Array] | None = None

    def __call__(self, point) -> Array:
        x = np.asarray(point, float)
        return _fit(self.fn(x), x.shape)

    def curl_at(self, point) -> Array:
        x = np.asarray(point, float)
        if self.curl is not None:
            return _fit(self.curl(x), x.shape)
        return fd_curl(self, x)

    @staticmethod
    def zero() -> "VectorField3":
        return VectorField3(lambda x: 0.0, curl=lambda x: 0.0)

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
            c = lambda x: lift(s(x)) * self.curl_at(x) + np.cross(s.gradient(x), self(x))
        return VectorField3(lambda x: lift(s(x)) * self(x), curl=c)
