"""Shared numerical primitives, and the one writer of output files.

Phase points on R^6 are packed as ``x = (M, gamma)`` with the momentum
``M = x[..., :3]`` and the direction (Poisson) vector ``gamma = x[..., 3:]``.
Points, states and fields act over the last axis: a stack of shape
(..., n) is evaluated in one call, and one point of shape (n,) is the same
code on a stack of one.
"""

from __future__ import annotations

import os
import stat
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


class StiffnessError(ToleranceFailure):
    """Adaptive integration stalled (step-size underflow)."""

    def __init__(self, message: str, last_t: float | None = None,
                 last_state: Array | None = None):
        super().__init__(message)
        self.last_t = last_t
        self.last_state = last_state


# the package-wide numerical tolerances
UNIT_GAMMA = 1e-9      # |gamma^2 - 1| accepted for on-sphere states
FD_STEP = 1e-5         # base finite-difference step, scaled by |x|
MEASURE_GATE = 1e-8    # admissibility gate for conformal forms
ZERO_LEVEL = 1e-12     # |(M, gamma)| accepted as the zero level


def pack(M, gamma) -> Array:
    """Stack (M, gamma) into 6-vectors over the last axis."""
    return np.concatenate([np.asarray(M, float), np.asarray(gamma, float)], axis=-1)


def unpack(x) -> tuple[Array, Array]:
    x = np.asarray(x, float)
    return x[..., :3], x[..., 3:]


def require_unit_gamma(gamma: Array) -> None:
    err = np.max(np.abs(np.vecdot(gamma, gamma) - 1.0))
    if err > UNIT_GAMMA:
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
# One step rule (_steps) and one point layout (_stencil) serve every caller:
# - the field fallbacks and the planar dH_dq (fd_gradient, fd_curl): FD_STEP
#   with one Richardson level, exact to round-off on cubics;
# - the curl residual (spherical.solve_curl_equation): 1e-4 with one
#   Richardson level, 9.0e-12 at ball L = 32, where plain central at 1e-4
#   reads 1.4e-8 (truncation) and Richardson at FD_STEP 6.0e-11 (round-off);
# - the jacobiator: plain central at FD_STEP.  The benchmark fails a checks
#   maximum more than 10x below its plain-central oracle, which a Richardson
#   jacobiator (3.6e-11 against 8.8e-10 at the demo ball) would likely trip;
# - the gauge gamma-block: plain central at gauge.JACOBIAN_STEP = 1e-6.
#   Richardson at 1e-4 takes ball L = 32 bracket_dev from 1.03e-9 to 3.2e-11
#   but `reduce --model ball --L 32` from about 80 ms to 126-149 ms.

def _steps(x: Array, step: float | None = None) -> Array:
    """Per-point steps (..., 1): step (FD_STEP) times the norm, at least 1."""
    # sqrt of vecdot is bitwise the one-point norm on a stack; norm(axis=-1) is not
    return (FD_STEP if step is None else step) * np.maximum(1.0, np.sqrt(np.vecdot(x, x)))[..., None]


def _stencil(x: Array, h: Array) -> Array:
    """x + h e_j, then x - h e_j, on a new axis before the last: (..., 2n, n)."""
    E = h[..., None] * np.eye(x.shape[-1])
    return x[..., None, :] + np.concatenate([E, -E], axis=-2)


def _central(fn, x: Array, h: Array) -> Array:
    """Central differences of fn on a new last axis.  fn sees one direction's
    points at a time, of the shape of x: a field may read ``g[0]``."""
    X, n = _stencil(x, h), x.shape[-1]
    D = np.stack([np.asarray(fn(X[..., j, :]), float) - np.asarray(fn(X[..., n + j, :]), float)
                  for j in range(n)], axis=-1)
    # scalar fields give (..., n), vector fields (..., m, n)
    return D / (2.0 * h.reshape(h.shape + (1,) * (D.ndim - x.ndim)))


def fd_gradient(fn: Callable[[Array], Array], point) -> Array:
    """Gradient of a scalar function over the last axis, at FD_STEP with one
    Richardson level.  ``point`` is one point of shape (n,) or a stack of
    shape (..., n), and ``fn`` maps points to values of shape (...)."""
    d = fd_jacobian(fn, point, richardson=True)
    if not np.all(np.isfinite(d)):
        raise DomainError(f"non-finite field value near {np.asarray(point, float)}")
    return d


def fd_jacobian(fn: Callable[[Array], Array], point, step: float | None = None,
                richardson: bool = False) -> Array:
    """Jacobian J[..., i, j] = d fn_i / d x_j by central differences, per
    point of a stack of shape (..., n) (or of one point of shape (n,))."""
    x = np.asarray(point, float)
    h = _steps(x, step)
    J = _central(fn, x, h)
    return (4.0 * _central(fn, x, h / 2.0) - J) / 3.0 if richardson else J


def fd_curl(fn: Callable[[Array], Array], point, step: float | None = None,
            richardson: bool = False) -> Array:
    """curl F = (dF3/dx2 - dF2/dx3, dF1/dx3 - dF3/dx1, dF2/dx1 - dF1/dx2),
    over the last axis of ``point`` as in ``fd_jacobian``."""
    J = fd_jacobian(fn, point, step, richardson)
    return np.stack([J[..., 2, 1] - J[..., 1, 2], J[..., 0, 2] - J[..., 2, 0],
                     J[..., 1, 0] - J[..., 0, 1]], axis=-1)


# States per jacobiator block, each holding its 2n+1 stencil matrices and
# n^3 derivatives.  At 32 the three `check jacobi` suites at -n 1000 raise
# peak RSS by 1.1 MB, against 14 MB with all 1000 states in one block, in
# the same wall time (2-vCPU Xeon VM).  Spectral synthesis sizes its own
# blocks by table entries (spherical.BLOCK_ENTRIES).
CHUNK = 32


def jacobiator(P: Callable[[Array], Array], x):
    """Largest component of the Jacobi-identity obstruction of a bivector
    field, one value per state.

    For each index triple (i, j, k) the cyclic sum
    ``sum_l P[l,i] d_l P[j,k] + P[l,j] d_l P[k,i] + P[l,k] d_l P[i,j]``
    vanishes identically iff the bracket defined by P satisfies the Jacobi
    identity.  ``P`` maps states of shape (..., n) to matrices of shape
    (..., n, n) (a constant matrix is broadcast) and is evaluated once per
    block of ``CHUNK`` states, on each state and its stencil.  ``x`` is one
    state of shape (n,), which gives a float, or a stack of shape (..., n),
    which gives shape (...).
    """
    x = np.asarray(x, float)
    flat = x.reshape(-1, x.shape[-1])
    vals = np.concatenate([_jacobi_block(P, flat[k:k + CHUNK])
                           for k in range(0, flat.shape[0], CHUNK)])
    return point_values(vals.reshape(x.shape[:-1]), x)


def _jacobi_block(P, x: Array) -> Array:
    """The jacobiator of states of shape (b, n), shape (b,)."""
    b, n = x.shape
    h = _steps(x)
    X = np.concatenate([x[:, None], _stencil(x, h)], axis=1)
    PX = np.broadcast_to(np.asarray(P(X), float), (b, 2 * n + 1, n, n))
    P0 = PX[:, 0]
    dP = (PX[:, 1:n + 1] - PX[:, n + 1:]) / (2.0 * h[..., None, None])  # [b, l, i, j] = d_l P[i, j]
    T = np.einsum("bli,bljk->bijk", P0, dP)
    J = T + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)
    return np.max(np.abs(J), axis=(1, 2, 3))


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_in_place(path, text: str) -> None:
    """Write ``text`` to ``path``, overwriting it in place.

    The same bytes, symlinks followed, hard links and the file mode kept, as
    ``open(path, "w")``; but a regular file is cut at the end of the text
    instead of truncated to zero first.  Truncating to zero a file whose
    previous contents are still being written back blocks on some file
    systems (tens of milliseconds on ext4), longer than a demo run's
    integration.  A write stopped by an exception (an I/O error, Ctrl-C)
    still cuts the file at the end of what reached it, so no old tail
    follows the new rows; a process killed outright before the cut can
    leave one.  Pipes, terminals and devices such as /dev/null are written
    and never cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            fh.write(text)
            fh.flush()
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


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
