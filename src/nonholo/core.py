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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


class DomainError(ValueError):
    """A mathematical precondition is violated (bad parameters or state)."""


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class BudgetError(DomainError):
    """An integration that used its budget of flow evaluations before its
    end; ``last_t`` is the time it reached."""

    def __init__(self, message: str, last_t: float):
        super().__init__(message)
        self.last_t = last_t


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
    err = np.max(np.abs(np.vecdot(gamma, gamma) - 1.0), initial=0.0)
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
# One step rule (_steps) serves every caller:
# - the field fallbacks: fd_jacobian (fd_gradient for a scalar function) at
#   FD_STEP with one Richardson level, exact to round-off on cubics.  It runs
#   only at a leaf, since a field built by the algebra carries its derivative
#   by the product rule, and a curl is always read off a Jacobian (_curl_of).
#   A leaf keeps its latest (points, derivative) pair, so the product rule,
#   which reads a leaf several times at the same points, differences it once;
# - the test oracles of the reduction, 1e-4 with one Richardson level.  The
#   Cartesian curl that the residual (spherical._ring_curl, differences
#   along theta and phi) is held against reads 8.8e-12 at ball L = 32, where
#   plain central at 1e-4 reads 1.4e-8 (truncation) and Richardson at
#   FD_STEP 6.0e-11 (round-off).  The differences of gauge._fiber_map agree
#   with the closed-form gamma-block of gauge.gauge_state_jacobian to 3e-11
#   at L = 8 to 32; the plain central step 1e-6 that block replaced read
#   ball L = 32 bracket_dev as 1.14e-9 (seed 3), its noise, against 1.1e-12;
# - the jacobiator: plain central at FD_STEP, as is the benchmark's oracle,
#   which fails a checks maximum more than 10x below its own; a Richardson
#   jacobiator (3.6e-11 against 8.8e-10 at the demo ball) would likely trip it.
#   Along the coordinates in which the caller says P is affine (M, for every
#   sphere bracket) one forward step of max(1, |x|) is exact up to
#   round-off: a sphere bracket's stencil has 10 points instead of 13.

def _steps(x: Array, step: float | None = None) -> Array:
    """Per-point steps (..., 1): step (FD_STEP) times the norm, at least 1."""
    # sqrt of vecdot is bitwise the one-point norm on a stack; norm(axis=-1) is not
    return (FD_STEP if step is None else step) * np.maximum(1.0, np.sqrt(np.vecdot(x, x)))[..., None]


def _stencil(x: Array, h: Array) -> Array:
    """x + h e_j at [0, j] and x - h e_j at [1, j], each of the shape of x:
    shape (2, n) + x.shape."""
    n = x.shape[-1]
    S = np.empty((2, n) + x.shape)
    S[...] = x
    for j in range(n):
        S[0, j, ..., j] += h[..., 0]
        S[1, j, ..., j] -= h[..., 0]
    return S


def _central(fn, x: Array, h: Array) -> Array:
    """Central differences of fn on a new last axis.  fn sees one direction's
    points at a time, of the shape of x: a field may read ``g[0]``."""
    D = np.stack([np.asarray(fn(plus), float) - np.asarray(fn(minus), float)
                  for plus, minus in zip(*_stencil(x, h))], axis=-1)
    # scalar fields give (..., n), vector fields (..., m, n)
    return D / (2.0 * h.reshape(h.shape + (1,) * (D.ndim - x.ndim)))


def fd_jacobian(fn: Callable[[Array], Array], point, step: float | None = None) -> Array:
    """Jacobian J[..., i, j] = d fn_i / d x_j (a scalar fn's gradient) per
    point of a stack of shape (..., n), or of one point of shape (n,), by
    central differences at ``step`` (FD_STEP) with one Richardson level; a
    non-finite result raises DomainError."""
    x = np.asarray(point, float)
    h = _steps(x, step)
    J = _central(fn, x, h)
    J = (4.0 * _central(fn, x, h / 2.0) - J) / 3.0
    if not np.all(np.isfinite(J)):
        raise DomainError(f"non-finite field value near {x}")
    return J


fd_gradient = fd_jacobian      # a scalar function's Jacobian is its gradient


def _curl_of(J: Array) -> Array:
    """curl F = (dF3/dx2 - dF2/dx3, dF1/dx3 - dF3/dx1, dF2/dx1 - dF1/dx2),
    the antisymmetric part of F's Jacobian J (..., 3, 3), shape (..., 3)."""
    return np.stack([J[..., 2, 1] - J[..., 1, 2], J[..., 0, 2] - J[..., 2, 0],
                     J[..., 1, 0] - J[..., 0, 1]], axis=-1)


def fd_curl(fn: Callable[[Array], Array], point, step: float | None = None) -> Array:
    """The curl of ``fd_jacobian(fn, point, step)``."""
    return _curl_of(fd_jacobian(fn, point, step))


# States per jacobiator block.  A block holds, per state, the 10 stencil
# points of a sphere bracket (13 with no affine coordinates) and their P,
# and the n^3 arrays dP, T and the cyclic sum: at 64 states and n = 6 that
# is 0.18 MB of P and 0.11 MB per n^3 array.  A `check jacobi --model ball`
# suite at -n 1000 peaks at 0.37 MB of numpy allocations at 32, 0.67 MB at
# 64, 1.27 MB at 128 and 9.4 MB with all 1000 states in one block; the
# three jacobi suites take 31, 24 and 33 ms at 32, 64 and 128 (medians of
# 40 interleaved runs, 2-vCPU Xeon VM).  Spectral synthesis sizes its own
# blocks by table entries (spherical.BLOCK_ENTRIES).
CHUNK = 64


def jacobiator(P: Callable[[Array], Array], x, affine: int = 0):
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

    ``affine`` is the number of leading coordinates in which P is affine,
    a contract the caller must honour: along each of them one forward step
    of max(1, |x|) gives the derivative exactly, up to round-off, in place
    of a central pair.  The other coordinates are differenced centrally at
    ``FD_STEP``.
    """
    x = np.asarray(x, float)
    flat = x.reshape(-1, x.shape[-1])
    vals = np.concatenate([_jacobi_block(P, flat[k:k + CHUNK], affine)
                           for k in range(0, flat.shape[0], CHUNK)])
    return point_values(vals.reshape(x.shape[:-1]), x)


def _bracket_derivatives(P, x: Array, affine: int) -> tuple[Array, Array]:
    """P at states of shape (b, n), shape (b, n, n), and its derivatives
    dP[l, b, i, j] = d_l P[i, j], shape (n, b, n, n): a forward step along
    each of the first ``affine`` coordinates, a central pair along the rest."""
    b, n = x.shape
    h, h_affine = _steps(x), _steps(x, 1.0)
    # [0] the states, [1 + l] a forward step along l, [1 + n + l - affine]
    # a backward step along each central l
    X = np.empty((1 + 2 * n - affine, b, n))
    X[...] = x
    for l in range(n):
        X[1 + l, :, l] += (h_affine if l < affine else h)[:, 0]
        if l >= affine:
            X[1 + n + l - affine, :, l] -= h[:, 0]
    PX = np.broadcast_to(np.asarray(P(X), float), X.shape + (n,))
    dP = np.empty((n, b, n, n))
    dP[:affine] = (PX[1:1 + affine] - PX[0]) / h_affine[..., None]
    dP[affine:] = (PX[1 + affine:1 + n] - PX[1 + n:]) / (2.0 * h[..., None])
    return PX[0], dP


def _jacobi_block(P, x: Array, affine: int) -> Array:
    """The jacobiator of states of shape (b, n), shape (b,)."""
    b, n = x.shape
    P0, dP = _bracket_derivatives(P, x, affine)
    # T[b, i, jk] = sum_l P[b, l, i] dP[l, b, jk]: one gemm per state, so a
    # state's value is bitwise the same in any block
    T = np.matmul(P0.transpose(0, 2, 1), dP.reshape(n, b, n * n).transpose(1, 0, 2)).reshape(b, n, n, n)
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


def _leaf_derivative(leaf, x: Array, fd: Callable) -> Array:
    """``fd(leaf, x)`` for a field made without its derivative, differenced
    once per point set: the leaf keeps its latest (points, derivative) pair,
    which the product rule reads several times at the same points."""
    last = leaf._last
    if "x" not in last or not np.array_equal(last["x"], x):
        # a copy, which a caller moving its points in place cannot change;
        # the derivative is read-only, so that no caller can change it
        d = fd(leaf, x)
        d.flags.writeable = False
        last.update(x=x.copy(), d=d)
    return last["d"]


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
    (n,) gives a float.  A field made without a gradient falls back to
    ``fd_gradient`` of itself, differenced once per point set (it keeps its
    latest points and gradient); products and reciprocals carry theirs by
    the product and quotient rules.  The point's dimension is not fixed; the
    same type serves fields of gamma on R^3 and fields of q on R^2.
    """

    fn: Callable[[Array], Array]
    grad: Callable[[Array], Array] | None = None
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, point):
        x = np.asarray(point, float)
        return point_values(self.fn(x), x)

    def gradient(self, point) -> Array:
        x = np.asarray(point, float)
        if self.grad is None:
            return _leaf_derivative(self, x, fd_gradient)
        return _fit(self.grad(x), x.shape)

    @staticmethod
    def constant(c: float) -> "ScalarField":
        return ScalarField(lambda x: c, grad=lambda x: 0.0)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(lambda x: self(x) * other(x),
                               grad=lambda x: lift(self(x)) * other.gradient(x) + lift(other(x)) * self.gradient(x))
        c = float(other)
        return ScalarField(lambda x: c * self(x), grad=lambda x: c * self.gradient(x))

    __rmul__ = __mul__

    def reciprocal(self) -> "ScalarField":
        return ScalarField(lambda x: 1.0 / self(x), grad=lambda x: -self.gradient(x) / lift(self(x) ** 2))


@dataclass(frozen=True)
class VectorField3:
    """An R^3-valued function of gamma, with an optional analytic Jacobian.

    ``fn`` maps points of shape (..., 3) to vectors of shape (..., 3), or to
    one constant 3-vector; one point of shape (3,) gives one 3-vector.
    ``jacobian`` maps them to matrices J[..., i, j] = d fn_i / d x_j of shape
    (..., 3, 3), or to one constant matrix.  A field made without a Jacobian
    falls back to ``fd_jacobian`` of itself, once per point set, as
    ``ScalarField.gradient`` does; sums and scalings carry it by the product
    rule.  The curl is the antisymmetric part of the Jacobian.
    """

    fn: Callable[[Array], Array]
    jacobian: Callable[[Array], Array] | None = None
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, point) -> Array:
        x = np.asarray(point, float)
        return _fit(self.fn(x), x.shape)

    def curl_at(self, point) -> Array:
        return _curl_of(self.jacobian_at(point))

    def jacobian_at(self, point) -> Array:
        x = np.asarray(point, float)
        if self.jacobian is not None:
            return _fit(self.jacobian(x), x.shape + (3,))
        return _leaf_derivative(self, x, fd_jacobian)

    @staticmethod
    def zero() -> "VectorField3":
        return VectorField3(lambda x: 0.0, jacobian=lambda x: 0.0)

    def __add__(self, other: "VectorField3") -> "VectorField3":
        return VectorField3(lambda x: self(x) + other(x),
                            jacobian=lambda x: self.jacobian_at(x) + other.jacobian_at(x))

    def scaled(self, s) -> "VectorField3":
        """Pointwise product s(gamma) * h(gamma); Jacobian s J_h + h (x)
        grad s by the product rule."""
        if not isinstance(s, ScalarField):
            s = ScalarField.constant(float(s))
        return VectorField3(lambda x: lift(s(x)) * self(x),
                            jacobian=lambda x: (lift(s(x), 2) * self.jacobian_at(x)
                                                + self(x)[..., :, None] * s.gradient(x)[..., None, :]))
