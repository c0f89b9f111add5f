"""Quadrature and real spherical harmonics on the unit sphere.

The grid is Gauss-Legendre in colatitude crossed with a uniform (trapezoid)
rule in longitude, which integrates band-limited functions exactly up to the
grid's degree.  Spectral fields use the orthonormal real basis

    Y_l0        = Pbar_l0(cos th)
    Y_lm^cos    = sqrt(2) Pbar_lm(cos th) cos(m ph)
    Y_lm^sin    = sqrt(2) Pbar_lm(cos th) sin(m ph)

with Pbar the fully normalized associated Legendre functions, so that the
surface integral of Y^2 is one.  Spectral fields accept arrays of points of
shape (..., 3), read at their radial projections; one point of shape (3,)
gives a float or a 3-vector.  Analysis sums each ring against e^{-i m phi},
the conjugate of the e^{i m phi} form synthesis reads.

Synthesis evaluates a field at scattered points, the bracket probes and the
residual's finite-difference stencil, which lie on no ring of the grid, so
ring transforms (Schaeffer 2013, SHTns) do not apply.  Points go in blocks of
BLOCK_ENTRIES Legendre-table entries, (L+1)^2 per point.  Each block builds
one table, Pbar_lm for the value or Pbar_lm / sin(theta) for the tangential
gradient, contracts it over l with a stack of real coefficient rows in one
einsum, and finishes with real Fourier sums over m.  The gradient's theta
derivative is taken in coefficient space, through the identity
d/dtheta Pbar_lm = l cos(theta) Q_lm - w_lm Q_(l-1)m, Q = Pbar / sin(theta),
so no derivative table is built and nothing is divided by sin(theta): the
gradient is regular on the whole sphere, poles included.  Each point's
result is the same in any block, one-point calls included.

The solver below finds, for smooth F, a constant c and a tangent vector
field h with (gamma, curl h) = F + c on the sphere: c = -mean(F) makes F + c
zero-mean, the Laplace-Beltrami operator is inverted in the basis above,
and h = u x grad_S psi is the rotated surface gradient of the resulting
potential psi, extended to R^3 as a degree-zero homogeneous field.  With
psi~ that extension, h(x) = x x grad psi~ carries its closed-form curl
x Lap psi~ - grad psi~, so on |x| = 1 (gamma, curl h) = Lap_S psi = F + c;
the reported residual checks this with a finite-difference curl.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DomainError, ScalarField, VectorField3, fd_curl, lift

Array = np.ndarray

FOUR_PI = 4.0 * np.pi
# the largest curl-equation residual a reduction passes with (read by
# gauge.reduction_report, never raised to make a run pass), and the stride
# of the subsampled (theta, phi) grid on which the residual and the pushed
# parameters are verified
RESIDUAL_TOL = 1e-6
VERIFY_STRIDE = 4
# Legendre table entries per synthesis block, (L+1)^2 per point: 2 MB of
# float64, 240 points at L = 32 and 62 at L = 64
BLOCK_ENTRIES = 2 ** 18


# ---------------------------------------------------------------------------
# grid and quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid exact for band limit roughly 2L."""

    L: int
    x: Array        # Gauss-Legendre nodes, cos(theta), shape (ntheta,)
    w: Array        # Gauss-Legendre weights, shape (ntheta,)
    phi: Array      # uniform longitudes, shape (nphi,)

    @property
    def ntheta(self) -> int:
        return self.x.size

    @property
    def nphi(self) -> int:
        return self.phi.size

    def points(self) -> Array:
        """All grid points as unit vectors, shape (ntheta, nphi, 3)."""
        st = np.sqrt(1.0 - self.x**2)
        ct = self.x
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        pts = np.empty((self.ntheta, self.nphi, 3))
        pts[..., 0] = st[:, None] * cp[None, :]
        pts[..., 1] = st[:, None] * sp[None, :]
        pts[..., 2] = ct[:, None] * np.ones_like(cp)[None, :]
        return pts


@lru_cache(maxsize=8)
def make_grid(L: int) -> SphereGrid:
    if L < 1:
        raise DomainError(f"band limit L must be at least 1, got {L}")
    ntheta = 2 * (L + 1)
    nphi = 2 * L + 1
    x, w = np.polynomial.legendre.leggauss(ntheta)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    return SphereGrid(L, x, w, phi)


def verify_points(L: int) -> Array:
    """The verification grid: every VERIFY_STRIDE-th ring and longitude of
    the L grid, as unit vectors of shape (n, 3)."""
    return make_grid(L).points()[::VERIFY_STRIDE, ::VERIFY_STRIDE].reshape(-1, 3)


def _grid_values(field, grid: SphereGrid) -> Array:
    """A scalar field at every grid point in one call, shape (ntheta, nphi)."""
    if not isinstance(field, ScalarField):
        field = ScalarField(field)
    vals = field(grid.points())
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"field is non-finite on the L={grid.L} sphere grid")
    return vals


def sphere_quadrature(field, L: int = 32) -> float:
    """Surface integral of a scalar field over the unit sphere."""
    grid = make_grid(L)
    vals = _grid_values(field, grid)
    return float((grid.w @ vals.sum(axis=1)) * (2.0 * np.pi / grid.nphi))


# ---------------------------------------------------------------------------
# normalized associated Legendre functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _recursion(L: int) -> tuple[Array, Array, list]:
    """Coefficients of the Legendre recursions up to degree L: the sectoral
    factors sqrt((2m+1)/(2m)), the derivative weights
    sqrt((l^2-m^2)(2l+1)/(2l-1)) and, per degree l >= 2, the three-term
    pair (a, b) over orders m < l-1."""
    m = np.arange(1, L + 1)
    sectoral = np.sqrt((2.0 * m + 1.0) / (2.0 * m))
    l, mm = np.meshgrid(np.arange(L + 1.0), np.arange(L + 1.0), indexing="ij")
    dweight = np.sqrt(np.maximum(l * l - mm * mm, 0.0) * (2.0 * l + 1.0) / (2.0 * l - 1.0))
    three_term = []
    for l in range(2, L + 1):
        m = np.arange(0, l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        three_term.append((a[:, None], b[:, None]))
    return sectoral, dweight, three_term


def _legendre_tables(L: int, x: Array, s: Array, gradient: bool = False) -> Array:
    """Pbar_lm(cos theta) for all l, m <= L, shape (L+1, L+1, len(x)) indexed
    [l, m], from x = cos(theta) and s = sin(theta) >= 0.

    With ``gradient`` it returns instead Pbar_lm / sin(theta), zero at m = 0
    and regular at the poles: the same recursions run from the seed
    Pbar_11 / sin(theta), so nothing is divided by sin(theta).
    """
    x = np.asarray(x, float)
    n = x.size
    sectoral, _, three_term = _recursion(L)
    # the sectoral seeds Pbar_mm are a running product of s * sqrt((2m+1)/(2m))
    # from Pbar_00; Pbar_mm / s drops one s and has no m = 0 column
    T = np.zeros((L + 1, L + 1, n))
    steps = s * sectoral[:, None]
    p00 = np.full((1, n), 1.0 / np.sqrt(FOUR_PI))
    i = np.arange(L + 1)
    if gradient:
        T[i[1:], i[1:]] = np.cumprod(np.vstack([sectoral[:1, None] * p00, steps[1:]]), axis=0)
    else:
        T[i, i] = np.cumprod(np.vstack([p00, steps]), axis=0)
    T[i[1:], i[:-1]] = np.sqrt(2.0 * i[:-1] + 3.0)[:, None] * x * T[i[:-1], i[:-1]]
    for l, (a, b) in enumerate(three_term, start=2):
        T[l, : l - 1] = a * (x * T[l - 1, : l - 1] - b * T[l - 2, : l - 1])
    return T


# ---------------------------------------------------------------------------
# spectral fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereSpectralField:
    """A band-limited scalar field stored as real spherical-harmonic
    coefficients c_cos[l, m] (m <= l) and c_sin[l, m] (1 <= m <= l)."""

    L: int
    c_cos: Array
    c_sin: Array

    @classmethod
    def analyze(cls, field, L: int) -> "SphereSpectralField":
        """Project a scalar field onto the basis with the grid quadrature."""
        grid = make_grid(L)
        vals = _grid_values(field, grid)
        m = np.arange(L + 1)
        # per ring, sum over phi of f e^{-i m phi} = F_cos - i F_sin
        F = vals @ np.exp(-1j * np.outer(grid.phi, m)) * (2.0 * np.pi / grid.nphi)
        P = _legendre_tables(L, grid.x, np.sqrt(1.0 - grid.x**2))
        c = np.einsum("lmn,n,nm->lm", P, grid.w, F) * np.where(m > 0, np.sqrt(2.0), 1.0)
        return cls(L, c.real, -c.imag)

    def value(self, points):
        """Field values at the radial projections of points of shape
        (..., 3), shape (...); a float for one point."""
        return self._synthesize(points, gradient=False)

    def surface_gradient(self, points) -> Array:
        """Tangential gradient at the radial projections of points of shape
        (..., 3), shape (..., 3)."""
        return self._synthesize(points, gradient=True)

    def _synthesize(self, points, gradient: bool):
        p = np.asarray(points, float)
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        if np.any(r == 0.0):
            raise DomainError("spectral field evaluated at the origin")
        u = (p / r).reshape(-1, 3)
        ct = np.clip(u[:, 2], -1.0, 1.0)
        st = np.hypot(u[:, 0], u[:, 1])
        phi = np.arctan2(u[:, 1], u[:, 0])
        C = self._coefficient_stack(gradient)
        m = np.arange(self.L + 1)
        sums = np.empty((2 if gradient else 1, u.shape[0]))
        block = max(1, BLOCK_ENTRIES // (self.L + 1) ** 2)
        for k in range(0, u.shape[0], block):
            n = slice(k, k + block)
            E = np.exp(1j * np.outer(phi[n], m))
            cos, sin = E.real, E.imag
            T = _legendre_tables(self.L, ct[n], st[n], gradient)
            # S[point, row, m]; each point's result is bitwise the same in any
            # block: einsum, unlike a BLAS matmul (gemv for one point, gemm
            # for a stack), contracts one point as it does many, and every
            # m-sum runs along a contiguous last axis
            S = np.ascontiguousarray(np.einsum("mkl,lmn->mkn", C, T).transpose(2, 1, 0))
            if gradient:
                # d_theta f = x sum(l a Q) - sum(shift(a w) Q) (and the same in
                # b) plus s times the m = 0 row, whose only entry is at m = 1;
                # (1/sin theta) d_phi f = sum(m (b cos - a sin) Q)
                x = ct[n, None]
                sums[0, n] = ((x * S[:, 0] - S[:, 2]) * cos + (x * S[:, 1] - S[:, 3]) * sin).sum(-1) \
                    + st[n] * S[:, 6].sum(-1)
                sums[1, n] = (S[:, 5] * cos - S[:, 4] * sin).sum(-1)
            else:
                sums[0, n] = (S[:, 0] * cos + S[:, 1] * sin).sum(-1)
        if not gradient:
            return sums[0].reshape(p.shape[:-1])[()]
        # d_theta f e_theta + (1/sin theta) d_phi f e_phi; the second sum
        # already carries the 1/sin theta
        cp, sp = np.cos(phi), np.sin(phi)
        e_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
        e_phi = np.stack([-sp, cp, np.zeros_like(cp)], axis=-1)
        grad = sums[0][:, None] * e_theta + sums[1][:, None] * e_phi
        return grad.reshape(p.shape)

    def _coefficient_stack(self, gradient: bool) -> Array:
        """The real coefficient rows that synthesis contracts with the
        Legendre table over l, shape (L+1, rows, L+1) indexed [m, row, l].

        With a, b the coefficients of Pbar_lm cos(m phi) and Pbar_lm sin(m phi),
        the value reads the rows [a, b] against the Pbar table.  The gradient
        reads [l a, l b, shift(a w), shift(b w), m a, m b, D] against the
        Q = Pbar / sin(theta) table: d/dtheta Pbar_lm = l x Q_lm - w_lm Q_(l-1)m
        for m >= 1, with w the derivative weights, so shift(a w)[l] =
        a[l+1] w[l+1]; d/dtheta Pbar_l0 = -sqrt(l(l+1)) s Q_l1, so the m = 0
        column rides in row D at m = 1 as -sqrt(l(l+1)) a[l, 0].
        """
        m = np.arange(self.L + 1)
        norm = np.where(m > 0, np.sqrt(2.0), 1.0)
        a, b = self.c_cos * norm, self.c_sin * norm
        if not gradient:
            rows = [a, b]
        else:
            l = m[:, None]
            w = _recursion(self.L)[1]
            aw, bw = np.zeros_like(a), np.zeros_like(b)
            aw[:-1], bw[:-1] = (a * w)[1:], (b * w)[1:]
            D = np.zeros_like(a)
            D[:, 1:2] = -np.sqrt(l * (l + 1.0)) * a[:, :1]
            rows = [l * a, l * b, aw, bw, m * a, m * b, D]
        return np.ascontiguousarray(np.stack(rows).transpose(2, 0, 1))

    def laplace_invert(self) -> "SphereSpectralField":
        """Solve Laplace-Beltrami(psi) = self with zero-mean data and result."""
        l = np.arange(self.L + 1)
        eig = -l * (l + 1.0)
        inv = np.zeros_like(eig)
        inv[1:] = 1.0 / eig[1:]
        return SphereSpectralField(self.L, self.c_cos * inv[:, None],
                                   self.c_sin * inv[:, None])

    def mean(self) -> float:
        """Average over the sphere; the l=0 coefficient carries it all."""
        return float(self.c_cos[0, 0] / np.sqrt(FOUR_PI))

    def drop_mean(self) -> "SphereSpectralField":
        c = self.c_cos.copy()
        c[0, 0] = 0.0
        return SphereSpectralField(self.L, c, self.c_sin)


# ---------------------------------------------------------------------------
# the tangential curl equation (gamma, curl h) = F + c
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurlSolution:
    c: float
    h: VectorField3
    residual: float
    psi: SphereSpectralField


def _rotated_gradient(psi: SphereSpectralField, lap: SphereSpectralField) -> VectorField3:
    """h(x) = (u x grad_S psi)(u), u = x/|x| (degree-zero extension), for x
    of shape (..., 3), with its closed-form curl
    curl h(x) = (u Lap_S psi(u) - grad_S psi(u)) / |x|, where lap = Lap_S psi."""

    def fn(x):
        u = np.asarray(x, float)
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        return np.cross(u, psi.surface_gradient(u))

    def curl(x):
        x = np.asarray(x, float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return (x / r * lift(lap.value(x)) - psi.surface_gradient(x)) / r

    return VectorField3(fn, curl=curl)


def solve_curl_equation(F, L: int = 32) -> CurlSolution:
    """Find c and a tangent field h with (gamma, curl h) = F(gamma) + c.

    The constant is forced by solvability: c = -mean(F) over the sphere,
    read off the degree-zero coefficient of F.  The reported residual is
    measured independently of the spectral route, with a finite-difference
    curl of h on the verification grid; ``gauge.reduction_report`` holds it
    against RESIDUAL_TOL.
    """
    if not isinstance(F, ScalarField):
        F = ScalarField(F)
    coeff = SphereSpectralField.analyze(F, L)
    c = -coeff.mean()
    lap = coeff.drop_mean()
    psi = lap.laplace_invert()
    psi_scale = max(float(np.max(np.abs(psi.c_cos))), float(np.max(np.abs(psi.c_sin))))
    if psi_scale <= 1e-14 * max(1.0, abs(c)):
        # F + c is zero to round-off; the exact solution is h = 0 and the
        # analysis noise would only be amplified by the verification curl
        h = VectorField3.zero()
    else:
        h = _rotated_gradient(psi, lap)

    pts = verify_points(L)
    lhs = np.einsum("ni,ni->n", pts, fd_curl(h, pts, step=1e-4, richardson=True))
    residual = float(np.max(np.abs(lhs - F(pts) - c)))
    return CurlSolution(c=c, h=h, residual=residual, psi=psi)
