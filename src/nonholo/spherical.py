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
gives a float or a 3-vector.  Synthesis builds the Legendre tables for a
chunk of points at once and contracts the coefficients over (l, m) in one
einsum, the batched evaluation of pseudospectral transforms (Schaeffer
2013, SHTns).  The tangential gradient carries Pbar_lm / sin(theta) through
the Legendre recursions instead of dividing by sin(theta), so it is regular
on the whole sphere, poles included.

The solver below finds, for smooth F, a constant c and a tangent vector
field h with (gamma, curl h) = F + c on the sphere: c = -mean(F) makes F + c
zero-mean, the Laplace-Beltrami operator is inverted in the basis above,
and h = u x grad_S psi is the rotated surface gradient of the resulting
potential psi, extended to R^3 as a degree-zero homogeneous field.  Its
orientation is analytic: with psi~ the degree-zero extension of psi,
h(x) = x x grad psi~ and curl h = x Lap psi~ - grad psi~, so on |x| = 1
(gamma, curl h) = Lap_S psi = F + c.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CHUNK, DomainError, ScalarField, VectorField3, fd_curl

Array = np.ndarray

FOUR_PI = 4.0 * np.pi
# the curl-equation residual above which a solve warns, and the stride of the
# subsampled (theta, phi) grid on which the residual and the pushed
# parameters are verified
RESIDUAL_TOL = 1e-6
VERIFY_STRIDE = 4


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
    ntheta = 2 * (L + 1)
    nphi = 2 * L + 1
    x, w = np.polynomial.legendre.leggauss(ntheta)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    return SphereGrid(L, x, w, phi)


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


def _legendre_tables(L: int, x: Array, s: Array, gradient: bool = False):
    """Pbar_lm(cos theta) for all l, m <= L, shape (L+1, L+1, len(x)) indexed
    [l, m], from x = cos(theta) and s = sin(theta) >= 0.

    With ``gradient`` it returns instead the pair (d/dtheta Pbar_lm,
    Pbar_lm / sin(theta)), the second zero at m = 0, and both regular at the
    poles: Pbar_lm / sin(theta) runs through the same recursions as Pbar_lm
    from the seed Pbar_11 / sin(theta), and the theta-derivative is formed
    from the two tables with no division by sin(theta).
    """
    x = np.asarray(x, float)
    n = x.size
    sectoral, dweight, three_term = _recursion(L)
    # T[0] = Pbar, T[1] = Pbar / sin(theta); the sectoral seeds Pbar_mm are
    # a running product of s * sqrt((2m+1)/(2m)), and Pbar_mm / s drops one s
    T = np.zeros((2 if gradient else 1, L + 1, L + 1, n))
    steps = s * sectoral[:, None]
    diag = np.cumprod(np.vstack([np.full((1, n), 1.0 / np.sqrt(FOUR_PI)), steps]), axis=0)
    i = np.arange(L + 1)
    T[0, i, i] = diag
    if gradient and L > 0:
        T[1, i[1:], i[1:]] = np.cumprod(np.vstack([sectoral[:1, None] * diag[:1], steps[1:]]), axis=0)
    T[:, i[1:], i[:-1]] = np.sqrt(2.0 * i[:-1] + 3.0)[:, None] * x * T[:, i[:-1], i[:-1]]
    for l, (a, b) in enumerate(three_term, start=2):
        T[:, l, : l - 1] = a * (x * T[:, l - 1, : l - 1] - b * T[:, l - 2, : l - 1])
    if not gradient:
        return T[0]
    P, Q = T
    # d/dtheta Pbar_lm = l x Q_lm - w_lm Q_(l-1)m for m >= 1, and
    # d/dtheta Pbar_l0 = -sqrt(l(l+1)) Pbar_l1
    Q_prev = np.zeros_like(Q)
    Q_prev[1:] = Q[:-1]
    dP = i[:, None, None] * x * Q - dweight[:, :, None] * Q_prev
    if L > 0:
        dP[:, 0] = -np.sqrt(i * (i + 1.0))[:, None] * P[:, 1]
    return dP, Q


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
        cosm = np.cos(m[:, None] * grid.phi[None, :])
        sinm = np.sin(m[:, None] * grid.phi[None, :])
        scale = 2.0 * np.pi / grid.nphi
        Fc = vals @ cosm.T * scale    # (ntheta, L+1)
        Fs = vals @ sinm.T * scale
        P = _legendre_tables(L, grid.x, np.sqrt(1.0 - grid.x**2))
        c_cos = np.einsum("lmn,n,nm->lm", P, grid.w, Fc)
        c_sin = np.einsum("lmn,n,nm->lm", P, grid.w, Fs)
        c_cos[:, 1:] *= np.sqrt(2.0)
        c_sin[:, 1:] *= np.sqrt(2.0)
        c_sin[:, 0] = 0.0
        return cls(L, c_cos, c_sin)

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
        m = np.arange(self.L + 1)
        # Re(c[l, m] e^{i m phi}) = c_cos cos(m phi) + c_sin sin(m phi), and
        # d/dphi multiplies c by i m
        c = (self.c_cos - 1j * self.c_sin) * np.where(m > 0, np.sqrt(2.0), 1.0)
        sums = np.empty((2 if gradient else 1, u.shape[0]))
        # in blocks of CHUNK points, which bounds the Legendre tables' memory
        for k in range(0, u.shape[0], CHUNK):
            n = slice(k, k + CHUNK)
            E = np.exp(1j * np.outer(m, phi[n]))
            if gradient:
                dP, Q = _legendre_tables(self.L, ct[n], st[n], gradient=True)
                sums[0, n] = np.einsum("lm,lmn,mn->n", c, dP, E).real
                sums[1, n] = np.einsum("lm,lmn,mn->n", 1j * m * c, Q, E).real
            else:
                P = _legendre_tables(self.L, ct[n], st[n])
                sums[0, n] = np.einsum("lm,lmn,mn->n", c, P, E).real
        if not gradient:
            return sums[0].reshape(p.shape[:-1])[()]
        # d_theta f e_theta + (1/sin theta) d_phi f e_phi; the second sum
        # already carries the 1/sin theta
        cp, sp = np.cos(phi), np.sin(phi)
        e_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
        e_phi = np.stack([-sp, cp, np.zeros_like(cp)], axis=-1)
        grad = sums[0][:, None] * e_theta + sums[1][:, None] * e_phi
        return grad.reshape(p.shape)

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
    L: int


def _rotated_gradient(psi: SphereSpectralField) -> VectorField3:
    """h(x) = (u x grad_S psi)(u), u = x/|x| (degree-zero extension), for x
    of shape (..., 3).  On the sphere (gamma, curl h) = Lap_S psi."""

    def fn(x):
        u = np.asarray(x, float)
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        return np.cross(u, psi.surface_gradient(u))

    return VectorField3(fn)


def solve_curl_equation(F, L: int = 32) -> CurlSolution:
    """Find c and a tangent field h with (gamma, curl h) = F(gamma) + c.

    The constant is forced by solvability: c = -mean(F) over the sphere,
    read off the degree-zero coefficient of F.  The reported residual is
    measured independently of the spectral route, with a finite-difference
    curl of h on a subsampled grid.
    """
    if not isinstance(F, ScalarField):
        F = ScalarField(F)
    coeff = SphereSpectralField.analyze(F, L)
    c = -coeff.mean()
    psi = coeff.drop_mean().laplace_invert()
    psi_scale = max(float(np.max(np.abs(psi.c_cos))), float(np.max(np.abs(psi.c_sin))))
    if psi_scale <= 1e-14 * max(1.0, abs(c)):
        # F + c is zero to round-off; the exact solution is h = 0 and the
        # analysis noise would only be amplified by the verification curl
        h = VectorField3.zero()
    else:
        h = _rotated_gradient(psi)

    pts = make_grid(L).points()[::VERIFY_STRIDE, ::VERIFY_STRIDE].reshape(-1, 3)
    lhs = np.einsum("ni,ni->n", pts, fd_curl(h, pts, step=1e-4, richardson=True))
    residual = float(np.max(np.abs(lhs - F(pts) - c)))
    if residual > RESIDUAL_TOL:
        warnings.warn(
            f"curl-equation residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}; "
            f"consider raising the band limit to L={2 * L}",
            stacklevel=2,
        )
    return CurlSolution(c=c, h=h, residual=residual, psi=psi, L=L)
