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
gives a float or a 3-vector.  Coefficients may carry trailing component
axes, as h's four components do below: values then end in those
axes, and gradients in those axes and the 3 of the gradient.  Analysis sums
each ring against e^{-i m phi}, the conjugate of the e^{i m phi} form
synthesis reads.

Synthesis runs on rings (the ring transforms of SHTns, Schaeffer 2013):
points that share a colatitude share one Legendre table and one
contraction over l, and only the Fourier sums over m run per point.  A
ring's contraction runs over l >= m only, the Pbar_lm that are not zero.
The Fourier basis [cos(m phi) | sin(m phi)] is built once per longitude,
and each point's sum over m is one dot product of its ring's row with its
longitude's basis.  The verification grid and the residual's shifted
stencil go to the kernel as rings, each ring at a shared set of
longitudes; points handed to ``value`` or ``surface_gradient`` each get a
ring of their own, as the scattered bracket probes need.  Rings go in
blocks of BLOCK_ENTRIES Legendre-table entries, (L+1)^2 per ring, and a
block's Fourier sums run as one contraction over all its points.  Each
point's result is bitwise the same in any block, on a grid and in a
one-point call.  A whole ball report builds 351 table columns at L = 32 and
runs in 3.8 ms at L = 32, 11 ms at L = 64 and 0.95 s for the ball
A = (0.4, 0.5, 0.99) at L = 256, in process on a 2-vCPU VM.

That kernel synthesizes values only.  A surface gradient is a value too:
on the unit sphere grad_S f = (u x grad_S f) x u, and u x grad_S f is the
angular-momentum ladder image of f, whose coefficients follow from f's in
closed form (_rotated_components).  So nothing is divided by sin(theta),
and values and gradients are regular on the whole sphere, poles included.

The solver below finds, for smooth F, a constant c and a tangent vector
field h with (gamma, curl h) = F + c on the sphere: c = -mean(F) makes F + c
zero-mean, the Laplace-Beltrami operator is inverted in the basis above,
and h = u x grad_S psi is the rotated surface gradient of the resulting
potential psi, extended to R^3 as a degree-zero homogeneous field.  The
solver's field has four trailing components: h's Cartesian components,
read off psi's coefficients through the angular-momentum ladder, and
Lap_S psi = F + c.  h carries the closed-form Jacobian of the first three,
their surface gradients, and its curl is read off that Jacobian.  On the
verification rings the solution hands over h and its normal curl, since
(gamma, curl h) = Lap_S psi on the sphere, the fourth component.  The
reported residual checks (gamma, curl h) = F + c with a finite-difference
curl of those same component values, taken along theta and phi on shifted
rings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import DomainError, ScalarField, VectorField3, latest

Array = np.ndarray

FOUR_PI = 4.0 * np.pi
# the largest curl-equation residual a reduction passes with (read by
# gauge.reduction_report, never raised to make a run pass), and the stride
# of the subsampled (theta, phi) grid on which the residual and the pushed
# parameters are verified
RESIDUAL_TOL = 1e-6
VERIFY_STRIDE = 4
# the angular step of the residual's finite differences along theta and phi
RESIDUAL_STEP = 1e-4
# Legendre table entries per synthesis block, (L+1)^2 per ring: 2 MB of
# float64, 240 rings at L = 32, 62 at L = 64, 15 at L = 128 and 3 at
# L = 256; one ring's table alone exceeds it from L = 512.  Beside its
# table a block holds its coefficient sums, 2 (L+1) entries per ring and
# field component (12 components for h), and the Fourier basis of its
# points, 2 (L+1) per point; a grid's basis, 2 (L+1) per longitude, is
# built once for all its blocks
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
def _recursion(L: int) -> tuple[Array, list]:
    """Coefficients of the Legendre recursions up to degree L: the sectoral
    factors sqrt((2m+1)/(2m)) and, per degree l >= 2, the three-term pair
    (a, b) over orders m < l-1."""
    m = np.arange(1, L + 1)
    sectoral = np.sqrt((2.0 * m + 1.0) / (2.0 * m))
    three_term = []
    for l in range(2, L + 1):
        m = np.arange(0, l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        three_term.append((a[:, None], b[:, None]))
    return sectoral, three_term


def _legendre_tables(L: int, x: Array, s: Array) -> Array:
    """Pbar_lm(cos theta) for all l, m <= L, shape (L+1, L+1, len(x)) indexed
    [l, m], zero where l < m, from x = cos(theta) and s = sin(theta) >= 0."""
    x = np.asarray(x, float)
    n = x.size
    sectoral, three_term = _recursion(L)
    # the sectoral seeds Pbar_mm are a running product of s * sqrt((2m+1)/(2m))
    # from Pbar_00
    T = np.zeros((L + 1, L + 1, n))
    i = np.arange(L + 1)
    T[i, i] = np.cumprod(np.vstack([np.full((1, n), 1.0 / np.sqrt(FOUR_PI)), s * sectoral[:, None]]), axis=0)
    T[i[1:], i[:-1]] = np.sqrt(2.0 * i[:-1] + 3.0)[:, None] * x * T[i[:-1], i[:-1]]
    work = np.empty((max(L - 1, 0), n))
    for l, (a, b) in enumerate(three_term, start=2):
        # Pbar_lm = a (x Pbar_(l-1)m - b Pbar_(l-2)m) over m < l-1, in place
        row, w = T[l, : l - 1], work[: l - 1]
        np.multiply(x, T[l - 1, : l - 1], out=row)
        np.multiply(b, T[l - 2, : l - 1], out=w)
        row -= w
        row *= a
    return T


# ---------------------------------------------------------------------------
# spectral fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereSpectralField:
    """A band-limited scalar field stored as real spherical-harmonic
    coefficients c_cos[l, m] (m <= l) and c_sin[l, m] (1 <= m <= l).  The
    coefficients are fixed once the field is made: synthesis caches what it
    builds from them."""

    L: int
    c_cos: Array
    c_sin: Array
    # built on first use: the coefficient stack synthesis reads and the
    # ladder field surface gradients read
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def analyze(cls, field, L: int) -> "SphereSpectralField":
        """Project a scalar field onto the basis with the grid quadrature."""
        grid = make_grid(L)
        vals = _grid_values(field, grid)
        m = np.arange(L + 1)
        # per ring, sum over phi of f e^{-i m phi} = F_cos - i F_sin
        F = vals @ np.exp(-1j * np.outer(grid.phi, m)) * (2.0 * np.pi / grid.nphi)
        # the rings' Legendre tables in blocks of BLOCK_ENTRIES entries, as
        # synthesis builds them: whole, they took 0.9 GB at L = 384
        c = np.zeros((L + 1, L + 1), complex)
        block = max(1, BLOCK_ENTRIES // (L + 1) ** 2)
        for k in range(0, grid.ntheta, block):
            r = slice(k, k + block)
            P = _legendre_tables(L, grid.x[r], np.sqrt(1.0 - grid.x[r] ** 2))
            c += np.einsum("lmn,n,nm->lm", P, grid.w[r], F[r])
        c *= np.where(m > 0, np.sqrt(2.0), 1.0)
        return cls(L, c.real, -c.imag)

    def value(self, points):
        """Field values at the radial projections of points of shape
        (..., 3), shape (...); a float for one point.  The origin and a
        point with a NaN or infinite coordinate have no radial projection
        and raise DomainError."""
        u = _radial(points)[0]
        x, y, z = u.reshape(-1, 3).T
        sums = self._ring_sums(np.clip(z, -1.0, 1.0), np.hypot(x, y), np.arctan2(y, x))
        return sums.reshape(u.shape[:-1] + self.c_cos.shape[2:])[()]

    def surface_gradient(self, points) -> Array:
        """Tangential gradient at the radial projections of points of shape
        (..., 3), shape (..., 3): on the unit sphere grad_S f = (u x grad_S f)
        x u, so it is the value of the ladder field (_rotated_components)
        crossed with u."""
        if "ladder" not in self._cache:
            self._cache["ladder"] = _rotated_components(self)
        h = self._cache["ladder"].value(points)      # rejects the origin and non-finite points
        u = _radial(points)[0]
        return np.cross(h, u.reshape(u.shape[:-1] + (1,) * (self.c_cos.ndim - 2) + (3,)))

    def _ring_sums(self, x: Array, s: Array, phi: Array, grid: bool = False) -> Array:
        """The synthesis kernel, at rings with cos(theta) x and sin(theta) s.
        Point k lies on ring k at longitude phi[k], shape (n, *comp); with
        ``grid``, every ring holds a point at every longitude phi,
        shape (len(x), len(phi), *comp).  comp are the trailing component
        axes of the coefficients.

        Rings go in blocks of BLOCK_ENTRIES Legendre-table entries, (L+1)^2
        per ring.  Each block builds one table and contracts each order m
        with the coefficient rows over l >= m only; each point's sum over m
        is then one contraction of its ring's [cos | sin] row with the basis
        [cos(m phi) | sin(m phi)] of its longitude, built once per
        longitude.  Both run as einsums, which sum each ring over l in the
        order of l whether a block holds one ring or many, and each point
        over m as a dot product of two contiguous rows of one length; a
        BLAS matmul would run gemv for one ring and gemm for a stack.  So
        each point's value is bitwise the same in any block, on a grid and
        in a one-point call.
        """
        L, C = self.L, self._coefficient_stack()
        rows = C.shape[1]

        def basis(phi):
            m_phi = np.multiply.outer(phi, np.arange(L + 1))
            return np.concatenate([np.cos(m_phi), np.sin(m_phi)], axis=-1)

        on_grid = basis(phi) if grid else None
        sums = np.empty((x.size, phi.size, rows // 2) if grid else (x.size, rows // 2))
        block = max(1, BLOCK_ENTRIES // (L + 1) ** 2)
        for k in range(0, x.size, block):
            r = slice(k, k + block)
            T = _legendre_tables(L, x[r], s[r])
            S = np.empty((L + 1, rows, T.shape[-1]))
            for j in range(L + 1):
                np.einsum("kl,ln->kn", C[j, :, j:], T[j:, j], out=S[j])
            del T       # freed before the copy and the Fourier sums, which keeps peak memory down
            # S[ring, component, t]: a component's cos row, then its sin row
            S = np.ascontiguousarray(S.transpose(2, 1, 0)).reshape(-1, rows // 2, 2 * (L + 1))
            if grid:
                np.einsum("nct,pt->npc", S, on_grid, out=sums[r])
            else:
                np.einsum("nct,nt->nc", S, basis(phi[r]), out=sums[r])
        return sums.reshape(sums.shape[:-1] + self.c_cos.shape[2:])

    def _coefficient_stack(self) -> Array:
        """The real coefficient rows that synthesis contracts with the
        Legendre table over l, shape (L+1, rows, L+1) indexed [m, row, l],
        built once per field: per trailing component in turn, the
        coefficients a of Pbar_lm cos(m phi), then b of Pbar_lm sin(m phi)."""
        if "stack" in self._cache:
            return self._cache["stack"]
        n = self.c_cos.ndim - 2                  # trailing component axes
        m = np.arange(self.L + 1).reshape((-1,) + (1,) * n)
        norm = np.where(m > 0, np.sqrt(2.0), 1.0)
        C = np.stack([self.c_cos * norm, self.c_sin * norm], axis=-1).transpose(1, *range(2, 3 + n), 0)
        C = self._cache["stack"] = np.ascontiguousarray(C).reshape(self.L + 1, -1, self.L + 1)
        C.flags.writeable = False
        return C

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
    worst_gamma: Array      # the verification point where the residual is largest
    # the verification points, shape (n, 3), and h, shape (n, 3), and its
    # normal curl (gamma, curl h) = Lap_S psi, shape (n,), there,
    # synthesized on the verification rings (_ring_curl)
    points: Array
    verify_h: Array
    verify_normal_curl: Array


def _radial(points) -> tuple[Array, Array]:
    """Radial projections u and norms r (..., 1) of points (..., 3), each
    scaled first by the power of two of its largest coordinate, so that no
    square overflows or underflows; refuses the origin and non-finite points."""
    p = np.asarray(points, float)
    if not np.all(np.isfinite(p)):
        raise DomainError("spectral field evaluated at a non-finite point")
    e = np.frexp(np.max(np.abs(p), axis=-1, keepdims=True))[1]
    q = np.ldexp(p, -e)
    r = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(r == 0.0):
        raise DomainError("spectral field evaluated at the origin")
    return q / r, np.ldexp(r, e)


def _rotated_components(psi: SphereSpectralField) -> SphereSpectralField:
    """The Cartesian components of h = u x grad_S psi as one field with a
    last component axis of 3, coefficients of shape (L+1, L+1, *comp, 3) for
    psi's own trailing component axes comp.

    On the unit sphere u x grad_S psi = x x grad psi~ = i L psi~, with
    L = -i x x grad the angular-momentum operator, which keeps each degree l;
    so the components are read off psi's coefficients with no analysis and
    no synthesis.  h_z = d_phi psi maps (c_cos, c_sin) to (m c_sin,
    -m c_cos).  h_x + i h_y = i L_+ psi couples the orders m -+ 1 through
    k_lm = sqrt((l-m)(l+m+1)), taken sqrt(2) times larger at m = 0 in this
    orthonormal real basis, whose Pbar carry no Condon-Shortley phase:
        h_x: c_cos[m] = -(k_(m-1) c_sin[m-1] + k_m c_sin[m+1]) / 2,
             c_sin[m] = (k_(m-1) c_cos[m-1] + k_m c_cos[m+1]) / 2;
        h_y: c_cos[m] = (k_m c_cos[m+1] - k_(m-1) c_cos[m-1]) / 2,
             c_sin[m] = (k_m c_sin[m+1] - k_(m-1) c_sin[m-1]) / 2,
    with every c_sin at m = 0 zero.
    """
    l, m = np.ogrid[: psi.L + 1, : psi.L + 1]
    k = np.sqrt(np.maximum((l - m) * (l + m + 1.0), 0.0)) * np.where(m == 0, np.sqrt(2.0), 1.0)
    # k and m broadcast over psi's trailing component axes
    comp = (1,) * (psi.c_cos.ndim - 2)
    k, m = k.reshape(k.shape + comp), m.reshape(m.shape + comp)

    def ladder(c, sign):
        """(k_m c[m+1] + sign k_(m-1) c[m-1]) / 2 over the order axis."""
        out = np.zeros_like(c)
        out[:, :-1] = k[:, :-1] * c[:, 1:]
        out[:, 1:] += sign * (k * c)[:, :-1]
        return 0.5 * out

    cc, cs = psi.c_cos, psi.c_sin
    c_cos = np.stack([-ladder(cs, 1.0), ladder(cc, -1.0), m * cs], axis=-1)
    c_sin = np.stack([ladder(cc, 1.0), ladder(cs, -1.0), -m * cc], axis=-1)
    c_sin[:, 0] = 0.0
    return SphereSpectralField(psi.L, c_cos, c_sin)


def _rotated_gradient(components: SphereSpectralField) -> VectorField3:
    """h(x) = (u x grad_S psi)(u), u = x/|x| (degree-zero extension), for x
    of shape (..., 3), from the field of h's Cartesian components
    (_rotated_components).  h carries its closed-form Jacobian dh_i/dx_j =
    (grad_S h_i(u))_j / |x|, shape (..., 3, 3): the components' surface
    gradients, the values of their nine ladder components, crossed with u.
    All 12 are synthesized as one field, so that h and its Jacobian (and so
    its curl) at the same points share one Legendre table per point."""
    L, ladder = components.L, _rotated_components(components)
    full = SphereSpectralField(L, np.concatenate([components.c_cos, ladder.c_cos.reshape(L + 1, L + 1, 9)], -1),
                               np.concatenate([components.c_sin, ladder.c_sin.reshape(L + 1, L + 1, 9)], -1))
    # the values at the latest points: a Jacobian by the product rule
    # (VectorField3.scaled, or the curl in gauge.pushforward_params) reads h
    # and its Jacobian at the same points, and so does the state Jacobian
    # at the states' gamma; full.value rejects the origin and non-finite points
    last = {}

    def values(x):
        return latest(last, np.asarray(x, float), full.value)

    def jacobian(x):
        v = values(x)
        u, r = _radial(x)
        return np.cross(v[..., 3:].reshape(v.shape[:-1] + (3, 3)), u[..., None, :]) / r[..., None]

    return VectorField3(lambda x: values(x)[..., :3], jacobian=jacobian)


def _ring_curl(field: SphereSpectralField, L: int) -> tuple[Array, Array]:
    """(gamma, curl h) for h with the Cartesian components ``field[..., :3]``
    (_rotated_components) at the verification points, shape (n,) in
    verify_points order, by finite differences on shifted rings; and
    ``field``'s values at the verification points, shape (n, *comp).

    On the sphere (gamma, curl h) = (d_theta(sin theta h_phi) - d_phi h_theta)
    / sin theta.  The theta differences read the rings theta +- RESIDUAL_STEP
    and theta +- RESIDUAL_STEP/2 at the verification longitudes, the phi
    differences the longitudes phi +- RESIDUAL_STEP and phi +- RESIDUAL_STEP/2
    on the verification rings; each takes one Richardson level.  h_theta and
    h_phi are projections of the component values that h returns and whose
    surface gradients are its Jacobian, so wrong components fail the check.
    The verification rings, which are Gauss-Legendre nodes and never a pole,
    hold the verification longitudes too: the field's values there cost no
    Legendre table of their own.
    """
    grid = make_grid(L)
    x = grid.x[::VERIFY_STRIDE]
    s = np.sqrt(1.0 - x**2)
    phi = grid.phi[::VERIFY_STRIDE]
    nv, nphi = x.size, phi.size
    d = RESIDUAL_STEP * np.array([1.0, -1.0, 0.5, -0.5])
    # (nv, offset, longitude) each: sin(theta) h_phi on the 4 nv shifted
    # rings, h_theta at the 4 nphi shifted longitudes
    shifted = (np.arccos(x)[:, None] + d).ravel()
    h = field._ring_sums(np.cos(shifted), np.sin(shifted), phi, grid=True)[..., :3]
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros(nphi)], axis=-1)
    along_theta = (np.sin(shifted)[:, None] * np.vecdot(h, e_phi)).reshape(nv, 4, nphi)
    lon = np.concatenate([(phi + d[:, None]).ravel(), phi])
    on_rings = field._ring_sums(x, s, lon, grid=True)
    cp, sp = np.cos(lon[: 4 * nphi]), np.sin(lon[: 4 * nphi])
    e_theta = np.stack(np.broadcast_arrays(x[:, None] * cp, x[:, None] * sp, -s[:, None]), axis=-1)
    along_phi = np.vecdot(on_rings[:, : 4 * nphi, :3], e_theta).reshape(nv, 4, nphi)

    def extrapolated(v):
        wide = (v[:, 0] - v[:, 1]) / (2.0 * RESIDUAL_STEP)
        narrow = (v[:, 2] - v[:, 3]) / RESIDUAL_STEP
        return (4.0 * narrow - wide) / 3.0

    curl = ((extrapolated(along_theta) - extrapolated(along_phi)) / s[:, None]).ravel()
    return curl, on_rings[:, 4 * nphi:].reshape((nv * nphi,) + on_rings.shape[2:])


def solve_curl_equation(F, L: int = 32) -> CurlSolution:
    """Find c and a tangent field h with (gamma, curl h) = F(gamma) + c.

    The constant is forced by solvability: c = -mean(F) over the sphere,
    read off the degree-zero coefficient of F.  The reported residual is
    measured independently of the spectral route, with a finite-difference
    curl of h on the verification grid (_ring_curl); ``gauge.reduction_report``
    holds it against RESIDUAL_TOL.  ``worst_gamma`` is the verification point
    where it is largest.
    """
    if not isinstance(F, ScalarField):
        F = ScalarField(F)
    coeff = SphereSpectralField.analyze(F, L)
    c = -coeff.mean()
    lap = coeff.drop_mean()
    psi = lap.laplace_invert()
    psi_scale = max(float(np.max(np.abs(psi.c_cos))), float(np.max(np.abs(psi.c_sin))))
    pts = verify_points(L)
    if psi_scale <= 1e-14 * max(1.0, abs(c)):
        # F + c is zero to round-off; the exact solution is h = 0, whose curl
        # is exactly zero, and the analysis noise would only be amplified by
        # the verification curl
        h, lhs, values = VectorField3.zero(), 0.0, np.zeros((len(pts), 4))
    else:
        components = _rotated_components(psi)
        field = SphereSpectralField(L, np.dstack([components.c_cos, lap.c_cos]),
                                    np.dstack([components.c_sin, lap.c_sin]))
        (lhs, values), h = _ring_curl(field, L), _rotated_gradient(components)
    deviation = np.abs(lhs - F(pts) - c)
    worst = int(np.argmax(deviation))
    return CurlSolution(c=c, h=h, residual=float(deviation[worst]), psi=psi, worst_gamma=pts[worst],
                        points=pts, verify_h=values[:, :3], verify_normal_curl=values[:, 3])
