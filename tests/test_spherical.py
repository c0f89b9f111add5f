"""Quadrature, spherical-harmonic transforms, and the curl-equation solver."""

import warnings

import numpy as np
import pytest

from nonholo import (
    BallParams,
    DomainError,
    GFParams,
    ScalarField,
    SphereSpectralField,
    VeselovaParams,
    ball_system,
    curl_target_F,
    fd_curl,
    fd_gradient,
    make_grid,
    pushforward_params,
    reduce_to_e3,
    reduction_report,
    solve_curl_equation,
    sphere_quadrature,
    veselova_system,
)
import nonholo.core as core
import nonholo.spherical as spherical
from nonholo.gauge import _pushed_f
from nonholo.models import DEMO_BALL, DEMO_GYROSTAT, DEMO_VESELOVA
from nonholo.spherical import RESIDUAL_TOL, verify_points

FOUR_PI = 4 * np.pi


class TestQuadrature:
    @pytest.mark.parametrize("L", [0, -3])
    def test_band_limit_below_one_rejected(self, L):
        with pytest.raises(DomainError, match=f"band limit L must be at least 1, got {L}"):
            make_grid(L)
        with pytest.raises(DomainError, match="band limit L"):
            solve_curl_equation(ScalarField(lambda g: g[..., 2]), L=L)

    def test_non_finite_field_rejected(self):
        with pytest.raises(DomainError, match="non-finite on the L=8 sphere grid"):
            sphere_quadrature(lambda g: np.full(g.shape[:-1], np.nan), 8)

    def test_constant(self):
        assert sphere_quadrature(lambda g: 1.0) == pytest.approx(FOUR_PI, abs=1e-12)

    def test_odd_moment_vanishes(self):
        assert sphere_quadrature(lambda g: g[..., 2]) == pytest.approx(0.0, abs=1e-12)

    def test_second_moment(self):
        assert sphere_quadrature(lambda g: g[..., 2] ** 2) == pytest.approx(FOUR_PI / 3, abs=1e-12)

    def test_mixed_moment(self):
        # int g1^2 g2^2 = 4 pi / 15
        val = sphere_quadrature(lambda g: g[..., 0] ** 2 * g[..., 1] ** 2)
        assert val == pytest.approx(FOUR_PI / 15, abs=1e-12)


def random_band_limited(rng, L):
    c_cos = np.zeros((L + 1, L + 1))
    c_sin = np.zeros((L + 1, L + 1))
    for l in range(L + 1):
        c_cos[l, : l + 1] = rng.standard_normal(l + 1)
        c_sin[l, 1: l + 1] = rng.standard_normal(l)
    return SphereSpectralField(L, c_cos, c_sin)


def points_off_the_poles(rng, n=200):
    """Unit points with |cos(theta)| <= 0.99, as (theta, phi, u)."""
    theta, phi = np.arccos(rng.uniform(-0.99, 0.99, n)), rng.uniform(0.0, 2.0 * np.pi, n)
    u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
    return theta, phi, u


def scipy_surface_gradient(f, theta, phi):
    """f's surface gradient from scipy's harmonics, an oracle independent of
    the ladder: d_theta f e_theta + (d_phi f / sin(theta)) e_phi, with the
    Condon-Shortley phase taken out as in test_value_matches_scipy_harmonics;
    sin(theta) divides, so away from the poles only."""
    sph_harm_y_all = pytest.importorskip("scipy.special").sph_harm_y_all
    dY = sph_harm_y_all(f.L, f.L, theta, phi, diff_n=1)[1]
    l, m = np.tril_indices(f.L + 1)
    dY = ((-1.0) ** m * np.where(m > 0, np.sqrt(2.0), 1.0))[:, None, None] * dY[l, m]
    d_theta, d_phi = (f.c_cos[l, m, None, None] * dY.real + f.c_sin[l, m, None, None] * dY.imag).sum(axis=0).T
    e_theta = np.stack([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)], axis=-1)
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    return d_theta[:, None] * e_theta + (d_phi / np.sin(theta))[:, None] * e_phi


class TestSpectralField:
    def test_analysis_synthesis_round_trip(self, rng):
        f = random_band_limited(rng, 12)
        g = SphereSpectralField.analyze(ScalarField(f.value), 12)
        np.testing.assert_allclose(g.c_cos, f.c_cos, atol=1e-10)
        np.testing.assert_allclose(g.c_sin, f.c_sin, atol=1e-10)

    def test_degree_one_harmonics(self):
        # gamma_3 = sqrt(4 pi / 3) * Y_10
        f = SphereSpectralField.analyze(ScalarField(lambda g: g[..., 2]), 4)
        assert f.c_cos[1, 0] == pytest.approx(np.sqrt(FOUR_PI / 3), abs=1e-12)
        others = np.abs(f.c_cos).sum() + np.abs(f.c_sin).sum() - abs(f.c_cos[1, 0])
        assert others <= 1e-12

    def test_analysis_builds_its_tables_in_blocks(self, monkeypatch):
        # the analysis grid's 130 rings at L = 64 go in blocks of
        # BLOCK_ENTRIES table entries, 62 rings each (one table of all 130
        # took 0.9 GB at L = 384); one ring per block and one block for all
        # agree with them to round-off
        L = 64
        F = ScalarField(lambda g: np.exp(g[..., 0]) * g[..., 2] + g[..., 1] ** 3)
        columns = count_table_columns(monkeypatch)
        default = SphereSpectralField.analyze(F, L)
        assert columns == [62, 62, 6]
        for entries in ((L + 1) ** 2, 130 * (L + 1) ** 2):
            monkeypatch.setattr(spherical, "BLOCK_ENTRIES", entries)
            other = SphereSpectralField.analyze(F, L)
            np.testing.assert_allclose(other.c_cos, default.c_cos, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(other.c_sin, default.c_sin, rtol=0.0, atol=1e-15)
        assert columns[3:] == [1] * 130 + [130]

    def test_mean(self, rng):
        f = random_band_limited(rng, 6)
        quad_mean = sphere_quadrature(ScalarField(f.value), 8) / FOUR_PI
        assert f.mean() == pytest.approx(quad_mean, abs=1e-12)

    def test_surface_gradient_matches_fd(self, rng):
        f = random_band_limited(rng, 8)
        # a stack of 70 points, evaluated as one array
        u = rng.standard_normal((70, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        values, grads = f.value(u), f.surface_gradient(u)
        for k in range(len(u)):
            # degree-zero extension makes the full gradient tangential
            fd = fd_gradient(lambda x: f.value(x / np.linalg.norm(x, axis=-1, keepdims=True)), u[k])
            np.testing.assert_allclose(f.surface_gradient(u[k]), fd, atol=1e-8)
            np.testing.assert_allclose(grads[k], f.surface_gradient(u[k]), rtol=1e-13, atol=1e-13)
            assert values[k] == pytest.approx(f.value(u[k]), rel=1e-13, abs=1e-13)
        np.testing.assert_array_equal(f.value(u.reshape(7, 10, 3)), values.reshape(7, 10))
        np.testing.assert_array_equal(f.surface_gradient(u.reshape(7, 10, 3)),
                                      grads.reshape(7, 10, 3))

    def test_value_matches_scipy_harmonics(self, rng):
        # an independent oracle: scipy's complex Y_l^m carries the
        # Condon-Shortley phase, so the real basis reads
        # Pbar_lm cos(m phi) = (-1)^m Re Y_l^m and Pbar_lm sin(m phi) =
        # (-1)^m Im Y_l^m, times sqrt(2) for m >= 1
        sph_harm_y = pytest.importorskip("scipy.special").sph_harm_y
        L = 32
        f = random_band_limited(rng, L)
        theta, phi = np.arccos(rng.uniform(-1.0, 1.0, 200)), rng.uniform(0.0, 2.0 * np.pi, 200)
        theta[:2] = 0.0, np.pi
        u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
        l, m = (i[:, None] for i in np.tril_indices(L + 1))
        Y = (-1.0) ** m * sph_harm_y(l, m, theta, phi) * np.where(m > 0, np.sqrt(2.0), 1.0)
        expected = (f.c_cos[l, m] * Y.real + f.c_sin[l, m] * Y.imag).sum(axis=0)
        # values reach about 27; the worst difference over 20 such draws
        # was 2.9e-13
        np.testing.assert_allclose(f.value(u), expected, rtol=0.0, atol=2e-12)

    @pytest.mark.parametrize("L", [1, 2, 8, 33, 64])
    def test_surface_gradient_matches_scipy_harmonics(self, rng, L):
        # over 20 draws at each band limit, at most 1.6e-14 of scale
        f = random_band_limited(rng, L)
        theta, phi, u = points_off_the_poles(rng)
        expected = scipy_surface_gradient(f, theta, phi)
        np.testing.assert_allclose(f.surface_gradient(u), expected, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(expected)))

    def test_surface_gradient_matches_fd_at_L32(self, rng):
        L = 32
        f = random_band_limited(rng, L)
        u = rng.standard_normal((200, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        u[:2] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        # the degree-zero extension of the value has the surface gradient as
        # its full gradient on the sphere
        fd = fd_gradient(lambda x: f.value(x / np.linalg.norm(x, axis=-1, keepdims=True)), u)
        # gradients reach about 370; the worst difference over 20 such draws
        # was 7.9e-8, the Richardson difference's error at FD_STEP
        np.testing.assert_allclose(f.surface_gradient(u), fd, rtol=0.0, atol=5e-7)

    def test_laplace_invert(self, rng):
        # degree-l harmonics are eigenfunctions with eigenvalue -l(l+1)
        f = random_band_limited(rng, 5).drop_mean()
        psi = f.laplace_invert()
        for l in range(1, 6):
            np.testing.assert_allclose(psi.c_cos[l], -f.c_cos[l] / (l * (l + 1)),
                                       atol=1e-14)

    def test_coefficient_stack_is_built_once_per_field(self, rng, monkeypatch):
        # one stack of value rows per field; a surface gradient reads the
        # ladder field, built once and holding its own stack
        ladders = []
        ladder = spherical._rotated_components
        monkeypatch.setattr(spherical, "_rotated_components", lambda f: ladders.append(f) or ladder(f))
        f = random_band_limited(rng, 8)
        u = rng.standard_normal((5, 3))
        first = f.value(u), f.surface_gradient(u)
        rows = f._coefficient_stack()
        assert f._coefficient_stack() is rows and rows.shape == (9, 2, 9) and not rows.flags.writeable
        np.testing.assert_array_equal(f.value(u), first[0])
        np.testing.assert_array_equal(f.surface_gradient(u), first[1])
        assert len(ladders) == 1 and ladders[0] is f
        assert f._cache["ladder"]._coefficient_stack().shape == (9, 6, 9)
        # a derived field builds its own stack
        psi = f.drop_mean().laplace_invert()
        assert psi._coefficient_stack() is not rows


class TestLegendreTables:
    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_m0_derivative_vanishes_at_pole(self, rng, pole):
        # a zonal (m = 0) field has a zero theta-derivative at the poles; its
        # ladder image holds only m = 1 terms, whose Pbar_l1 entries carry a
        # factor sin(theta), exactly zero there
        f = random_band_limited(rng, 10)
        zonal = SphereSpectralField(10, f.c_cos * (np.arange(11) == 0), np.zeros((11, 11)))
        assert not zonal.surface_gradient((0.0, 0.0, pole)).any()


class TestPoles:
    """Synthesis is regular on the whole sphere, poles included."""

    def test_value_at_pole_builds_no_gradient_table(self):
        # a derivative table divided by sin(theta) = 0 here once and warned
        f = SphereSpectralField.analyze(ScalarField(lambda g: g[..., 2]), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f.value((0.0, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
            assert f.value((0.0, 0.0, -1.0)) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_gradient_closed_form_at_pole(self, pole):
        # grad_S gamma_1 = e1 - gamma_1 gamma, which is e1 at both poles
        f = SphereSpectralField.analyze(ScalarField(lambda g: g[..., 0]), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(f.surface_gradient((0.0, 0.0, pole)), [1.0, 0.0, 0.0],
                                       atol=1e-14)

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_gradient_matches_fd_near_pole(self, rng, pole):
        f = random_band_limited(rng, 8)
        for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
            u = np.array([eps, -0.5 * eps, pole])
            u /= np.linalg.norm(u)
            fd = fd_gradient(lambda x: f.value(x / np.linalg.norm(x, axis=-1, keepdims=True)), u)
            np.testing.assert_allclose(f.surface_gradient(u), fd, atol=1e-8)

    def test_curl_solution_at_poles(self):
        F = ScalarField(lambda g: g[..., 2] + g[..., 0] * g[..., 1] + 0.5 * g[..., 0] ** 3)
        sol = solve_curl_equation(F, L=8)
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-6, 0.0, 1.0], [0.0, 1e-9, -1.0]])
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        lhs = np.vecdot(pts, fd_curl(sol.h, pts, step=1e-4))
        np.testing.assert_allclose(lhs, F(pts) + sol.c, atol=1e-8)

    def test_origin_still_rejected(self):
        f = SphereSpectralField.analyze(ScalarField(lambda g: g[..., 0]), 4)
        with pytest.raises(DomainError, match="origin"):
            f.surface_gradient(np.zeros(3))
        with pytest.raises(DomainError, match="origin"):
            f.value(np.zeros((2, 3)))

    @pytest.mark.parametrize("point,u,r", [((0.0, 6e199, 8e199), (0.0, 0.6, 0.8), 1e200),
                                           ((1e-200, 0.0, 1e-200), (0.5 ** 0.5, 0.0, 0.5 ** 0.5), 2 ** 0.5 * 1e-200)])
    def test_point_of_extreme_size(self, point, u, r):
        # np.linalg.norm overflowed at the first point (a numpy overflow
        # warning, then u read at 0) and read the second, nonzero, as the
        # origin; the degree-zero fields read the radial projection, and the
        # curl and Jacobian of h scale as 1/|x|
        x, u = np.array(point), np.array(u)
        f = SphereSpectralField.analyze(ScalarField(lambda g: g[..., 0] + g[..., 1] * g[..., 2]), 4)
        h = solve_curl_equation(ScalarField(lambda g: g[..., 2] + g[..., 0] * g[..., 1]), L=4).h
        assert f.value(x) == pytest.approx(f.value(u), abs=1e-15)
        np.testing.assert_allclose(f.surface_gradient(x), f.surface_gradient(u), atol=1e-15)
        np.testing.assert_allclose(h(x), h(u), atol=1e-15)
        np.testing.assert_allclose(h.curl_at(x) * r, h.curl_at(u), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(h.jacobian_at(x) * r, h.jacobian_at(u), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        # a NaN point gave NaN silently and an infinite one numpy's "invalid
        # value encountered in divide" warning, which filterwarnings = error
        # turns into a failure here
        f = SphereSpectralField.analyze(ScalarField(lambda g: g[..., 0]), 4)
        h = solve_curl_equation(ScalarField(lambda g: g[..., 2] + g[..., 0] * g[..., 1]), L=4).h
        points = np.array([[0.0, 0.6, 0.8], [bad, 0.0, 1.0]])
        for evaluate in (f.value, f.surface_gradient, h, h.curl_at, h.jacobian_at):
            for x in (points, points[1]):
                with pytest.raises(DomainError, match="^spectral field evaluated at a non-finite point$"):
                    evaluate(x)


class TestClosedFormCurl:
    """h's curl, read off its closed-form Jacobian, is (u Lap_S psi -
    grad_S psi) / |x|; a Richardson finite-difference curl of h's values is
    the independent oracle."""

    F = ScalarField(lambda g: g[..., 2] + g[..., 0] * g[..., 1] + 0.5 * g[..., 0] ** 3)

    @pytest.mark.parametrize("radius", [1.0, 0.5, 2.0])
    def test_matches_fd_curl(self, rng, radius):
        sol = solve_curl_equation(self.F, L=8)
        u = rng.standard_normal((20, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        x = np.concatenate([u, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]]) * radius
        fd = fd_curl(sol.h.fn, x, step=1e-4)
        np.testing.assert_allclose(sol.h.curl_at(x), fd, atol=1e-10)
        np.testing.assert_allclose(sol.h.curl_at(x[0]), fd[0], atol=1e-10)

    def test_report_makes_one_fd_curl_check(self, monkeypatch):
        # the residual's ring stencil is the only finite-difference curl of a
        # reduction; the pushed f~ and the bracket read h's closed-form
        # Jacobian
        rings, cartesian = [], []
        ring_curl, fd = spherical._ring_curl, core.fd_jacobian
        monkeypatch.setattr(spherical, "_ring_curl", lambda *a: rings.append(a) or ring_curl(*a))
        monkeypatch.setattr(core, "fd_jacobian", lambda *a, **k: cartesian.append(a) or fd(*a, **k))
        spec = ball_system(BallParams(**DEMO_BALL)).s_spec
        reduction_report(GFParams(g=spec.g, f=spec.f), L=16, n_states=5)
        assert len(rings) == 1 and cartesian == []

    def test_pushed_f_synthesizes_h_once(self, monkeypatch):
        # f~ reads curl(h / g~) = curl h / g~ + grad(1/g~) x h, and h and
        # the Jacobian that curl h is read off share one synthesis of h's
        # field at the points, its twelve components; no surface gradient is
        # taken
        spec = ball_system(BallParams(**DEMO_BALL)).s_spec
        p = GFParams(g=spec.g, f=spec.f)
        gauge, _ = reduce_to_e3(p, L=16)
        calls = []
        for name in ("value", "surface_gradient"):
            original = getattr(SphereSpectralField, name)
            monkeypatch.setattr(SphereSpectralField, name, lambda self, x, name=name, original=original:
                                calls.append((name, self.c_cos.shape[2:], np.size(x) // 3)) or original(self, x))
        pushforward_params(gauge, p).f(verify_points(16))
        assert calls == [("value", (12,), len(verify_points(16)))]

    def test_shared_gradient_follows_the_points(self, rng):
        sol = solve_curl_equation(self.F, L=8)
        x, y = rng.standard_normal((2, 7, 3))
        expected = [solve_curl_equation(self.F, L=8).h(p) for p in (x, y)]
        curls = [solve_curl_equation(self.F, L=8).h.curl_at(p) for p in (x, y)]
        for _ in range(2):
            np.testing.assert_array_equal(sol.h(x), expected[0])
            np.testing.assert_array_equal(sol.h.curl_at(y), curls[1])
            np.testing.assert_array_equal(sol.h(y), expected[1])
            np.testing.assert_array_equal(sol.h(x[0]), expected[0][0])
            np.testing.assert_array_equal(sol.h.curl_at(x), curls[0])
        # points moved in place after a call are new points
        z = y.copy()
        sol.h(z)
        z += x
        np.testing.assert_array_equal(sol.h(z), solve_curl_equation(self.F, L=8).h(x + y))
        # the kept values are read-only, as a leaf's kept derivative is
        with pytest.raises(ValueError, match="read-only"):
            sol.h(z)[0] += 1.0

    def test_demo_ball_f_tilde_is_band_limit_truncation(self):
        # with a finite-difference curl in f~ this read 4.6e-11, its noise
        spec = ball_system(BallParams(**DEMO_BALL)).s_spec
        rep = reduction_report(GFParams(g=spec.g, f=spec.f), L=32, n_states=5)
        assert rep["f_tilde_dev"] <= 1e-11


def ring_curl(psi, L):
    """The residual's ring curl of the h that psi gives."""
    return spherical._ring_curl(spherical._rotated_components(psi), L)[0]


def verification_rings(L):
    """cos(theta), sin(theta) and the longitudes of the verification grid."""
    grid = make_grid(L)
    x = grid.x[::spherical.VERIFY_STRIDE]
    return x, np.sqrt(1.0 - x**2), grid.phi[::spherical.VERIFY_STRIDE]


def count_table_columns(monkeypatch):
    """The Legendre-table columns built from now on, one entry per table."""
    columns = []
    tables = spherical._legendre_tables
    monkeypatch.setattr(spherical, "_legendre_tables", lambda L, x, s: columns.append(x.size) or tables(L, x, s))
    return columns


def demo_ball():
    spec = ball_system(BallParams(**DEMO_BALL)).s_spec
    return GFParams(g=spec.g, f=spec.f)


def near_boundary_ball():
    spec = ball_system(BallParams(A=(0.4, 0.5, 0.9), D=1.0)).s_spec
    return GFParams(g=spec.g, f=spec.f)


def veselova_gyrostat():
    spec = veselova_system(VeselovaParams(**DEMO_VESELOVA, k=DEMO_GYROSTAT)).s_spec
    return GFParams(g=spec.g, f=spec.f)


class TestRingResidual:
    """The residual differentiates h along theta and phi on shifted rings;
    the Cartesian Richardson curl at the same step is its oracle."""

    # the largest pointwise gap between the two curls measured at each case
    # was 5.9e-12, 5.7e-12, 6.5e-12 and 7.1e-12 (demo ball, L = 8 to 64),
    # 1.5e-10 (A3 = 0.9, curls up to 26) and 2.7e-12 (veselova+gyrostat):
    # both stencils' round-off at the step 1e-4
    @pytest.mark.parametrize("params, L, tol", [
        (demo_ball, 8, 2e-11), (demo_ball, 16, 2e-11), (demo_ball, 32, 2e-11), (demo_ball, 64, 2e-11),
        (near_boundary_ball, 64, 5e-10), (veselova_gyrostat, 16, 1e-11),
    ])
    def test_agrees_with_cartesian_richardson(self, params, L, tol):
        F = curl_target_F(params())
        sol = solve_curl_equation(F, L=L)
        pts = verify_points(L)
        cartesian = np.vecdot(pts, fd_curl(sol.h, pts, step=1e-4))
        np.testing.assert_allclose(ring_curl(sol.psi, L), cartesian, rtol=0.0, atol=tol)
        assert sol.residual == pytest.approx(np.max(np.abs(cartesian - F(pts) - sol.c)), rel=0.0, abs=tol)

    def test_flipped_orientation_fails(self, monkeypatch):
        # h's values and the residual's stencil read the one set of ladder
        # components, so negating them, h = grad_S psi x u, gives
        # (gamma, curl h) = -(F + c) in both
        F = curl_target_F(demo_ball())
        assert solve_curl_equation(F, L=16).residual <= RESIDUAL_TOL
        ladder = spherical._rotated_components
        monkeypatch.setattr(spherical, "_rotated_components",
                            lambda psi: SphereSpectralField(psi.L, -ladder(psi).c_cos, -ladder(psi).c_sin))
        sol = solve_curl_equation(F, L=16)
        assert sol.residual > RESIDUAL_TOL
        pts = verify_points(16)
        cartesian = np.vecdot(pts, fd_curl(sol.h, pts, step=1e-4))
        assert np.max(np.abs(cartesian - F(pts) - sol.c)) > RESIDUAL_TOL

    def test_one_table_per_ring(self, monkeypatch):
        # at L = 32: 17 verification rings, each with 4 shifted rings; h's
        # field at the verification points, which f~ reads, comes from the
        # verification rings' own tables
        columns = count_table_columns(monkeypatch)
        sol = solve_curl_equation(curl_target_F(demo_ball()), L=32)
        assert sum(columns) == 2 * 33 + 5 * 17        # the analysis, then the rings
        columns.clear()
        curl, values = spherical._ring_curl(spherical._rotated_components(sol.psi), 32)
        assert sum(columns) == 5 * 17 and values.shape == (len(verify_points(32)), 3)
        np.testing.assert_array_equal(values, sol.verify_h)

    def test_shared_rings_match_one_ring_per_point(self, rng):
        # every ring at every longitude, bitwise as each (ring, longitude)
        # pair on a ring of its own and in a one-point call
        f = spherical._rotated_components(random_band_limited(rng, 12))
        theta = np.concatenate([rng.uniform(0.0, np.pi, 4), [0.0, np.pi]])
        phi = rng.uniform(-np.pi, np.pi, 7)
        x, s = np.cos(theta), np.sin(theta)
        grid = f._ring_sums(x, s, phi, grid=True)
        assert grid.shape == (6, 7, 3)
        j, i = np.divmod(np.arange(42), 7)
        np.testing.assert_array_equal(grid.reshape(42, 3), f._ring_sums(x[j], s[j], phi[i]))
        for k in range(0, 42, 5):
            one = f._ring_sums(x[j[k]:j[k] + 1], s[j[k]:j[k] + 1], phi[i[k]:i[k] + 1])
            np.testing.assert_array_equal(grid[j[k], i[k]], one[0])

    @pytest.mark.parametrize("L, rings", [(16, 9), (32, 17), (64, 33)])
    def test_verification_points_share_rings(self, rng, monkeypatch, L, rings):
        # the verification rings go to the kernel as rings, one table each;
        # value gives every point a table of its own, and each point's value
        # and gradient stay those of a one-point call
        f = random_band_limited(rng, L)
        pts = verify_points(L)
        np.testing.assert_array_equal(f.value(pts), [f.value(p) for p in pts])
        np.testing.assert_array_equal(f.surface_gradient(pts), [f.surface_gradient(p) for p in pts])
        x, s, phi = verification_rings(L)
        columns = count_table_columns(monkeypatch)
        on_rings = f._ring_sums(x, s, phi, grid=True)
        assert sum(columns) == rings == x.size and on_rings.shape == (rings, phi.size)
        columns.clear()
        f.value(pts)
        assert sum(columns) == len(pts)
        # the rings' points are the verification points to round-off
        np.testing.assert_allclose(on_rings.ravel(), f.value(pts), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("L", [16, 32])
    def test_pushed_parameters_on_the_rings_match_the_point_path(self, L):
        # the report's f~ reads h off the verification rings; the point
        # path synthesizes h at the verification points.  Both are the same
        # synthesis at (cos theta, sin theta, phi) round-off apart: f~
        # differed by at most 1.2e-15 here
        for params, tol in ((demo_ball, 1e-14), (veselova_gyrostat, 1e-14), (near_boundary_ball, 2e-14)):
            p = params()
            gauge, sol = reduce_to_e3(p, L=L)
            f_tilde = _pushed_f(gauge, p, sol.points, sol.verify_h, sol.verify_normal_curl)
            pushed, pts = pushforward_params(gauge, p), verify_points(L)
            np.testing.assert_array_equal(sol.points, pts)
            np.testing.assert_allclose(f_tilde, pushed.f(pts), rtol=0.0, atol=tol)
            np.testing.assert_allclose(sol.verify_h, gauge.h(pts), rtol=0.0, atol=tol)
            np.testing.assert_allclose(sol.verify_normal_curl, np.vecdot(pts, gauge.h.curl_at(pts)), rtol=0.0, atol=tol)

    def test_small_blocks_change_no_bit(self, rng, monkeypatch):
        # at L = 64, one ring per table block, so the point path's Fourier
        # sums run one point at a time and the rings' one ring at a time:
        # values, gradients and the ring residual stay bitwise those of the
        # default blocks (62 rings each) and of one-point calls
        L = 64
        f = random_band_limited(rng, L)
        u = np.concatenate([rng.standard_normal((150, 3)), verify_points(L)[::37], [[0.0, 0.0, 1.0]]])
        field = spherical._rotated_components(f)
        x, s, phi = verification_rings(L)

        def synthesize():
            return (f.value(u), f.surface_gradient(u), *spherical._ring_curl(field, L),
                    field._ring_sums(x, s, phi, grid=True))

        expected = synthesize()
        assert len(u) > 2 * (spherical.BLOCK_ENTRIES // (L + 1) ** 2)
        monkeypatch.setattr(spherical, "BLOCK_ENTRIES", (L + 1) ** 2)
        for small, default in zip(synthesize(), expected):
            np.testing.assert_array_equal(small, default)
        for k in range(0, len(u), 9):
            np.testing.assert_array_equal(f.value(u[k]), expected[0][k])
            np.testing.assert_array_equal(f.surface_gradient(u[k]), expected[1][k])
        for j in (0, 7, x.size - 1):
            one = field._ring_sums(x[j:j + 1], s[j:j + 1], phi[::5], grid=True)
            np.testing.assert_array_equal(one[0], expected[4][j, ::5])

    def test_blocks_do_not_change_the_residual(self, monkeypatch):
        psi = solve_curl_equation(curl_target_F(demo_ball()), L=16).psi
        expected = ring_curl(psi, 16)
        # one ring per table block and 4 points per Fourier block
        monkeypatch.setattr(spherical, "BLOCK_ENTRIES", 17 ** 2 + 1)
        np.testing.assert_array_equal(ring_curl(psi, 16), expected)

    def test_worst_gamma_is_where_the_residual_is(self):
        F = curl_target_F(near_boundary_ball())
        sol = solve_curl_equation(F, L=16)
        pts = verify_points(16)
        (i,) = np.flatnonzero((pts == sol.worst_gamma).all(axis=-1))
        assert abs(ring_curl(sol.psi, 16)[i] - F(pts[i]) - sol.c) == sol.residual
        # F peaks at the pole of the largest A_i
        assert sol.worst_gamma[2] < -0.99


def axisymmetric_ball(a3, a=0.5, D=1.0):
    """The exact reduction of the ball A = (a, a, a3): the constant c, the
    curl target F and h on the unit sphere, as functions of unit points.

    With t = gamma_3, u = 1/D - (gamma, A gamma) = p - q t^2 for p = 1/D - a
    and q = a3 - a, and F = -(1/D) u^(-3/2) depends on t only.  Then
    c = -mean F = 1 / (D p sqrt(p - q)), and Lap_S psi = F + c integrates
    to (1 - t^2) psi'(t) = G(t) = c (1 + t) - (1/D) [s / (p sqrt(p - q s^2))]
    from s = -1 to t, which vanishes at both poles.  h = u x grad_S psi =
    psi'(t) (u x e3), with G(t) / (1 - t^2) written without the poles'
    cancellation."""
    p, q = 1.0 / D - a, a3 - a
    r = np.sqrt(p - q)
    c = 1.0 / (D * p * r)

    def F(u):
        return -(p - q * u[..., 2] ** 2) ** -1.5 / D

    def h(u):
        t = u[..., 2]
        w = np.sqrt(p - q * t * t)
        return (q * t / (D * p * r * w * (w + r)))[..., None] * np.cross(u, [0.0, 0.0, 1.0])

    return c, F, h


class TestAxisymmetricBall:
    """The spectral solver against the exact solution: c, h, and the curl
    that h reads off its Jacobian, at 200 random unit points."""

    # measured 4.9e-15 / 2.0e-13 / 5.9e-13 (a3 = 0.6, L = 32), 2.0e-14 /
    # 8.0e-14 / 7.5e-12 (a3 = 0.9, L = 64) and 2.7e-11 / 1.8e-10 / 2.4e-9
    # (a3 = 0.99, L = 192, about 1 s), against |h| up to 0.18, 3.2 and 40,
    # the same with the closed-form curl (u Lap_S psi + u x h); the error
    # grows toward the poles, where F peaks (curl 3.1e-7 at a3 = 0.99)
    @pytest.mark.parametrize("a3, L, c_tol, h_tol, curl_tol", [
        (0.6, 32, 5e-14, 1e-12, 5e-11), (0.9, 64, 2e-13, 5e-12, 1e-10), (0.99, 192, 2e-10, 1e-9, 2e-8)])
    def test_matches_the_closed_form(self, rng, a3, L, c_tol, h_tol, curl_tol):
        c, F, h = axisymmetric_ball(a3)
        spec = ball_system(BallParams(A=(0.5, 0.5, a3), D=1.0)).s_spec
        sol = solve_curl_equation(curl_target_F(GFParams(g=spec.g, f=spec.f)), L=L)
        u = rng.standard_normal((200, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        assert abs(sol.c - c) <= c_tol
        np.testing.assert_allclose(sol.h(u), h(u), rtol=0, atol=h_tol)
        np.testing.assert_allclose(np.vecdot(u, sol.h.curl_at(u)), F(u) + c, rtol=0, atol=curl_tol)


def unit_points_with_poles(rng, n=200):
    u = np.vstack([rng.standard_normal((n, 3)), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                                                 [1e-12, 0.0, 1.0], [0.0, -1e-9, -1.0]]])
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


class TestEmptyStack:
    """A stack of no points gives empty results, as assemble_P and the
    models' g do."""

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
    def test_spectral_fields(self, rng, shape):
        f = random_band_limited(rng, 8)
        empty = np.empty(shape)
        for field, comp in ((f, ()), (spherical._rotated_components(f), (3,))):
            assert field.value(empty).shape == shape[:-1] + comp
            assert field.surface_gradient(empty).shape == shape[:-1] + comp + (3,)

    def test_h_and_the_report(self):
        sol = solve_curl_equation(curl_target_F(demo_ball()), L=8)
        empty = np.empty((0, 3))
        assert sol.h(empty).shape == sol.h.curl_at(empty).shape == (0, 3)
        assert sol.h.jacobian_at(empty).shape == (0, 3, 3)
        rep = reduction_report(demo_ball(), L=16, n_states=0)
        assert rep["bracket_dev"] == 0.0 and rep["pass"] is True and rep["worst_bracket_gamma"] == []


class TestRotatedComponents:
    """h's Cartesian components come from psi's coefficients by the
    angular-momentum ladder; their surface gradients are h's Jacobian."""

    @pytest.mark.parametrize("L", [1, 2, 3, 8, 16, 33, 64])
    def test_components_equal_rotated_gradient(self, rng, L):
        # scipy's gradient of psi is the oracle of h's field, on the sphere
        # and off it: h = u x grad_S psi and curl h = (u Lap_S psi - grad_S
        # psi) / |x|, with Lap_S psi from psi's coefficients; over 20 draws
        # at each band limit, at most 7.7e-15 (h) and 1.7e-14 (curl) of
        # scale.  TestPoles keeps the poles, where the oracle divides by
        # sin(theta) = 0
        sol = solve_curl_equation(ScalarField(random_band_limited(rng, L).value), L=L)
        theta, phi, u = points_off_the_poles(rng)
        x = u * rng.uniform(0.5, 2.0, (len(u), 1))
        grad = scipy_surface_gradient(sol.psi, theta, phi)
        eig = -np.arange(L + 1.0)[:, None] * np.arange(1.0, L + 2.0)[:, None]
        lap = SphereSpectralField(L, eig * sol.psi.c_cos, eig * sol.psi.c_sin).value(u)
        h = np.cross(u, grad)
        curl = (u * lap[:, None] - grad) / np.linalg.norm(x, axis=-1, keepdims=True)
        np.testing.assert_allclose(sol.h(x), h, rtol=0, atol=1e-13 * np.max(np.abs(h)))
        np.testing.assert_allclose(sol.h.curl_at(x), curl, rtol=0, atol=1e-13 * np.max(np.abs(curl)))

    @pytest.mark.parametrize("L", [8, 32])
    def test_jacobian_matches_cartesian_richardson(self, rng, L):
        # the degree-zero extension off the sphere too: dh/dx = grad_S h / |x|;
        # measured 2.8e-12 at both band limits, on entries up to 0.99
        sol = solve_curl_equation(curl_target_F(demo_ball()), L=L)
        x = unit_points_with_poles(rng, 50) * rng.uniform(0.5, 2.0, (54, 1))
        fd = core.fd_jacobian(sol.h, x, step=1e-4)
        np.testing.assert_allclose(sol.h.jacobian_at(x), fd, rtol=0, atol=1e-11)


class TestCurlSolver:
    def test_plain_callable_is_a_scalar_field(self):
        F = lambda g: g[..., 2] ** 2
        plain, field = solve_curl_equation(F, L=8), solve_curl_equation(ScalarField(F), L=8)
        assert (plain.c, plain.residual) == (field.c, field.residual)

    def test_constant_rhs(self):
        sol = solve_curl_equation(ScalarField(lambda g: 2.5), L=8)
        assert sol.c == pytest.approx(-2.5, abs=1e-12)
        for pt in make_grid(2).points().reshape(-1, 3)[::5]:
            np.testing.assert_allclose(sol.h(pt), 0.0, atol=1e-13)
        assert sol.residual <= 1e-14

    def test_degree_one_rhs(self, rng):
        # F = gamma_3: c = 0 and the potential is -gamma_3 / 2
        sol = solve_curl_equation(ScalarField(lambda g: g[..., 2]), L=8)
        assert abs(sol.c) <= 1e-12
        assert sol.residual <= 1e-10
        for _ in range(10):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            assert sol.psi.value(u) == pytest.approx(-u[2] / 2, abs=1e-12)
            # the analytic orientation h = u x grad_S psi; the opposite sign
            # would miss by |u x e3|
            np.testing.assert_allclose(sol.h(u), -0.5 * np.cross(u, [0.0, 0.0, 1.0]),
                                       atol=1e-13)

    def test_smooth_rhs_spectral_accuracy(self):
        A = np.array([0.4, 0.5, 0.6])
        F = ScalarField(lambda g: -1.0 / (1.0 - np.vecdot(g, A * g)) ** 1.5)
        sol = solve_curl_equation(F, L=16)
        assert sol.residual <= 1e-6

    def test_under_resolved_reduction_fails(self):
        # the solve itself only reports its residual; the reduction's report
        # holds it against RESIDUAL_TOL
        spec = ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0)).s_spec
        rep = reduction_report(GFParams(g=spec.g, f=spec.f), L=4, n_states=5)
        assert rep["pass"] is False and rep["residual"] > RESIDUAL_TOL

    def test_tangent_field_identity(self, rng):
        # independent oracle: (gamma, curl h) equals the surface Laplacian
        # of the potential, here measured by a finite-difference curl
        f = random_band_limited(rng, 6).drop_mean()
        sol = solve_curl_equation(ScalarField(f.value), L=10)
        for _ in range(5):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            lhs = u @ fd_curl(sol.h.fn, u, step=1e-4)
            assert lhs == pytest.approx(f.value(u) + sol.c, abs=1e-8)

    def test_h_is_tangential(self, rng):
        f = random_band_limited(rng, 6).drop_mean()
        sol = solve_curl_equation(ScalarField(f.value), L=10)
        for _ in range(10):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            assert abs(sol.h(u) @ u) <= 1e-12

    def test_constant_choice_restores_solvability(self, rng):
        # the mean of F + c over the sphere must vanish once c is chosen
        f = random_band_limited(rng, 6)
        F = ScalarField(f.value)
        sol = solve_curl_equation(F, L=10)
        total = sphere_quadrature(ScalarField(lambda g: F(g) + sol.c), 10)
        assert abs(total) <= 1e-10
