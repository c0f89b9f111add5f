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
    ball_system,
    fd_curl,
    fd_gradient,
    make_grid,
    pushforward_params,
    reduce_to_e3,
    reduction_report,
    solve_curl_equation,
    sphere_quadrature,
)
import nonholo.core as core
import nonholo.spherical as spherical
from nonholo.models import DEMO_BALL
from nonholo.spherical import RESIDUAL_TOL, _legendre_tables, verify_points

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

    def test_coefficient_stack_is_built_once_per_flag(self, rng):
        f = random_band_limited(rng, 8)
        u = rng.standard_normal((5, 3))
        first = f.value(u), f.surface_gradient(u)
        value_rows, gradient_rows = f._coefficient_stack(False), f._coefficient_stack(True)
        assert f._coefficient_stack(False) is value_rows and f._coefficient_stack(True) is gradient_rows
        assert value_rows.shape == (9, 2, 9) and gradient_rows.shape == (9, 7, 9)
        assert not value_rows.flags.writeable and not gradient_rows.flags.writeable
        np.testing.assert_array_equal(f.value(u), first[0])
        np.testing.assert_array_equal(f.surface_gradient(u), first[1])
        # a derived field builds its own stacks
        psi = f.drop_mean().laplace_invert()
        assert psi._coefficient_stack(False) is not value_rows


class TestLegendreTables:
    def test_gradient_table_is_pbar_over_sin(self):
        # one recursion, on Pbar / sin(theta): its m = 0 column is zero and
        # sin(theta) times it is the Pbar table
        theta = np.linspace(0.1, 3.0, 7)
        x, s = np.cos(theta), np.sin(theta)
        P = _legendre_tables(10, x, s)
        Q = _legendre_tables(10, x, s, gradient=True)
        assert Q.shape == P.shape == (11, 11, 7)
        assert not Q[:, 0].any()
        np.testing.assert_allclose(s * Q[:, 1:], P[:, 1:], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_m0_derivative_vanishes_at_pole(self, rng, pole):
        # a zonal (m = 0) field has a zero theta-derivative at the poles; its
        # m = 0 term is sin(theta) times a table entry, exactly zero there
        f = random_band_limited(rng, 10)
        zonal = SphereSpectralField(10, f.c_cos * (np.arange(11) == 0), np.zeros((11, 11)))
        assert not zonal.surface_gradient((0.0, 0.0, pole)).any()


class TestPoles:
    """Synthesis is regular on the whole sphere, poles included."""

    def test_value_at_pole_builds_no_gradient_table(self):
        # the derivative table divided by sin(theta) = 0 here and warned
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
        lhs = np.vecdot(pts, fd_curl(sol.h, pts, step=1e-4, richardson=True))
        np.testing.assert_allclose(lhs, F(pts) + sol.c, atol=1e-8)

    def test_origin_still_rejected(self):
        f = SphereSpectralField.analyze(ScalarField(lambda g: g[..., 0]), 4)
        with pytest.raises(DomainError, match="origin"):
            f.surface_gradient(np.zeros(3))
        with pytest.raises(DomainError, match="origin"):
            f.value(np.zeros((2, 3)))


class TestClosedFormCurl:
    """h carries curl h = (u Lap_S psi - grad_S psi) / |x|; a Richardson
    finite-difference curl of h's values is the independent oracle."""

    F = ScalarField(lambda g: g[..., 2] + g[..., 0] * g[..., 1] + 0.5 * g[..., 0] ** 3)

    @pytest.mark.parametrize("radius", [1.0, 0.5, 2.0])
    def test_matches_fd_curl(self, rng, radius):
        sol = solve_curl_equation(self.F, L=8)
        u = rng.standard_normal((20, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        x = np.concatenate([u, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]]) * radius
        fd = fd_curl(sol.h.fn, x, step=1e-4, richardson=True)
        np.testing.assert_allclose(sol.h.curl_at(x), fd, atol=1e-10)
        np.testing.assert_allclose(sol.h.curl_at(x[0]), fd[0], atol=1e-10)

    def test_report_makes_one_fd_curl(self, monkeypatch):
        # the residual's check is the only finite-difference curl of a
        # reduction; the pushed f~ reads the closed form
        calls = []
        original = core.fd_curl

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(core, "fd_curl", counted)
        monkeypatch.setattr(spherical, "fd_curl", counted)
        spec = ball_system(BallParams(**DEMO_BALL)).s_spec
        reduction_report(GFParams(g=spec.g, f=spec.f), L=16, n_states=5)
        assert len(calls) == 1

    def test_pushed_f_synthesizes_grad_psi_once(self, monkeypatch):
        # f~ reads curl(h / g~) = curl h / g~ + grad(1/g~) x h, and h and
        # curl h share one grad_S psi at the verification points
        spec = ball_system(BallParams(**DEMO_BALL)).s_spec
        p = GFParams(g=spec.g, f=spec.f)
        gauge, _ = reduce_to_e3(p, L=16)
        calls = []
        original = SphereSpectralField.surface_gradient
        monkeypatch.setattr(SphereSpectralField, "surface_gradient",
                            lambda self, x: calls.append(x) or original(self, x))
        pushforward_params(gauge, p).f(verify_points(16))
        assert len(calls) == 1

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

    def test_demo_ball_f_tilde_is_band_limit_truncation(self):
        # with a finite-difference curl in f~ this read 4.6e-11, its noise
        spec = ball_system(BallParams(**DEMO_BALL)).s_spec
        rep = reduction_report(GFParams(g=spec.g, f=spec.f), L=32, n_states=5)
        assert rep["f_tilde_dev"] <= 1e-11


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
            lhs = u @ fd_curl(sol.h.fn, u, step=1e-4, richardson=True)
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
