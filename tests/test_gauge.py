"""The bracket-family transformation group and the reduction pipeline."""

import numpy as np
import pytest

from nonholo import (
    BallParams,
    DomainError,
    GFParams,
    GaugeTransform,
    ScalarField,
    VectorField3,
    VeselovaParams,
    apply_gauge_state,
    ball_system,
    compose,
    curl_target_F,
    e3_bivector,
    gf_bivector,
    identity_gauge,
    inverse,
    pack,
    pushforward_bivector,
    pushforward_params,
    reduce_to_e3,
    unpack,
    veselova_system,
    zero_level_jacobian,
    zero_level_reduce,
    vector,
)

from conftest import rand_state, rand_unit

BALL = BallParams(A=(0.4, 0.5, 0.6), D=1.0)


def analytic_gauges():
    a1 = ScalarField(lambda g: 1.2 + 0.3 * g[..., 0] + 0.1 * g[..., 1] ** 2,
                     grad=lambda g: vector(0.3, 0.2 * g[..., 1], 0.0))
    h1 = VectorField3(lambda g: vector(0.2 * g[..., 1], -0.1 * g[..., 2] ** 2, 0.3 * g[..., 0] * g[..., 1]),
                      curl=lambda g: vector(0.3 * g[..., 0] + 0.2 * g[..., 2], -0.3 * g[..., 1], -0.2))
    a2 = ScalarField(lambda g: 0.9 + 0.2 * g[..., 2], grad=lambda g: np.array([0.0, 0.0, 0.2]))
    h2 = VectorField3(lambda g: vector(0.1 * g[..., 0], 0.05 * g[..., 1], -0.2 * g[..., 2]),
                      curl=lambda g: np.zeros(3))
    return GaugeTransform(a1, 1.7, h1), GaugeTransform(a2, 0.8, h2)


def strip_derivatives(t: GaugeTransform) -> GaugeTransform:
    return GaugeTransform(ScalarField(t.alpha.fn), t.c, VectorField3(t.h.fn))


def ball_params() -> GFParams:
    spec = ball_system(BALL).s_spec
    return GFParams(g=spec.g, f=spec.f)


class TestStateAction:
    def test_identity(self, rng):
        x = rand_state(rng)
        np.testing.assert_allclose(apply_gauge_state(identity_gauge(), x), x, atol=1e-15)

    def test_zero_level_scales_by_alpha(self, rng):
        t1, _ = analytic_gauges()
        g = rand_unit(rng)
        M = rng.standard_normal(3)
        M -= (M @ g) * g
        y = apply_gauge_state(t1, pack(M, g))
        np.testing.assert_allclose(unpack(y)[0], t1.alpha(g) * M, atol=1e-14)

    def test_area_casimir_scales_by_c(self, rng):
        t1, _ = analytic_gauges()
        for _ in range(1000):
            x = rand_state(rng)
            M, g = unpack(x)
            My, gy = unpack(apply_gauge_state(t1, x))
            assert abs(My @ gy - t1.c * (M @ g)) <= 1e-14
            np.testing.assert_array_equal(gy, g)

    def test_offsphere_rejected(self):
        t1, _ = analytic_gauges()
        with pytest.raises(DomainError):
            apply_gauge_state(t1, pack([1, 0, 0], [0, 0, 1.1]))

    def test_zero_c_rejected(self):
        with pytest.raises(DomainError):
            GaugeTransform(ScalarField.constant(1.0), 0.0, VectorField3.zero())


class TestGroupLaw:
    def test_neutral_element(self, rng):
        t1, _ = analytic_gauges()
        t = compose(t1, identity_gauge())
        for _ in range(20):
            x = rand_state(rng)
            np.testing.assert_allclose(apply_gauge_state(t, x),
                                       apply_gauge_state(t1, x), atol=1e-14)

    def test_parameters_follow_block_matrix_product(self, rng):
        t1, t2 = analytic_gauges()
        t = compose(t2, t1)
        for _ in range(20):
            g = rand_unit(rng)
            assert t.alpha(g) == pytest.approx(t1.alpha(g) * t2.alpha(g), rel=1e-14)
            np.testing.assert_allclose(
                t.h(g), t1.h(g) * t2.alpha(g) + t2.h(g) * t1.c, atol=1e-14)
        assert t.c == pytest.approx(t1.c * t2.c, rel=1e-15)

    def test_state_level_compatibility(self, rng):
        t1, t2 = analytic_gauges()
        t21 = compose(t2, t1)
        for _ in range(200):
            x = rand_state(rng)
            two = apply_gauge_state(t2, apply_gauge_state(t1, x))
            one = apply_gauge_state(t21, x)
            np.testing.assert_allclose(two, one, atol=1e-12)

    def test_associativity(self, rng):
        t1, t2 = analytic_gauges()
        t3 = GaugeTransform(ScalarField.constant(1.4), 2.0,
                            VectorField3(lambda g: np.array([0.0, 0.1, 0.0]),
                                         curl=lambda g: np.zeros(3)))
        left = compose(t3, compose(t2, t1))
        right = compose(compose(t3, t2), t1)
        for _ in range(20):
            g = rand_unit(rng)
            assert abs(left.alpha(g) - right.alpha(g)) <= 1e-14
            np.testing.assert_allclose(left.h(g), right.h(g), atol=1e-14)
        assert abs(left.c - right.c) <= 1e-14

    def test_inverse(self, rng):
        t1, _ = analytic_gauges()
        tinv = inverse(t1)
        for _ in range(100):
            x = rand_state(rng)
            np.testing.assert_allclose(
                apply_gauge_state(tinv, apply_gauge_state(t1, x)), x, atol=1e-12)
            np.testing.assert_allclose(
                apply_gauge_state(t1, apply_gauge_state(tinv, x)), x, atol=1e-12)


class TestParameterAction:
    def test_identity_fixes_parameters(self, rng):
        p = ball_params()
        q = pushforward_params(identity_gauge(), p)
        for _ in range(50):
            g = rand_unit(rng)
            assert abs(q.g(g) - p.g(g)) <= 1e-12
            assert abs(q.f(g) - p.f(g)) <= 1e-12

    def test_constant_dilation_closed_form(self, rng):
        # alpha = a, h = 0, f = 0:  f~ = (a/c - 1)(g~ - (gamma, dg~/dgamma))
        a, c = 1.3, 0.7
        t = GaugeTransform(ScalarField.constant(a), c, VectorField3.zero())
        p = ball_params()
        q = pushforward_params(t, p)
        for _ in range(50):
            g = rand_unit(rng)
            gt = a * p.g(g)
            expect = (a / c - 1.0) * (gt - g @ (a * p.g.gradient(g)))
            assert q.f(g) == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_equivalent_rewriting(self, rng):
        # the action formula can be regrouped with all alpha-derivatives
        # folded into g~; both readings must agree
        t1, _ = analytic_gauges()
        p = ball_params()
        q = pushforward_params(t1, p)
        for _ in range(50):
            g = rand_unit(rng)
            a, c = t1.alpha(g), t1.c
            gt = a * p.g(g)
            dgt = t1.alpha(g) * p.g.gradient(g) + p.g(g) * t1.alpha.gradient(g)
            curl_term = t1.h.scaled(ScalarField(lambda x: 1.0 / (t1.alpha(x) * p.g(x)))).curl_at(g)
            alt = (a * a / c) * (p.f(g) + p.g(g) - g @ p.g.gradient(g)) \
                - (gt - g @ dgt) + (gt * gt / c) * (g @ curl_term)
            assert q.f(g) == pytest.approx(alt, rel=1e-8, abs=1e-10)

    def test_action_property_analytic(self, rng):
        t1, t2 = analytic_gauges()
        p = ball_params()
        two = pushforward_params(t2, pushforward_params(t1, p))
        one = pushforward_params(compose(t2, t1), p)
        for _ in range(200):
            g = rand_unit(rng)
            assert abs(two.g(g) - one.g(g)) <= 1e-10
            assert abs(two.f(g) - one.f(g)) <= 1e-10

    def test_action_property_fd(self, rng):
        t1, t2 = (strip_derivatives(t) for t in analytic_gauges())
        p = ball_params()
        p = GFParams(g=ScalarField(p.g.fn), f=ScalarField(p.f.fn))
        two = pushforward_params(t2, pushforward_params(t1, p))
        one = pushforward_params(compose(t2, t1), p)
        for _ in range(200):
            g = rand_unit(rng)
            assert abs(two.g(g) - one.g(g)) <= 1e-8
            assert abs(two.f(g) - one.f(g)) <= 1e-8


class TestBivectorPushforward:
    def test_vanishing_alpha_rejected(self, rng):
        t = GaugeTransform(ScalarField.constant(0.0), 1.0, VectorField3.zero())
        with pytest.raises(DomainError, match="alpha vanishes"):
            pushforward_bivector(t, gf_bivector(ball_params()), rand_state(rng))

    def test_identity(self, rng):
        P = gf_bivector(ball_params())
        x = rand_state(rng)
        np.testing.assert_allclose(pushforward_bivector(identity_gauge(), P, x),
                                   P(x), atol=1e-12)

    def test_constant_gauge_is_exact_congruence(self, rng):
        # the fiber map of constant (alpha, c, h) is quadratic in gamma, so
        # the central-difference Jacobian is exact and the congruence must
        # match the hand-computed one to round-off
        from nonholo import hat
        a, c = 1.3, 0.7
        h = np.array([0.2, -0.1, 0.4])
        t = GaugeTransform(ScalarField.constant(a), c,
                           VectorField3(lambda g: h, curl=lambda g: np.zeros(3)))
        P = gf_bivector(ball_params())
        for _ in range(10):
            x = rand_state(rng)
            M, g = unpack(x)
            J = np.zeros((6, 6))
            J[:3, :3] = a * np.eye(3) + (c - a) * np.outer(g, g) + np.outer(np.cross(g, h), g)
            J[:3, 3:] = ((c - a) * (np.outer(g, M) + (M @ g) * np.eye(3))
                         + np.outer(np.cross(g, h), M) - (M @ g) * hat(h))
            J[3:, 3:] = np.eye(3)
            np.testing.assert_allclose(pushforward_bivector(t, P, x),
                                       J @ P(x) @ J.T, atol=1e-9)

    def test_matches_parameter_action(self, rng):
        # the central consistency statement: transporting the bracket equals
        # assembling it from the transported parameters
        t1, _ = analytic_gauges()
        p = ball_params()
        P = gf_bivector(p)
        Q = gf_bivector(pushforward_params(t1, p))
        for _ in range(100):
            x = rand_state(rng)
            left = pushforward_bivector(t1, P, x)
            right = Q(apply_gauge_state(t1, x))
            np.testing.assert_allclose(left, right, atol=1e-6)


class TestZeroLevel:
    def zero_level_state(self, rng):
        g = rand_unit(rng)
        M = rng.standard_normal(3)
        M -= (M @ g) * g
        return pack(M, g)

    def test_ball_rescaling(self, rng):
        p = ball_params()
        x = self.zero_level_state(rng)
        M, g = unpack(x)
        y = zero_level_reduce(p.g, x)
        A = np.asarray(BALL.A)
        u = 1.0 - g @ (A * g)
        np.testing.assert_allclose(unpack(y)[0], M / np.sqrt(u), atol=1e-14)

    def test_veselova_rescaling(self, rng):
        spec = veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9))).s_spec
        x = self.zero_level_state(rng)
        M, g = unpack(x)
        y = zero_level_reduce(spec.g, x)
        G = g @ (np.array([0.6, 0.75, 0.9]) * g)
        np.testing.assert_allclose(unpack(y)[0], M / np.sqrt(G), atol=1e-14)

    def test_unit_g_is_identity(self, rng):
        x = self.zero_level_state(rng)
        np.testing.assert_array_equal(zero_level_reduce(ScalarField.constant(1.0), x), x)

    def test_off_level_rejected(self, rng):
        with pytest.raises(DomainError):
            zero_level_reduce(ball_params().g, pack([1, 0, 0], [1, 0, 0]))

    @pytest.mark.parametrize("n", [3, 5])
    def test_stack_equals_one_state_calls(self, rng, n):
        # states act over the last axis: a stack gives the one-state results row by row
        g = ball_params().g
        X = np.array([self.zero_level_state(rng) for _ in range(n)])
        np.testing.assert_array_equal(zero_level_reduce(g, X), [zero_level_reduce(g, x) for x in X])
        np.testing.assert_array_equal(zero_level_jacobian(g, X), [zero_level_jacobian(g, x) for x in X])

    def test_off_level_state_in_a_stack_rejected(self, rng):
        X = np.array([self.zero_level_state(rng), pack([1, 0, 0], [1, 0, 0])])
        with pytest.raises(DomainError, match="off the zero level"):
            zero_level_reduce(ball_params().g, X)

    def test_bracket_congruence_hits_e3(self, rng):
        for make in (ball_params,
                      lambda: GFParams(g=veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9))).s_spec.g,
                                       f=veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9))).s_spec.f)):
            p = make()
            P = gf_bivector(p)
            for _ in range(50):
                x = self.zero_level_state(rng)
                J = zero_level_jacobian(p.g, x)
                left = J @ P(x) @ J.T
                right = e3_bivector(zero_level_reduce(p.g, x))
                np.testing.assert_allclose(left, right, atol=1e-12)

    def test_consistent_with_full_reduction(self, rng):
        # the full reducing transform restricted to the zero level acts as
        # the simple rescaling, so both congruences must agree there
        p = ball_params()
        gauge, _ = reduce_to_e3(p, L=16)
        P = gf_bivector(p)
        for _ in range(10):
            x = self.zero_level_state(rng)
            full = pushforward_bivector(gauge, P, x)
            J = zero_level_jacobian(p.g, x)
            np.testing.assert_allclose(full, J @ P(x) @ J.T, atol=1e-10)


class TestReduction:
    def test_curl_target_closed_form_for_ball(self, rng):
        # F = -(1/D) u^(-3/2) with u = 1/D - (gamma, A gamma)
        F = curl_target_F(ball_params())
        A = np.asarray(BALL.A)
        for _ in range(100):
            g = rand_unit(rng)
            u = 1.0 - g @ (A * g)
            assert F(g) == pytest.approx(-(u ** -1.5), rel=1e-10)

    def test_curl_target_constant_parameters(self, rng):
        F = curl_target_F(GFParams(g=ScalarField.constant(2.0), f=ScalarField.constant(0.0)))
        assert F(rand_unit(rng)) == pytest.approx(-0.5, abs=1e-14)

    def test_trivial_parameters_give_near_identity(self, rng):
        p = GFParams(g=ScalarField.constant(1.0), f=ScalarField.constant(0.0))
        gauge, sol = reduce_to_e3(p, L=8)
        assert gauge.c == pytest.approx(1.0, abs=1e-12)
        assert sol.residual <= 1e-12
        q = pushforward_params(gauge, p)
        for _ in range(20):
            g = rand_unit(rng)
            assert abs(q.g(g) - 1.0) <= 1e-12
            assert abs(q.f(g)) <= 1e-10

    @pytest.mark.parametrize("gamma", [(1e-6, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                                       (0.0, -1e-6, -1.0)])
    def test_reduction_holds_at_and_near_poles(self, gamma):
        # the 1e-6 finite-difference steps of the state Jacobian used to reach
        # a surface gradient within 1e-12 of the pole, which raised
        p = ball_params()
        gauge, _ = reduce_to_e3(p, L=16)
        gamma = np.asarray(gamma) / np.linalg.norm(gamma)
        x = pack(np.array([0.3, -0.2, 0.5]), gamma)
        left = pushforward_bivector(gauge, gf_bivector(p), x)
        right = e3_bivector(apply_gauge_state(gauge, x))
        np.testing.assert_allclose(left, right, atol=1e-7)

    def test_ball_reduction_moderate_band_limit(self, rng):
        p = ball_params()
        gauge, sol = reduce_to_e3(p, L=16)
        assert sol.residual <= 1e-6
        q = pushforward_params(gauge, p)
        P = gf_bivector(p)
        for _ in range(25):
            g = rand_unit(rng)
            assert abs(q.g(g) - 1.0) <= 1e-8
            assert abs(q.f(g)) <= 1e-5
        for _ in range(25):
            x = rand_state(rng)
            left = pushforward_bivector(gauge, P, x)
            right = e3_bivector(apply_gauge_state(gauge, x))
            np.testing.assert_allclose(left, right, atol=1e-6)
