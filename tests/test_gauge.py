"""The bracket-family transformation group and the reduction pipeline."""

import numpy as np
import pytest

from nonholo import (
    BallParams,
    DomainError,
    GFParams,
    GaugeTransform,
    ScalarField,
    SphereSpectralField,
    VectorField3,
    VeselovaParams,
    apply_gauge_state,
    ball_system,
    compose,
    curl_target_F,
    e3_bivector,
    gf_bivector,
    inverse,
    pack,
    pushforward_bivector,
    pushforward_params,
    random_states,
    reduce_to_e3,
    reduction_report,
    unpack,
    veselova_system,
    zero_level_transform,
    vector,
)
import nonholo.checks as checks
import nonholo.spherical as spherical
from nonholo.core import FD_STEP, fd_jacobian
from nonholo.gauge import BRACKET_TOL, _fiber_map, gauge_state_jacobian
from nonholo.models import DEMO_GYROSTAT, DEMO_VESELOVA

from conftest import rand_state, rand_unit

BALL = BallParams(A=(0.4, 0.5, 0.6), D=1.0)


def _h1_jacobian(g):
    J = np.zeros(g.shape + (3,))
    J[..., 0, 1], J[..., 1, 2], J[..., 2, 0], J[..., 2, 1] = 0.2, -0.2 * g[..., 2], 0.3 * g[..., 1], 0.3 * g[..., 0]
    return J


def analytic_gauges():
    a1 = ScalarField(lambda g: 1.2 + 0.3 * g[..., 0] + 0.1 * g[..., 1] ** 2,
                     grad=lambda g: vector(0.3, 0.2 * g[..., 1], 0.0))
    h1 = VectorField3(lambda g: vector(0.2 * g[..., 1], -0.1 * g[..., 2] ** 2, 0.3 * g[..., 0] * g[..., 1]),
                      jacobian=_h1_jacobian)
    a2 = ScalarField(lambda g: 0.9 + 0.2 * g[..., 2], grad=lambda g: np.array([0.0, 0.0, 0.2]))
    h2 = VectorField3(lambda g: vector(0.1 * g[..., 0], 0.05 * g[..., 1], -0.2 * g[..., 2]),
                      jacobian=lambda g: np.diag([0.1, 0.05, -0.2]))
    return GaugeTransform(a1, 1.7, h1), GaugeTransform(a2, 0.8, h2)


def identity_gauge() -> GaugeTransform:
    return GaugeTransform(ScalarField.constant(1.0), 1.0, VectorField3.zero())


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
                                         jacobian=lambda g: np.zeros((3, 3))))
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

    @pytest.mark.parametrize("seed", [0, 3])
    def test_check_suite_action_is_exact_to_round_off(self, seed):
        # its transforms' leaves carry no derivatives; differenced only as
        # leaves, the two sides agree to round-off (2.6e-11 and 2.3e-11 while
        # the composites were differenced as a whole)
        body, ok = checks.gauge(random_states(np.random.default_rng(seed), 1000))
        assert ok and body["action_property_max"] <= 1e-13

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

    @pytest.mark.parametrize("a", [1e-15, 1e-100])
    def test_small_alpha_is_invertible(self, rng, a):
        # an absolute threshold |alpha| < 1e-14 refused these, and with them
        # reduce --g 1e15; the dilation (a, a, 0) has Jacobian diag(a, a, a,
        # 1, 1, 1), so it scales the M-block by a^2 and the mixed blocks by a
        t = GaugeTransform(ScalarField.constant(a), a, VectorField3.zero())
        x = rand_state(rng)
        scale = np.where(np.arange(6) < 3, a, 1.0)
        np.testing.assert_allclose(pushforward_bivector(t, e3_bivector, x),
                                   e3_bivector(x) * np.outer(scale, scale), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("a", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, rng, a):
        t = GaugeTransform(ScalarField.constant(a), 1.0, VectorField3.zero())
        with pytest.raises(DomainError, match="not finite"):
            pushforward_bivector(t, gf_bivector(ball_params()), rand_state(rng))

    def test_identity(self, rng):
        P = gf_bivector(ball_params())
        x = rand_state(rng)
        np.testing.assert_allclose(pushforward_bivector(identity_gauge(), P, x),
                                   P(x), atol=1e-12)

    def test_constant_gauge_is_exact_congruence(self, rng):
        # with constant (alpha, c, h) the closed-form Jacobian reads a zero
        # grad alpha and a zero dh, so the congruence must match the
        # hand-computed one to round-off
        from nonholo import hat
        a, c = 1.3, 0.7
        h = np.array([0.2, -0.1, 0.4])
        t = GaugeTransform(ScalarField.constant(a), c,
                           VectorField3(lambda g: h, jacobian=lambda g: np.zeros((3, 3))))
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


# Phi = sin(p.gamma), with its gradient
_P = np.array([0.7, -0.4, 1.1])
PHI = ScalarField(lambda g: np.sin(np.vecdot(g, _P)), grad=lambda g: np.cos(np.vecdot(g, _P))[..., None] * _P)


def with_phi(spec: GFParams) -> GFParams:
    return GFParams(g=spec.g, f=spec.f, phi=PHI)


class TestPhiAndGyrostat:
    """The action carries Phi as Phi~ = alpha^2 Phi and refuses a gyrostat
    k; the reduction refuses both by name."""

    @pytest.mark.parametrize("model", ["ball", "veselova"])
    @pytest.mark.parametrize("which", ["t1", "t2", "t2 t1"])
    def test_pushed_bracket_is_the_pushed_parameters_bracket(self, model, which):
        # the largest entrywise gap measured at these 500 states was 7.4e-12
        # (t1 and t2 t1) and 1.3e-15 (t2); Phi~ = Phi or alpha Phi miss by
        # 0.19 to 0.97, and dropping Phi by 1.1 to 1.8
        system = ball_system(BALL) if model == "ball" else veselova_system(VeselovaParams(**DEMO_VESELOVA))
        t1, t2 = analytic_gauges()
        t = {"t1": t1, "t2": t2, "t2 t1": compose(t2, t1)}[which]
        p = with_phi(system.s_spec)
        X = random_states(np.random.default_rng(11), 500)
        image = apply_gauge_state(t, X)
        left = pushforward_bivector(t, gf_bivector(p), X)
        pushed = pushforward_params(t, p)
        assert np.max(np.abs(left - gf_bivector(pushed)(image))) <= 1e-10
        for wrong in (PHI, t.alpha * PHI):
            other = GFParams(g=pushed.g, f=pushed.f, phi=wrong)
            assert np.max(np.abs(left - gf_bivector(other)(image))) >= 0.1

    def test_action_refuses_a_gyrostat(self):
        t1, _ = analytic_gauges()
        spec = veselova_system(VeselovaParams(**DEMO_VESELOVA, k=DEMO_GYROSTAT)).s_spec
        with pytest.raises(DomainError, match="gauge action does not preserve a nonzero gyrostat k"):
            pushforward_params(t1, spec)
        with pytest.raises(DomainError, match="gyrostat k"):
            pushforward_params(t1, GFParams(g=spec.g, f=spec.f, k=DEMO_GYROSTAT))
        assert pushforward_params(t1, GFParams(g=spec.g, f=spec.f, phi=spec.phi)).phi is not None

    @pytest.mark.parametrize("reduce", [curl_target_F, reduce_to_e3, reduction_report])
    def test_reduction_refuses_phi_and_gyrostat(self, reduce):
        spec = ball_system(BALL).s_spec
        with pytest.raises(DomainError, match="cannot remove a Phi term"):
            reduce(with_phi(spec))
        with pytest.raises(DomainError, match="cannot remove a nonzero gyrostat k"):
            reduce(ball_system(BallParams(A=BALL.A, D=BALL.D, k=DEMO_GYROSTAT)).s_spec)
        with pytest.raises(DomainError, match="Phi"):
            reduce(veselova_system(VeselovaParams(**DEMO_VESELOVA, k=DEMO_GYROSTAT)).s_spec)


def veselova_gyrostat_params() -> GFParams:
    spec = veselova_system(VeselovaParams(**DEMO_VESELOVA, k=DEMO_GYROSTAT)).s_spec
    return GFParams(g=spec.g, f=spec.f)


class TestStateJacobian:
    # the largest entrywise gap to the Richardson differences at step 1e-4
    # measured at 200 states was 1.9e-11, 2.3e-11 and 2.8e-11 (ball, L = 8,
    # 16, 32) and 1.6e-11, 1.9e-11 and 1.4e-11 (veselova+gyrostat): the
    # differences' round-off, on entries up to 9.8
    @pytest.mark.parametrize("params", [ball_params, veselova_gyrostat_params])
    @pytest.mark.parametrize("L", [8, 16, 32])
    def test_gamma_block_matches_richardson_differences_of_fiber_map(self, rng, params, L):
        gauge, _ = reduce_to_e3(params(), L=L)
        x = np.array([rand_state(rng) for _ in range(200)])
        M, gamma = unpack(x)
        # the raw fiber map, since apply_gauge_state refuses the off-sphere stencil
        fm = lambda g: _fiber_map(gauge.alpha(g), gauge.c, gauge.h(g), M, g)
        np.testing.assert_allclose(gauge_state_jacobian(gauge, x)[..., :3, 3:],
                                   fd_jacobian(fm, gamma, step=1e-4), rtol=0, atol=5e-11)

    @pytest.mark.parametrize("first", [True, False])
    def test_composed_gamma_block_matches_richardson_differences_of_fiber_map(self, rng, first):
        # a reduction composed with an analytic transform, either way round:
        # the composite's alpha and h carry their derivatives by the product
        # rule, so the closed-form block stays at the differences' round-off
        gauge, _ = reduce_to_e3(ball_params(), L=16)
        t1, t2 = analytic_gauges()
        t = compose(t2, gauge) if first else compose(gauge, t2)
        assert t.h.jacobian is not None and compose(t2, t1).h.jacobian is not None
        x = np.array([rand_state(rng) for _ in range(200)])
        M, gamma = unpack(x)
        fm = lambda g: _fiber_map(t.alpha(g), t.c, t.h(g), M, g)
        np.testing.assert_allclose(gauge_state_jacobian(t, x)[..., :3, 3:],
                                   fd_jacobian(fm, gamma, step=1e-4), rtol=0, atol=5e-11)

    @pytest.mark.parametrize("n", [None, 40])
    def test_gamma_block_falls_back_to_richardson_differences_of_h(self, rng, n):
        # an h without an analytic Jacobian is differentiated at the
        # field-fallback rule; by hand: one Richardson level of central
        # differences at FD_STEP
        gauge, _ = reduce_to_e3(ball_params(), L=16)
        bare = GaugeTransform(gauge.alpha, gauge.c, VectorField3(gauge.h.fn))
        x = rand_state(rng) if n is None else np.array([rand_state(rng) for _ in range(n)])
        _, gamma = unpack(x)

        def central(step):
            return np.stack([(gauge.h(gamma + e) - gauge.h(gamma - e)) / (2.0 * step)
                             for e in step * np.eye(3)], axis=-1)

        by_hand = (4.0 * central(FD_STEP / 2.0) - central(FD_STEP)) / 3.0
        pinned = GaugeTransform(gauge.alpha, gauge.c, VectorField3(gauge.h.fn, jacobian=lambda g: by_hand))
        # the step is scaled by max(1, |gamma|), an ulp above 1 on some unit gammas
        np.testing.assert_allclose(gauge_state_jacobian(bare, x), gauge_state_jacobian(pinned, x),
                                   rtol=0, atol=1e-12)


class TestZeroLevel:
    def zero_level_state(self, rng):
        g = rand_unit(rng)
        M = rng.standard_normal(3)
        M -= (M @ g) * g
        return pack(M, g)

    def rescaled(self, g: ScalarField, x):
        """Chaplygin's rescaling M -> M / g(gamma) of states on the zero level."""
        return apply_gauge_state(zero_level_transform(g), x)

    def test_ball_rescaling(self, rng):
        p = ball_params()
        x = self.zero_level_state(rng)
        M, g = unpack(x)
        y = self.rescaled(p.g, x)
        A = np.asarray(BALL.A)
        u = 1.0 - g @ (A * g)
        np.testing.assert_allclose(unpack(y)[0], M / np.sqrt(u), atol=1e-14)

    def test_veselova_rescaling(self, rng):
        spec = veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9))).s_spec
        x = self.zero_level_state(rng)
        M, g = unpack(x)
        y = self.rescaled(spec.g, x)
        G = g @ (np.array([0.6, 0.75, 0.9]) * g)
        np.testing.assert_allclose(unpack(y)[0], M / np.sqrt(G), atol=1e-14)

    def test_unit_g_is_identity(self, rng):
        x = self.zero_level_state(rng)
        np.testing.assert_array_equal(self.rescaled(ScalarField.constant(1.0), x), x)

    @pytest.mark.parametrize("n", [3, 5])
    def test_stack_equals_one_state_calls(self, rng, n):
        # states act over the last axis: a stack gives the one-state results row by row
        g = ball_params().g
        X = np.array([self.zero_level_state(rng) for _ in range(n)])
        np.testing.assert_array_equal(self.rescaled(g, X), [self.rescaled(g, x) for x in X])

    def veselova_params(self) -> GFParams:
        spec = veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9))).s_spec
        return GFParams(g=spec.g, f=spec.f)

    def test_bracket_congruence_hits_e3(self, rng):
        for p in (ball_params(), self.veselova_params()):
            P = gf_bivector(p)
            for _ in range(50):
                x = self.zero_level_state(rng)
                left = pushforward_bivector(zero_level_transform(p.g), P, x)
                right = e3_bivector(self.rescaled(p.g, x))
                np.testing.assert_allclose(left, right, atol=1e-12)

    @pytest.mark.parametrize("c", [1.0, 0.3, -2.0])
    def test_any_normal_dilation_hits_e3(self, rng, c):
        # on (M, gamma) = 0 the Jacobians of (1/g, c, 0) differ only by
        # (c - 1/g) e (x) d(M, gamma), which the bracket annihilates: the
        # area (M, gamma) is a Casimir
        for p in (ball_params(), self.veselova_params()):
            X = np.array([self.zero_level_state(rng) for _ in range(50)])
            t = GaugeTransform(p.g.reciprocal(), c, VectorField3.zero())
            left = pushforward_bivector(t, gf_bivector(p), X)
            right = e3_bivector(self.rescaled(p.g, X))
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
            np.testing.assert_allclose(full, pushforward_bivector(zero_level_transform(p.g), P, x), atol=1e-10)


class TestReduction:
    def test_bracket_probes_share_the_image_gradient(self, monkeypatch):
        # one synthesis of h's field at the probe states, shared by the
        # image M~ and the Jacobian's h(gamma) and dh: its 12 components are
        # h and the nine ladder components of h's gradients.  f~ reads h off
        # the residual's verification rings; no other value or gradient
        calls = []
        for name in ("value", "surface_gradient"):
            original = getattr(SphereSpectralField, name)
            monkeypatch.setattr(SphereSpectralField, name, lambda self, x, name=name, original=original:
                                calls.append((name, self.c_cos.shape[2:], np.size(x) // 3)) or original(self, x))
        reduction_report(ball_params(), L=16, n_states=20)
        assert calls == [("value", (12,), 20)]

    @pytest.mark.parametrize("params, L, budget", [
        (ball_params, 32, 2 * 33 + 5 * 17 + 200), (veselova_gyrostat_params, 16, 2 * 17 + 5 * 9 + 200),
    ])
    def test_table_column_budget(self, monkeypatch, params, L, budget):
        # Legendre-table columns of a whole report: the analysis grid's
        # rings, the verification rings with their shifted rings, and one per
        # probe state.  688 and 516 while f~ synthesized h point by point on
        # the verification grid and the probes' Jacobian built tables of its
        # own; 825 and 551 while h's values and curl read grad_S psi and a
        # separate Lap_S psi synthesis
        columns = []
        tables = spherical._legendre_tables
        monkeypatch.setattr(spherical, "_legendre_tables",
                            lambda L, x, s: columns.append(x.size) or tables(L, x, s))
        reduction_report(params(), L=L)
        assert sum(columns) == budget

    def test_bracket_probes_build_two_table_columns_per_state(self, monkeypatch):
        # at most two: one Legendre table column for h's values and its
        # Jacobian together, where the Jacobian's own synthesis made a
        # second; the 6-point central stencil of the gamma-block made 7
        columns = []
        tables = spherical._legendre_tables
        monkeypatch.setattr(spherical, "_legendre_tables",
                            lambda L, x, s: columns.append(x.size) or tables(L, x, s))
        counts = []
        for n in (100, 200):
            columns.clear()
            reduction_report(ball_params(), L=32, n_states=n)
            counts.append(sum(columns))
        assert counts[1] - counts[0] == 100 <= 2 * 100

    @pytest.mark.parametrize("seed", [0, 3])
    def test_ball_bracket_is_exact_to_round_off_at_L32(self, seed):
        # with a 1e-6 central difference in the gamma-block this read 1.42e-9
        # and 1.14e-9, the difference's noise
        assert reduction_report(ball_params(), L=32, seed=seed)["bracket_dev"] <= 1e-10

    def test_veselova_gyrostat_bracket_tracks_the_band_limit_at_L16(self):
        # the residual is 1.2e-8 here, so bracket_dev is truncation and kept
        # its value (3.333e-8 with the finite-difference gamma-block); read
        # at e(3) probes instead of source-frame ones (c = 1.57) it is 2.12e-8
        rep = reduction_report(veselova_gyrostat_params(), L=16, seed=3)
        assert rep["bracket_dev"] == pytest.approx(2.1219e-8, rel=0.01)

    def test_failing_bracket_names_its_worst_probe(self):
        # ball A3 = 0.99 at L = 16 fails both gates; the report names the
        # probe gamma where the pushed bracket deviates most
        spec = ball_system(BallParams(A=(0.4, 0.5, 0.99), D=1.0)).s_spec
        p = GFParams(g=spec.g, f=spec.f)
        rep = reduction_report(p, L=16, seed=3)
        assert rep["bracket_dev"] > BRACKET_TOL and rep["pass"] is False
        gauge, _ = reduce_to_e3(p, L=16)
        # the probes are drawn on e(3) and pulled back to the source frame
        X = apply_gauge_state(inverse(gauge), random_states(np.random.default_rng(3), 200))
        dev = np.max(np.abs(pushforward_bivector(gauge, gf_bivector(p), X)
                            - e3_bivector(apply_gauge_state(gauge, X))), axis=(1, 2))
        assert rep["worst_bracket_gamma"] == list(X[np.argmax(dev), 3:])
        assert np.max(dev) == rep["bracket_dev"]
        # a passing bracket names one of its probes too
        rep = reduction_report(ball_params(), L=16, n_states=20)
        assert rep["pass"] is True
        assert rep["worst_bracket_gamma"] in random_states(np.random.default_rng(0), 20)[:, 3:].tolist()

    @pytest.mark.parametrize("reduce", [reduce_to_e3, reduction_report])
    def test_scale_rule_refuses_a_cancelling_pair_in_the_library(self, reduce):
        # F = -(f/g^2 + 1/g) = -2.0e-11 keeps under half the digits of its
        # terms +-1/7: only the command line refused it, and the library
        # passed with f_tilde_dev 9.5e-7
        p = GFParams(g=ScalarField.constant(7.0), f=ScalarField.constant(-7.000000001))
        with pytest.raises(DomainError, match=r"^the dilation c = -mean\(F\) keeps fewer than half the digits"):
            reduce(p, L=8)

    @pytest.mark.parametrize("g, message", [
        (-2.0, "g must be positive on the sphere, got g = -2"),
        (0.0, "g must be positive on the sphere, got g = 0"),
        # |F| = 1e120, past F_SCALE
        (1e-60, r"F = .* reaches \|F\| = 1e\+120, past 1e\+102"),
    ])
    def test_scale_rule_refuses_before_the_transform(self, g, message):
        with pytest.raises(DomainError, match=message):
            reduce_to_e3(GFParams(g=ScalarField.constant(g), f=ScalarField.constant(1.0)), L=8)

    def test_report_refuses_an_overflow_at_its_first_step(self):
        # 1/g^2 overflows in F's gradient term: one DomainError, no warning
        p = GFParams(g=ScalarField.constant(1e300), f=ScalarField.constant(0.0))
        with pytest.raises(DomainError, match="^the reduction of this \\(g, f\\) is not finite: overflow"):
            reduction_report(p, L=8, n_states=5)

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
