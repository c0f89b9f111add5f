"""Generic flows on R^6: S-forms, integrals, measure, bracket assembly."""

import numpy as np
import pytest

from nonholo import (
    BallParams,
    DomainError,
    GFParams,
    ScalarField,
    SphereSystem,
    VectorField3,
    VeselovaParams,
    assemble_P,
    ball_K,
    ball_system,
    bivector_field,
    conformal_residual,
    e3_bivector,
    fd_gradient,
    gf_bivector,
    hat,
    integrals,
    jacobiator,
    random_states,
    k_from_gf,
    measure_residual,
    pack,
    rhs,
    s_value,
    unpack,
    veselova_K,
    veselova_system,
)
from nonholo import models

from conftest import SYSTEMS, rand_state, rand_unit

BALL = BallParams(A=(0.4, 0.5, 0.6), D=1.0)
VES = VeselovaParams(Ahat=(0.6, 0.75, 0.9))
VES_GYRO = VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=np.array([0.0, 0.0, 0.1]))


def free_top():
    return SphereSystem(
        name="free-top",
        hamiltonian=lambda M, g: 0.5 * np.vecdot(M, M),
        grad_H=lambda M, g: pack(M, np.zeros_like(g)),
        s_spec=GFParams(g=ScalarField.constant(1.0), f=ScalarField.constant(0.0)),
    )


class TestSValue:
    def test_zero_spec(self, rng):
        spec = GFParams(g=ScalarField.constant(1.0), f=ScalarField.constant(0.0))
        sys = SphereSystem("null", lambda M, g: 0.0, lambda M, g: np.zeros(6), spec)
        assert s_value(sys, rand_state(rng)) == 0.0

    def test_ball_orthogonal_state(self):
        # at gamma = e3 and M = e1 the coupling (A M, gamma) vanishes
        sys = ball_system(BALL)
        x = pack([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert s_value(sys, x) == pytest.approx(0.0, abs=1e-15)

    def test_veselova_gyro_closed_form(self, rng):
        # S = -((Ahat - E) M - k, gamma) / (gamma, Ahat gamma); the overall
        # sign is pinned by the invariant measure and the gyrostat integral
        sys = veselova_system(VES_GYRO)
        Ah, k = VES_GYRO.Ahat, VES_GYRO.k
        for _ in range(100):
            x = rand_state(rng)
            M, g = unpack(x)
            expect = -((Ah * M - M - k) @ g) / (g @ (Ah * g))
            assert s_value(sys, x) == pytest.approx(expect, abs=1e-12)

    def test_veselova_spherical_inertia(self, rng):
        # Ahat = E leaves only the gyrostatic part: S = (k, gamma)
        sys = veselova_system(VeselovaParams(Ahat=(1, 1, 1), k=np.array([0.0, 0.0, 0.1])))
        for _ in range(20):
            x = rand_state(rng)
            _, g = unpack(x)
            assert s_value(sys, x) == pytest.approx(0.1 * g[2], abs=1e-14)


class TestRhs:
    def test_free_top(self, rng):
        sys = free_top()
        x = rand_state(rng)
        M, g = unpack(x)
        out = rhs(sys, x)
        np.testing.assert_allclose(out[:3], 0.0, atol=1e-15)
        np.testing.assert_allclose(out[3:], np.cross(g, M), atol=1e-15)

    def test_gamma_dot_orthogonal_to_gamma(self, rng):
        sys = ball_system(BALL)
        for _ in range(50):
            x = rand_state(rng)
            _, g = unpack(x)
            assert abs(rhs(sys, x)[3:] @ g) <= 1e-14

    @pytest.mark.parametrize("make", [
        lambda: ball_system(BALL),
        lambda: ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0, k=np.array([0, 0, 0.1]))),
        lambda: veselova_system(VES),
        lambda: veselova_system(VES_GYRO),
    ])
    def test_automatic_integrals_are_conserved_infinitesimally(self, make, rng):
        # directional derivatives of gamma^2, (M + k, gamma) and H along the flow
        sys = make()
        for _ in range(100):
            x = rand_state(rng)
            M, g = unpack(x)
            v = rhs(sys, x)
            grad_F1 = pack(np.zeros(3), 2 * g)
            grad_F2 = pack(g, M + sys.s_spec.k)
            assert abs(grad_F1 @ v) <= 1e-10
            assert abs(grad_F2 @ v) <= 1e-10
            assert abs(sys.grad_H(M, g) @ v) <= 1e-10


class TestIntegrals:
    def test_values(self):
        sys = free_top()
        vals = integrals(sys, pack([1, 2, 3], [0, 0, 1]))
        assert vals.F1 == 1.0
        assert vals.F2 == 3.0
        assert vals.F3 == pytest.approx(7.0)

    def test_gyrostat_shifts_area_integral(self):
        sys = veselova_system(VeselovaParams(Ahat=(1, 1, 1), k=np.array([0.0, 0.0, 1.0])))
        vals = integrals(sys, pack([1, 2, 3], [0, 0, 1]))
        assert vals.F2 == 4.0

    def test_f3_equals_model_energy(self, rng):
        sys = ball_system(BALL)
        for _ in range(100):
            x = rand_state(rng)
            M, g = unpack(x)
            assert integrals(sys, x).F3 == pytest.approx(sys.hamiltonian(M, g), rel=1e-14)

    def test_extras_registered(self):
        assert dict(ball_system(BALL).extra_integrals)
        vals = integrals(veselova_system(VES_GYRO), pack([1, 0, 0], [0, 0, 1]))
        assert vals.extras["MkSq"] == pytest.approx(1.0 + 0.01)


class TestMeasureResidual:
    def test_ball_closed_form_density(self, rng):
        # K = A gamma / u against rho = u^(-1/2): an analytic identity
        rho = ball_system(BALL).s_spec.g.reciprocal()
        for _ in range(100):
            r = measure_residual(ball_K(BALL), rand_state(rng), rho)
            assert np.max(np.abs(r)) <= 1e-10

    def test_veselova_closed_form_density(self, rng):
        # here (1/rho) drho/dgamma - K is parallel to gamma, not zero
        rho = veselova_system(VES).s_spec.g.reciprocal()
        for _ in range(100):
            r = measure_residual(veselova_K(VES), rand_state(rng), rho)
            assert np.max(np.abs(r)) <= 1e-10

    def test_uniform_density_mismatch(self):
        K = VectorField3(lambda g: np.array([1.0, 0.0, 0.0]))
        r = measure_residual(K, pack([0, 0, 0], [0, 0, 1.0]), ScalarField.constant(1.0))
        np.testing.assert_allclose(r, [0.0, 1.0, 0.0], atol=1e-15)

    def test_reduced_spec_default_density(self, rng):
        for sys in (ball_system(BALL), veselova_system(VES_GYRO)):
            spec = sys.s_spec
            K = VectorField3(lambda g: k_from_gf(spec.g, spec.f, g))
            for _ in range(20):
                r = measure_residual(K, rand_state(rng), spec.g.reciprocal())
                assert np.max(np.abs(r)) <= 1e-12


class TestKFromGf:
    def test_trivial(self, rng):
        K = k_from_gf(ScalarField.constant(1.0), ScalarField.constant(0.0), rand_unit(rng))
        np.testing.assert_allclose(K, 0.0, atol=1e-15)

    def test_ball(self, rng):
        spec = ball_system(BALL).s_spec
        A = np.asarray(BALL.A)
        for _ in range(20):
            g = rand_unit(rng)
            u = 1.0 - g @ (A * g)
            np.testing.assert_allclose(k_from_gf(spec.g, spec.f, g), A * g / u,
                                       atol=1e-13)

    def test_veselova(self, rng):
        spec = veselova_system(VES).s_spec
        Ah = np.asarray(VES.Ahat)
        for _ in range(20):
            g = rand_unit(rng)
            G = g @ (Ah * g)
            np.testing.assert_allclose(k_from_gf(spec.g, spec.f, g),
                                       -(Ah * g - g) / G, atol=1e-13)

    def test_nonpositive_g_rejected(self, rng):
        with pytest.raises(DomainError):
            k_from_gf(ScalarField.constant(-1.0), ScalarField.constant(0.0), rand_unit(rng))


class TestAssembleP:
    def test_trivial_parameters_give_e3(self, rng):
        sys = free_top()
        x = rand_state(rng)
        np.testing.assert_array_equal(assemble_P(sys, x), e3_bivector(x))

    @pytest.mark.parametrize("make", [
        lambda: ball_system(BALL),
        lambda: veselova_system(VES_GYRO),
    ])
    def test_casimirs_annihilated(self, make, rng):
        sys = make()
        for _ in range(100):
            x = rand_state(rng)
            M, g = unpack(x)
            P = assemble_P(sys, x)
            np.testing.assert_allclose(P @ pack(np.zeros(3), 2 * g), 0.0, atol=1e-12)
            np.testing.assert_allclose(P @ pack(g, M + sys.s_spec.k), 0.0, atol=1e-12)

    def test_mm_block_scalar_factor(self, rng):
        sys = ball_system(BALL)
        x = rand_state(rng)
        M, g = unpack(x)
        gv = sys.s_spec.g(g)
        block = assemble_P(sys, x)[:3, :3] - gv * hat(M + sys.s_spec.k)
        np.testing.assert_allclose(block, -gv * s_value(sys, x) * hat(g), atol=1e-14)

    def test_jacobi_for_models(self, rng):
        for make in (lambda: ball_system(BALL), lambda: veselova_system(VES),
                     lambda: veselova_system(VES_GYRO)):
            sys = make()
            P = lambda x: assemble_P(sys, x)
            for _ in range(30):
                assert jacobiator(P, rand_state(rng)) <= 1e-6

    def test_phi_term_keeps_jacobi(self, rng):
        # an arbitrary Phi added to an admissible structure stays Poisson
        spec = ball_system(BALL).s_spec
        phi = ScalarField(lambda g: 0.7 * g[..., 0] * g[..., 2])
        P = gf_bivector(GFParams(g=spec.g, f=spec.f, phi=phi))
        for _ in range(30):
            assert jacobiator(P, rand_state(rng)) <= 1e-6

    def test_phi_term_keeps_area_casimir(self, rng):
        spec = ball_system(BALL).s_spec
        phi = ScalarField(lambda g: 0.7 * g[..., 0] * g[..., 2])
        P = gf_bivector(GFParams(g=spec.g, f=spec.f, phi=phi))
        for _ in range(30):
            x = rand_state(rng)
            M, g = unpack(x)
            np.testing.assert_allclose(P(x) @ pack(g, M), 0.0, atol=1e-12)

    def test_negative_control_violates_jacobi(self, rng):
        # uniform density paired with the ball coupling vector is not a
        # solution of the measure equation, so Jacobi must fail generically
        P = bivector_field(g=ScalarField.constant(1.0), K=ball_K(BALL))
        vals = [jacobiator(P, rand_state(rng)) for _ in range(100)]
        assert np.mean([v > 1e-3 for v in vals]) >= 0.9

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_is_the_family_bracket(self, name, rng):
        # a system's bracket is its parameters' one bracket, bitwise
        sys = SYSTEMS[name]
        X = np.stack([rand_state(rng) for _ in range(20)])
        np.testing.assert_array_equal(assemble_P(sys, X), gf_bivector(sys.s_spec)(X))


class TestConformalResidual:
    @pytest.mark.parametrize("make", [
        lambda: ball_system(BALL),
        lambda: ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0, k=np.array([0, 0, 0.1]))),
        lambda: veselova_system(VES),
        lambda: veselova_system(VES_GYRO),
    ])
    def test_admissible_models(self, make, rng):
        sys = make()
        for _ in range(100):
            assert conformal_residual(sys, rand_state(rng)) <= 1e-10

    def test_constant_hamiltonian(self, rng):
        sys = SphereSystem("const", lambda M, g: 1.0, lambda M, g: np.zeros(6),
                           GFParams(g=ScalarField.constant(1.0), f=ScalarField.constant(0.0)))
        assert conformal_residual(sys, rand_state(rng)) == 0.0


def gradient_consistency(sys: SphereSystem, x) -> float:
    """Worst deviation of the analytic H-gradient from finite differences."""
    M, gamma = unpack(x)
    fd = pack(fd_gradient(lambda m: sys.hamiltonian(m, gamma), M),
              fd_gradient(lambda g: sys.hamiltonian(M, g), gamma))
    return float(np.max(np.abs(fd - sys.grad_H(M, gamma))))


def test_analytic_gradients_match_fd(rng):
    for sys in SYSTEMS.values():
        for _ in range(10):
            assert gradient_consistency(sys, rand_state(rng)) <= 1e-6


def test_one_kernel_call_per_rhs_and_two_per_conformal_residual(monkeypatch, rng):
    # grad H is one object: rhs evaluates the model's component kernel once
    # for it, and conformal_residual once more beside rhs
    calls, kernel = [], models._ball_kernel

    def counted(p):
        u, parts = kernel(p)
        return u, lambda *components: calls.append(1) or parts(*components)

    monkeypatch.setattr(models, "_ball_kernel", counted)
    sys, X = ball_system(BALL), random_states(rng, 5)
    rhs(sys, X)
    assert len(calls) == 1
    conformal_residual(sys, X)
    assert len(calls) == 3
