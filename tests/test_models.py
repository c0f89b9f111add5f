"""The rolling ball and the constrained body, their maps and the duality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonholo import (
    BallParams,
    DomainError,
    VeselovaParams,
    ball_M_from_omega,
    ball_omega_from_M,
    ball_system,
    duality_map,
    linear_potential,
    pack,
    quadratic_potential,
    rhs,
    unpack,
    veselova_M_from_omega,
    veselova_omega_from_M,
    veselova_system,
)

from conftest import rand_state, rand_unit

BALL = BallParams(A=(0.4, 0.5, 0.6), D=1.0)
VES = VeselovaParams(Ahat=(0.6, 0.75, 0.9))
K_DEMO = np.array([0.0, 0.0, 0.1])


class TestBall:
    def test_spherical_inertia_hamiltonian(self, rng):
        a, D = 0.5, 1.0
        sys = ball_system(BallParams(A=(a, a, a), D=D))
        for _ in range(20):
            M, g = rng.standard_normal(3), rand_unit(rng)
            expect = 0.5 * (a * M @ M + a * a * (M @ g) ** 2 / (1 / D - a))
            assert sys.hamiltonian(M, g) == pytest.approx(expect, rel=1e-13)

    def test_spherical_inertia_constant_g(self, rng):
        sys = ball_system(BallParams(A=(0.5, 0.5, 0.5), D=1.0))
        for _ in range(10):
            assert sys.s_spec.g(rand_unit(rng)) == pytest.approx(np.sqrt(0.5), abs=1e-14)

    def test_density_is_reciprocal_of_g(self, rng):
        sys = ball_system(BALL)
        rho = sys.s_spec.g.reciprocal()
        for _ in range(20):
            g = rand_unit(rng)
            assert rho(g) * sys.s_spec.g(g) == pytest.approx(1.0, abs=1e-14)

    def test_domain_invariant_names_direction(self):
        with pytest.raises(DomainError, match="z-axis"):
            BallParams(A=(0.4, 0.5, 0.6), D=2.0)

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(DomainError):
            BallParams(A=(0.4, -0.5, 0.6), D=1.0)
        with pytest.raises(DomainError):
            BallParams(A=(0.4, 0.5, 0.6), D=-1.0)

    def test_non_finite_parameters_rejected(self):
        # a NaN D passed `D <= 0` and hung simulate, as did a NaN gyrostat
        with pytest.raises(DomainError, match="D must be positive, got nan"):
            BallParams(A=(0.4, 0.5, 0.6), D=np.nan)
        for k in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0)):
            with pytest.raises(DomainError, match="gyrostat k must be finite"):
                BallParams(A=(0.4, 0.5, 0.6), D=1.0, k=k)
            with pytest.raises(DomainError, match="gyrostat k must be finite"):
                VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=k)

    @pytest.mark.parametrize("D", [1e-320, np.float64(1e-320)])
    def test_tiny_D_rejected(self, D):
        # 1/D overflowed: numpy RuntimeWarnings, then a NaN jacobiator, a
        # refusal naming the reduction's internal dilation c, or a run
        # that went on
        with pytest.raises(DomainError, match=r"^D = 1e-320 is too small: 1/D overflows$"):
            BallParams(A=(0.4, 0.5, 0.6), D=D)

    def test_infinite_diagonal_entry_rejected(self):
        # inf > 0 passed the positivity test
        with pytest.raises(DomainError, match=r"^Ahat\[0\] \(x-axis\) must be finite, got inf$"):
            VeselovaParams(Ahat=(np.inf, 0.75, 0.9))
        with pytest.raises(DomainError, match=r"^A\[2\] \(z-axis\) must be finite, got inf$"):
            BallParams(A=(0.4, 0.5, np.inf), D=1.0)
        with pytest.raises(DomainError, match=r"^A\[1\] \(y-axis\) must be positive, got nan$"):
            BallParams(A=(0.4, np.nan, 0.6), D=1.0)

    def test_full_matrix_rejected(self):
        with pytest.raises(DomainError, match="diagonal"):
            BallParams(A=np.eye(3) * 0.5, D=1.0)


class TestBallMaps:
    def test_round_trip(self, rng):
        for _ in range(100):
            omega, g = rng.standard_normal(3), rand_unit(rng)
            M = ball_M_from_omega(BALL, omega, g)
            np.testing.assert_allclose(ball_omega_from_M(BALL, M, g), omega, atol=1e-12)

    def test_round_trip_other_direction(self, rng):
        for _ in range(100):
            M, g = rng.standard_normal(3), rand_unit(rng)
            omega = ball_omega_from_M(BALL, M, g)
            np.testing.assert_allclose(ball_M_from_omega(BALL, omega, g), M, atol=1e-12)

    def test_spherical_axis_aligned(self, rng):
        # for A = a E and omega parallel to gamma: M = (1/a - D) omega
        a, D = 0.5, 1.0
        p = BallParams(A=(a, a, a), D=D)
        g = rand_unit(rng)
        omega = 1.3 * g
        np.testing.assert_allclose(ball_M_from_omega(p, omega, g),
                                   (1 / a - D) * omega, atol=1e-14)

    def test_spherical_area_integral_relation(self, rng):
        a, D = 0.5, 1.0
        p = BallParams(A=(a, a, a), D=D)
        omega, g = rng.standard_normal(3), rand_unit(rng)
        M = ball_M_from_omega(p, omega, g)
        assert M @ g == pytest.approx((1 / a - D) * (omega @ g), rel=1e-13)

    def test_omega_equals_momentum_gradient(self, rng):
        # dH/dM is the angular velocity for this model
        sys = ball_system(BALL)
        for _ in range(20):
            x = rand_state(rng)
            M, g = unpack(x)
            np.testing.assert_allclose(sys.grad_H(M, g)[:3], ball_omega_from_M(BALL, M, g), atol=1e-13)


class TestVeselova:
    def test_spherical_inertia(self, rng):
        sys = veselova_system(VeselovaParams(Ahat=(1.0, 1.0, 1.0)))
        for _ in range(20):
            M, g = rng.standard_normal(3), rand_unit(rng)
            assert sys.hamiltonian(M, g) == pytest.approx(0.5 * M @ M, rel=1e-13)
            np.testing.assert_allclose(veselova_M_from_omega(
                VeselovaParams(Ahat=(1.0, 1.0, 1.0)), M, g), M, atol=1e-14)

    def test_potential_enters_hamiltonian(self, rng):
        U = linear_potential([0.0, 0.0, 9.8])
        sys = veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9), U=U))
        M, g = rng.standard_normal(3), rand_unit(rng)
        base = veselova_system(VES).hamiltonian(M, g)
        assert sys.hamiltonian(M, g) == pytest.approx(base + 9.8 * g[2], rel=1e-12)

    def test_round_trip(self, rng):
        p = VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=K_DEMO)
        for _ in range(100):
            omega, g = rng.standard_normal(3), rand_unit(rng)
            M = veselova_M_from_omega(p, omega, g)
            np.testing.assert_allclose(veselova_omega_from_M(p, M, g), omega, atol=1e-12)

    def test_area_integral_equals_constraint(self, rng):
        p = VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=K_DEMO)
        for _ in range(100):
            omega, g = rng.standard_normal(3), rand_unit(rng)
            M = veselova_M_from_omega(p, omega, g)
            assert abs((M + p.k) @ g - omega @ g) <= 1e-14

    def test_gyrostat_integral_is_infinitesimally_conserved(self, rng):
        sys = veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=K_DEMO))
        for _ in range(100):
            x = rand_state(rng)
            M, g = unpack(x)
            grad_F3 = pack(2 * (M + sys.s_spec.k), np.zeros(3))
            assert abs(grad_F3 @ rhs(sys, x)) <= 1e-12

    def test_ball_momentum_is_infinitesimally_conserved(self, rng):
        sys = ball_system(BALL)
        for _ in range(100):
            x = rand_state(rng)
            M, _ = unpack(x)
            assert abs(pack(2 * M, np.zeros(3)) @ rhs(sys, x)) <= 1e-12

    def test_extras_only_without_potential(self):
        with_u = veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=K_DEMO,
                                                U=quadratic_potential([1, 2, 3])))
        assert with_u.extra_integrals == ()


@given(st.floats(0.3, 0.95), st.floats(0.3, 0.95), st.floats(0.3, 0.95),
       st.floats(0.2, 3.0))
@settings(max_examples=30, deadline=None)
def test_veselova_round_trip_parametrized(a1, a2, a3, scale):
    p = VeselovaParams(Ahat=(a1, a2, a3))
    rng = np.random.default_rng(7)
    omega, g = scale * rng.standard_normal(3), rand_unit(rng)
    M = veselova_M_from_omega(p, omega, g)
    np.testing.assert_allclose(veselova_omega_from_M(p, M, g), omega,
                               rtol=1e-10, atol=1e-12)


class TestDuality:
    def test_hamiltonian_identity(self, rng):
        bp = duality_map(VES, D=1.0)
        H1 = ball_system(bp).hamiltonian
        H2 = veselova_system(VES).hamiltonian
        for _ in range(1000):
            x = rand_state(rng)
            M, g = unpack(x)
            assert abs(H1(M, g) - 0.5 * (M @ M) + H2(M, g)) <= 1e-12

    def test_hamiltonian_identity_other_D(self, rng):
        D = 2.5
        bp = duality_map(VES, D=D)
        H1 = ball_system(bp).hamiltonian
        H2 = veselova_system(VES).hamiltonian
        for _ in range(200):
            x = rand_state(rng)
            M, g = unpack(x)
            assert abs(H1(M, g) - (M @ M) / (2 * D) + H2(M, g) / D) <= 1e-12

    def test_measure_factor_relation(self, rng):
        D = 2.5
        g_ball = ball_system(duality_map(VES, D=D)).s_spec.g
        g_ves = veselova_system(VES).s_spec.g
        for _ in range(50):
            u = rand_unit(rng)
            assert abs(g_ball(u) - g_ves(u) / np.sqrt(D)) <= 1e-12

    def test_degenerate_dual_rejected(self):
        with pytest.raises(DomainError):
            duality_map(VeselovaParams(Ahat=(1.0, 1.0, 1.0)), D=1.0)

    def test_gyrostat_rejected(self):
        with pytest.raises(DomainError):
            duality_map(VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=K_DEMO), D=1.0)

    def test_overflowing_dual_inertia_names_D(self):
        # (1 - Ahat) / D overflowed with a RuntimeWarning, and the ball's own
        # check then blamed A[0], a knob `check duality` does not have; the
        # suite's filterwarnings = error turns a warning into a failure here
        with pytest.raises(DomainError, match=r"^D = 1e-320 is too small: the dual inertia \(1 - Ahat\) / D "
                                              r"overflows$"):
            duality_map(VES, D=1e-320)

    def test_resulting_params_satisfy_ball_domain(self):
        bp = duality_map(VES, D=0.1)
        np.testing.assert_allclose(bp.A, (1 - np.asarray(VES.Ahat)) / 0.1)
        ball_system(bp)  # constructor enforces the domain invariant


K_FULL = np.array([0.05, -0.08, 0.1])     # a gyrostat with no zero component
FLOW_CASES = {
    "ball": BALL,
    "ball+gyrostat": BallParams(A=(0.4, 0.5, 0.6), D=1.0, k=K_FULL),
    "ball+linear U": BallParams(A=(0.4, 0.5, 0.6), D=1.0, U=linear_potential([0.3, -0.1, 0.7])),
    "ball near the boundary": BallParams(A=(0.4, 0.5, 1.0 - 1e-6), D=1.0),
    "veselova": VES,
    "veselova+gyrostat": VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=K_FULL),
    "veselova+gyrostat+quadratic U": VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=K_FULL,
                                                    U=quadratic_potential([0.2, 0.5, -0.3])),
}


def _flow_states(seed: int) -> np.ndarray:
    """200 seeded states with gamma uniform on the sphere, then 100 with
    gamma within about 1e-3 of the poles, where S of the near-boundary
    ball is largest."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((300, 6))
    X[200:, 3:5] *= 1e-3
    X[:, 3:] /= np.linalg.norm(X[:, 3:], axis=1, keepdims=True)
    return X


@pytest.mark.parametrize("name", list(FLOW_CASES))
def test_closed_form_flow_matches_reference_rhs(name):
    p = FLOW_CASES[name]
    sys = ball_system(p) if isinstance(p, BallParams) else veselova_system(p)
    eps = np.finfo(float).eps
    for x in _flow_states(2024):
        ref = rhs(sys, x)
        # 1e-13 wherever S is well conditioned.  For the ball,
        # u = 1/D - (gamma, A gamma) cancels near the axis where 1/D - A_i
        # is small: its condition number kappa = (1/D)/u (about 1e6 near the
        # poles of the near-boundary ball) scales any two roundings of it.
        kappa = 1.0
        if isinstance(p, BallParams):
            g = x[3:]
            kappa = (1.0 / p.D) / (1.0 / p.D - g @ (p.A * g))
        tol = max(1e-13, 16.0 * eps * kappa) * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(sys.flow(x) - ref)) <= tol, x
        # the rescaled run's field (g flow, g): its clock against the spec's
        # g, and its velocity the flow times that clock, bit for bit
        g_ref, dz = sys.s_spec.g(x[3:]), sys.rescaled_flow(x)
        assert abs(dz[-1] - g_ref) <= 16.0 * eps * kappa * g_ref, x
        assert np.array_equal(dz[:-1], sys.flow(x) * dz[-1]), x


def test_closed_form_ball_flow_rejects_gamma_off_the_sphere():
    # 1/D - (gamma, A gamma) > 0 holds on the unit sphere only; off it the
    # closed form would flip the sign of S instead of failing
    sys = ball_system(BallParams(A=(0.4, 0.5, 0.99), D=1.0))
    with pytest.raises(DomainError, match="off the unit sphere"):
        sys.flow(pack([0.3, -0.2, 0.5], [0.0, 0.0, 1.01]))
    with pytest.raises(DomainError, match="off the unit sphere"):
        sys.rescaled_flow(pack([0.3, -0.2, 0.5], [0.0, 0.0, 1.01]))
