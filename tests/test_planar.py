"""Planar systems: Legendre conversion, flow, measure gate, rescaling."""

from dataclasses import replace

import numpy as np
import pytest

from nonholo import (DomainError, IntegratorConfig, ScalarField, drift_report, integrate, jacobiator,
                     vector)
from nonholo.planar import (
    PlanarLagrangian,
    PlanarSystem,
    conformal_bracket,
    demo_system,
    energy_fn,
    from_lagrangian,
    legendre,
    measure_residual,
    planar_rhs,
    to_conformal,
)
from nonholo.planar import _conformal_residual


def random_lagrangian(rng, constant_G=False):
    B = rng.standard_normal((2, 2))
    G0 = B @ B.T + 2.0 * np.eye(2)

    def G(q):
        if constant_G:
            return G0
        return G0 * (1.0 + 0.1 * np.sin(q[0] + q[1]))

    V = ScalarField(lambda q: np.cos(q[..., 0] * q[..., 1]))
    return PlanarLagrangian(G=G, V=V, a1=lambda q: 0.3, a2=lambda q: -0.1,
                            b=lambda q: 0.2 * q[0])


class TestLegendre:
    def test_identity_kinetic_matrix(self):
        lag = PlanarLagrangian(G=lambda q: np.eye(2), V=ScalarField.constant(0.0),
                               a1=lambda q: 0, a2=lambda q: 0, b=lambda q: 0)
        P, H = legendre(lag, [0.0, 0.0], [1.0, 2.0])
        np.testing.assert_array_equal(P, [1.0, 2.0])
        assert H == pytest.approx(2.5)

    def test_diagonal_kinetic_matrix(self):
        lag = PlanarLagrangian(G=lambda q: np.diag([2.0, 1.0]), V=ScalarField.constant(0.0),
                               a1=lambda q: 0, a2=lambda q: 0, b=lambda q: 0)
        P, H = legendre(lag, [0.0, 0.0], [1.0, 0.0])
        np.testing.assert_array_equal(P, [2.0, 0.0])
        assert H == pytest.approx(1.0)

    def test_energy_matches_legendre_identity(self, rng):
        # H must equal sum_i (dL/dqdot_i) qdot_i - L evaluated directly
        for _ in range(20):
            lag = random_lagrangian(rng)
            q, qd = rng.standard_normal(2), rng.standard_normal(2)
            P, H = legendre(lag, q, qd)
            G = lag.G(q)
            L = 0.5 * qd @ G @ qd - lag.V(q)
            assert H == pytest.approx((G @ qd) @ qd - L, abs=1e-12)

    def test_degenerate_kinetic_matrix_rejected(self):
        lag = PlanarLagrangian(G=lambda q: np.diag([1.0, -1.0]), V=ScalarField.constant(0.0),
                               a1=lambda q: 0, a2=lambda q: 0, b=lambda q: 0)
        with pytest.raises(DomainError):
            legendre(lag, [0.0, 0.0], [1.0, 0.0])

    def test_momentum_form_coefficients(self, rng):
        # S written in velocities must agree with S written in momenta
        lag = random_lagrangian(rng, constant_G=True)
        sys = from_lagrangian(lag, N=ScalarField.constant(1.0))
        q, qd = rng.standard_normal(2), rng.standard_normal(2)
        P, _ = legendre(lag, q, qd)
        s_vel = lag.a1(q) * qd[0] + lag.a2(q) * qd[1] + lag.b(q)
        s_mom = sys.A(q) @ P + sys.B(q)
        assert s_mom == pytest.approx(s_vel, rel=1e-12)

    def test_G_inverted_once_for_the_pair_of_coefficients(self, rng, monkeypatch):
        # grad H inverts G for dH/dP and at each of the 8 points of dH/dq's
        # Richardson differences, A once for (A1, A2)
        sys = from_lagrangian(random_lagrangian(rng), N=ScalarField.constant(1.0))
        calls, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda G: calls.append(1) or inv(G))
        planar_rhs(sys, rng.standard_normal(4))
        assert len(calls) == 10
        measure_residual(sys, rng.standard_normal(2))
        assert len(calls) == 11


class TestRhs:
    def test_canonical_when_uncoupled(self, rng):
        sys = demo_system()
        plain = PlanarSystem(H=sys.H, grad_H=sys.grad_H, A=lambda q: (0.0, 0.0), B=lambda q: 0.0,
                             N=ScalarField.constant(1.0))
        z = rng.standard_normal(4)
        grad = sys.grad_H(z[:2], z[2:])
        out = planar_rhs(plain, z)
        np.testing.assert_allclose(out[:2], grad[2:], atol=1e-15)
        np.testing.assert_allclose(out[2:], -grad[:2], atol=1e-15)

    def test_pure_b_coupling(self, rng):
        sys = demo_system()
        bsys = PlanarSystem(H=sys.H, grad_H=sys.grad_H, A=lambda q: (0.0, 0.0), B=lambda q: 0.7,
                            N=ScalarField.constant(1.0))
        z = rng.standard_normal(4)
        hq1, hq2, hp1, hp2 = sys.grad_H(z[:2], z[2:])
        out = planar_rhs(bsys, z)
        assert out[2] == pytest.approx(-hq1 + 0.7 * hp2)
        assert out[3] == pytest.approx(-hq2 - 0.7 * hp1)

    def test_energy_is_infinitesimally_conserved(self, rng):
        # the gyroscopic coupling does no work for any coefficients
        sys = demo_system()
        for _ in range(100):
            z = rng.standard_normal(4)
            assert abs(sys.grad_H(z[:2], z[2:]) @ planar_rhs(sys, z)) <= 1e-12


class TestMeasure:
    def test_admissible_demo(self, rng):
        sys = demo_system()
        for _ in range(20):
            r = measure_residual(sys, rng.standard_normal(2))
            np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_uncoupled_uniform_density(self, rng):
        sys = demo_system()
        plain = PlanarSystem(H=sys.H, grad_H=sys.grad_H, A=lambda q: (0.0, 0.0), B=sys.B,
                             N=ScalarField.constant(1.0))
        np.testing.assert_allclose(measure_residual(plain, rng.standard_normal(2)),
                                   0.0, atol=1e-15)

    def test_exponential_density_without_coupling(self):
        sys = demo_system()
        mism = PlanarSystem(H=sys.H, grad_H=sys.grad_H, A=lambda q: (0.0, 0.0), B=sys.B, N=sys.N)
        r = measure_residual(mism, np.array([0.3, -0.7]))
        np.testing.assert_allclose(r, [1.0, 0.0], atol=1e-12)

    def test_nonpositive_density_rejected(self):
        sys = demo_system()
        bad = PlanarSystem(H=sys.H, grad_H=sys.grad_H, A=sys.A, B=sys.B, N=ScalarField.constant(-1.0))
        with pytest.raises(DomainError):
            measure_residual(bad, np.zeros(2))


class TestConformal:
    def test_trivial_system(self, rng):
        sys = demo_system()
        plain = PlanarSystem(H=sys.H, grad_H=sys.grad_H, A=lambda q: (0.0, 0.0), B=lambda q: 0.0,
                             N=ScalarField.constant(1.0))
        z = rng.standard_normal(4)
        p, nb, residual = to_conformal(plain, z)
        np.testing.assert_array_equal(p, z[2:])
        assert nb == 0.0
        assert residual <= 1e-14

    def test_momentum_round_trip(self, rng):
        sys = demo_system()
        z = rng.standard_normal(4)
        p, _, _ = to_conformal(sys, z)
        np.testing.assert_allclose(p / sys.N(z[:2]), z[2:], atol=1e-14)

    def test_residual_small_on_admissible_system(self, rng):
        sys = demo_system()
        for _ in range(100):
            assert to_conformal(sys, rng.standard_normal(4))[2] <= 1e-8

    def test_gate_rejects_inadmissible(self, rng):
        sys = demo_system()
        bad = PlanarSystem(H=sys.H, grad_H=sys.grad_H, A=sys.A, B=sys.B, N=ScalarField.constant(1.0))
        with pytest.raises(DomainError, match=r"\(r1, r2\)"):
            to_conformal(bad, rng.standard_normal(4))

    def test_residual_scales_with_measure_defect(self, rng):
        # a slightly wrong density produces a proportionally small defect
        sys = demo_system()
        eps = 1e-6
        near = PlanarSystem(H=sys.H, grad_H=sys.grad_H, A=sys.A, B=sys.B,
                            N=ScalarField(lambda q: np.exp((1 + eps) * q[..., 0]),
                                          grad=lambda q: vector(
                                              (1 + eps) * np.exp((1 + eps) * q[..., 0]), 0.0)))
        for _ in range(20):
            z = rng.standard_normal(4)
            r = np.max(np.abs(measure_residual(near, z[:2])))
            bound = 10.0 * r * max(1.0, np.max(np.abs(z)) ** 2) * near.N(z[:2])
            assert _conformal_residual(near, z) <= bound

    def test_bracket_satisfies_jacobi(self, rng):
        P4 = conformal_bracket(demo_system())
        for _ in range(30):
            assert jacobiator(P4, rng.standard_normal(4)) <= 1e-9


def test_energy_drift_over_long_horizon():
    sys = demo_system()
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, horizon=100.0, samples=501)
    traj = integrate(lambda z: planar_rhs(sys, z), np.array([0.2, -0.3, 0.4, 0.1]), cfg)
    traj = replace(traj, integrals={"E": energy_fn(sys)(traj.states)})
    assert drift_report(traj)["E"] <= 1e-8
