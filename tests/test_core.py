"""Cross-product matrices, finite differences, fields, jacobiator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonholo import (
    DomainError,
    ScalarField,
    VectorField3,
    e3_bivector,
    fd_curl,
    fd_gradient,
    hat,
    jacobiator,
    skew_defect,
    vector,
)

from conftest import rand_state

finite3 = st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3)


def test_hat_of_e3():
    np.testing.assert_array_equal(hat([0, 0, 1]),
                                  [[0, -1, 0], [1, 0, 0], [0, 0, 0]])


def test_hat_annihilates_its_own_vector(rng):
    for _ in range(20):
        v = rng.standard_normal(3)
        np.testing.assert_allclose(hat(v) @ v, 0.0, atol=1e-15)


def test_hat_right_handed_basis():
    e1, e2, e3 = np.eye(3)
    np.testing.assert_array_equal(hat(e1) @ e2, e3)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5), u=finite3, v=finite3)
@settings(max_examples=50, deadline=None)
def test_hat_is_linear(a, b, u, v):
    u, v = np.array(u), np.array(v)
    np.testing.assert_allclose(hat(a * u + b * v), a * hat(u) + b * hat(v),
                               atol=1e-12)


def test_hat_matches_cross_product(rng):
    v, w = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(hat(v) @ w, np.cross(v, w), atol=1e-15)


class TestFdGradient:
    def test_quadratic_form(self):
        grad = fd_gradient(lambda g: np.vecdot(g, g), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(grad, [2.0, 0.0, 0.0], atol=1e-10)

    def test_linear_field_is_exact(self):
        c = np.array([0.3, -1.2, 0.7])
        grad = fd_gradient(lambda g: np.vecdot(g, c), np.array([0.4, 0.1, -0.9]))
        np.testing.assert_allclose(grad, c, atol=1e-13)

    def test_diagonal_quadratic(self):
        A = np.array([0.4, 0.5, 0.6])
        point = np.array([0.0, 0.0, 1.0])
        grad = fd_gradient(lambda g: np.vecdot(g, A * g), point)
        # analytic gradient is 2 A gamma
        np.testing.assert_allclose(grad, 2 * A * point, atol=1e-8)

    def test_cubic_polynomial(self, rng):
        for _ in range(5):
            x = rng.standard_normal(3)
            grad = fd_gradient(lambda g: g[..., 0] ** 3 - 2 * g[..., 1] ** 2 * g[..., 2], x)
            exact = np.array([3 * x[0] ** 2, -4 * x[1] * x[2], -2 * x[1] ** 2])
            np.testing.assert_allclose(grad, exact, rtol=1e-8, atol=1e-10)

    def test_nonfinite_field_raises(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                fd_gradient(lambda g: 1.0 / (g[..., 0] - g[..., 0]), np.ones(3))

    def test_step_must_be_positive(self):
        with pytest.raises(DomainError):
            fd_gradient(lambda g: np.vecdot(g, g), np.ones(3), step=0.0)


def test_stacked_fd_curl_matches_per_point(rng):
    # the stencil acts on the last axis, and each point's step is scaled by
    # its own norm, so every row is that point's own finite-difference curl
    fn = lambda g: np.stack([g[..., 1] * g[..., 2] ** 2, g[..., 0] ** 3,
                             g[..., 0] * g[..., 1] - g[..., 2]], axis=-1)
    pts = 3.0 * rng.standard_normal((20, 3))
    stacked = fd_curl(fn, pts, richardson=True)
    for p, row in zip(pts, stacked):
        np.testing.assert_array_equal(row, fd_curl(fn, p, richardson=True))
    np.testing.assert_array_equal(fd_curl(fn, pts.reshape(4, 5, 3), richardson=True),
                                  stacked.reshape(4, 5, 3))


class TestJacobiator:
    def test_constant_bivector(self, rng):
        B = rng.standard_normal((6, 6))
        B = B - B.T
        assert jacobiator(lambda x: B, rand_state(rng)) <= 1e-12

    def test_e3_bracket(self, rng):
        # bracket entries are linear in x, so the only error is round-off
        for _ in range(10):
            assert jacobiator(e3_bivector, rand_state(rng)) <= 1e-9

    def test_canonical_2dof(self, rng):
        P = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        assert jacobiator(lambda z: P, rng.standard_normal(4)) <= 1e-12


class TestFields:
    def test_scalar_product_gradient(self, rng):
        a = ScalarField(lambda g: g[..., 0] ** 2, grad=lambda g: vector(2 * g[..., 0], 0, 0))
        b = ScalarField(lambda g: np.sin(g[..., 1]), grad=lambda g: vector(0, np.cos(g[..., 1]), 0))
        prod = a * b
        x = rng.standard_normal(3)
        np.testing.assert_allclose(prod.gradient(x),
                                   fd_gradient(prod.fn, x), atol=1e-9)

    def test_reciprocal_gradient(self, rng):
        a = ScalarField(lambda g: 2.0 + np.vecdot(g, g), grad=lambda g: 2.0 * g)
        inv = a.reciprocal()
        x = rng.standard_normal(3)
        np.testing.assert_allclose(inv.gradient(x), fd_gradient(inv.fn, x), atol=1e-10)
        assert inv(x) == pytest.approx(1.0 / a(x))

    def test_gradient_fd_fallback_matches_analytic(self, rng):
        fn = lambda g: g[..., 0] * g[..., 1] - g[..., 2] ** 2
        with_grad = ScalarField(fn, grad=lambda g: vector(g[..., 1], g[..., 0], -2 * g[..., 2]))
        without = ScalarField(fn)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(without.gradient(x), with_grad.gradient(x), atol=1e-6)

    def test_vector_field_scaled_curl(self, rng):
        h = VectorField3(lambda g: vector(g[..., 1], -g[..., 2] ** 2, g[..., 0] * g[..., 1]),
                         curl=lambda g: vector(g[..., 0] + 2 * g[..., 2], -g[..., 1], -1.0))
        s = ScalarField(lambda g: 1.0 + g[..., 2] ** 2, grad=lambda g: vector(0, 0, 2 * g[..., 2]))
        sh = h.scaled(s)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(sh.curl_at(x), fd_curl(sh.fn, x, richardson=True),
                                   atol=1e-9)

    def test_constant_field(self):
        c = ScalarField.constant(3.5)
        assert c(np.ones(3)) == 3.5
        np.testing.assert_array_equal(c.gradient(np.ones(3)), np.zeros(3))


def test_every_assembled_bivector_is_exactly_skew(rng):
    from nonholo import BallParams, assemble_P, ball_system
    sys = ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0))
    for _ in range(20):
        assert skew_defect(assemble_P(sys, rand_state(rng))) == 0.0
    assert skew_defect(e3_bivector(rand_state(rng))) == 0.0
