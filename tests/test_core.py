"""Cross-product matrices, finite differences, fields, jacobiator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonholo import (
    BallParams,
    DomainError,
    ScalarField,
    VectorField3,
    assemble_P,
    ball_K,
    bivector_field,
    e3_bivector,
    fd_curl,
    fd_gradient,
    fd_jacobian,
    hat,
    jacobiator,
    k_from_gf,
    skew_defect,
    vector,
)

import nonholo.core as core
from nonholo.core import lift
from nonholo.sphere import random_states

from conftest import SYSTEMS, rand_state

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


def test_stacked_fd_curl_matches_per_point(rng):
    # the stencil acts on the last axis, and each point's step is scaled by
    # its own norm, so every row is that point's own finite-difference curl
    fn = lambda g: np.stack([g[..., 1] * g[..., 2] ** 2, g[..., 0] ** 3,
                             g[..., 0] * g[..., 1] - g[..., 2]], axis=-1)
    pts = 3.0 * rng.standard_normal((20, 3))
    stacked = fd_curl(fn, pts)
    for p, row in zip(pts, stacked):
        np.testing.assert_array_equal(row, fd_curl(fn, p))
    np.testing.assert_array_equal(fd_curl(fn, pts.reshape(4, 5, 3)), stacked.reshape(4, 5, 3))


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)])
def test_differences_hand_fn_one_direction_at_a_time(rng, shape):
    # a field may read a point's components as g[0], which on a stacked
    # stencil would pick a row: fn only ever sees arrays of the point's shape
    x = rng.standard_normal(shape)
    seen = []

    def fn(g):
        assert g.shape == shape
        seen.append(g.shape)
        return np.stack([g[..., 0] * g[..., 1] ** 2, g[..., 2] ** 3], axis=-1)

    # one Richardson level: two central stencils of 6 points each
    J = fd_jacobian(fn, x)
    assert len(seen) == 12 and J.shape == shape[:-1] + (2, 3)
    grad = fd_gradient(lambda g: fn(g)[..., 0], x)
    assert len(seen) == 12 + 12
    exact = np.stack([x[..., 1] ** 2, 2 * x[..., 0] * x[..., 1], 0 * x[..., 2]], axis=-1)
    np.testing.assert_allclose(grad, exact, rtol=1e-8, atol=1e-9)


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

    @pytest.mark.parametrize("name", sorted(SYSTEMS) + ["negative control"])
    def test_one_sided_steps_along_M_agree_with_central(self, rng, name):
        # every sphere bracket is affine in M; the negative control breaks
        # Jacobi by O(1e-2) and must read the same either way
        P = (bivector_field(g=ScalarField.constant(1.0), K=ball_K(BallParams(A=(0.4, 0.5, 0.6), D=1.0)))
             if name == "negative control" else lambda x: assemble_P(SYSTEMS[name], x))
        X = random_states(rng, 50) * np.r_[3.0, 3.0, 3.0, 1.0, 1.0, 1.0]
        central, affine = jacobiator(P, X), jacobiator(P, X, affine=3)
        np.testing.assert_allclose(affine, central, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_M_derivative_is_the_closed_form(self, rng, name):
        # d P / d M_l = g (hat(e_l) - K_l hat(gamma)) in the upper-left block
        # and 0 elsewhere, read by one forward step to round-off
        sysm = SYSTEMS[name]
        X = random_states(rng, 50) * np.r_[3.0, 3.0, 3.0, 1.0, 1.0, 1.0]
        _, dP = core._bracket_derivatives(lambda x: assemble_P(sysm, x), X, 3)
        gamma = X[:, 3:]
        g, K = sysm.s_spec.g(gamma), k_from_gf(sysm.s_spec.g, sysm.s_spec.f, gamma)
        exact = np.zeros((3, 50, 6, 6))
        for l in range(3):
            exact[l, :, :3, :3] = lift(g, 2) * (hat(np.eye(3)[l]) - lift(K[:, l], 2) * hat(gamma))
        np.testing.assert_allclose(dP[:3], exact, rtol=0, atol=2e-15)

    def test_affine_is_a_contract_of_the_caller(self, rng):
        # hat(grad C) is Poisson for every C; for C = x1^2 x3 + x2^2 x1 it is
        # quadratic, and a forward step along x reads an O(1) violation
        def P(x):
            return hat(vector(2 * x[..., 0] * x[..., 2] + x[..., 1] ** 2, 2 * x[..., 0] * x[..., 1],
                              x[..., 0] ** 2))

        X = rng.standard_normal((20, 3))
        assert np.max(jacobiator(P, X)) <= 1e-9
        assert np.max(jacobiator(P, X, affine=3)) >= 0.1


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
                         jacobian=_h_jacobian)
        s = ScalarField(lambda g: 1.0 + g[..., 2] ** 2, grad=lambda g: vector(0, 0, 2 * g[..., 2]))
        sh = h.scaled(s)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(sh.curl_at(x), fd_curl(sh.fn, x), atol=1e-9)

    @pytest.mark.parametrize("x", [np.array([1.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])])
    def test_nonfinite_vector_leaf_raises(self, x):
        # the stencil of (1, 0, 0) steps onto the pole of the first component
        leaf = VectorField3(lambda g: vector(1.0 / (g[..., 0] - 1.0), g[..., 1], 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            for derivative in (leaf.jacobian_at, leaf.curl_at):
                with pytest.raises(DomainError):
                    derivative(x)

    def test_constant_field(self):
        c = ScalarField.constant(3.5)
        assert c(np.ones(3)) == 3.5
        np.testing.assert_array_equal(c.gradient(np.ones(3)), np.zeros(3))


def _recording(monkeypatch, name):
    """Replace core.<name> by a wrapper that records the field it is handed."""
    received, fd = [], getattr(core, name)
    monkeypatch.setattr(core, name, lambda fn, *a, **k: received.append(fn) or fd(fn, *a, **k))
    return received


def _h_jacobian(g):
    J = np.zeros(g.shape + (3,))
    J[..., 0, 1], J[..., 1, 2], J[..., 2, 0], J[..., 2, 1] = 1.0, -2 * g[..., 2], g[..., 1], g[..., 0]
    return J


def _k_jacobian(g):
    J = np.zeros(g.shape + (3,))
    J[..., 0, 2], J[..., 1, 0], J[..., 2, 1], J[..., 2, 2] = 2 * g[..., 2], 1.0, -g[..., 2], -g[..., 1]
    return J


class TestDerivativeRule:
    """A field built by the algebra always carries its derivative, by the
    product and quotient rules over its factors'; the finite-difference
    fallbacks only ever see a leaf made without one."""

    def setup_method(self):
        # new leaves per test: a leaf keeps its latest derivative, and the
        # cases draw the same points
        self.a = ScalarField(lambda g: 1.0 + g[..., 0] ** 2, grad=lambda g: vector(2 * g[..., 0], 0, 0))
        self.b = ScalarField(lambda g: np.sin(g[..., 1]) + 2.0 * g[..., 2])
        self.h = VectorField3(lambda g: vector(g[..., 1], -g[..., 2] ** 2, g[..., 0] * g[..., 1]))
        self.k = VectorField3(lambda g: vector(g[..., 2] ** 2, g[..., 0], -g[..., 1] * g[..., 2]),
                              jacobian=_k_jacobian)

    @pytest.mark.parametrize("build", [lambda a, b: a * b, lambda a, b: b * a, lambda a, b: 2.5 * b,
                                       lambda a, b: b.reciprocal()],
                             ids=["product", "product-reversed", "number", "reciprocal"])
    def test_gradient_differences_only_the_leaf(self, monkeypatch, rng, build):
        field = build(self.a, self.b)
        received = _recording(monkeypatch, "fd_gradient")
        x = rng.standard_normal((5, 3))
        grad = field.gradient(x)
        assert received == [self.b]
        np.testing.assert_allclose(grad, fd_jacobian(field, x, step=1e-4), atol=1e-9)

    @pytest.mark.parametrize("scale", ["a", "b"])
    def test_curl_of_scaled_differences_only_the_leaf(self, monkeypatch, rng, scale):
        s = getattr(self, scale)
        received = _recording(monkeypatch, "fd_jacobian")
        gradients = _recording(monkeypatch, "fd_gradient")
        x = rng.standard_normal((5, 3))
        curl = self.h.scaled(s).curl_at(x)
        assert received == [self.h] and gradients == ([] if scale == "a" else [self.b])
        np.testing.assert_allclose(curl, fd_curl(self.h.scaled(s), x, step=1e-4), atol=1e-9)

    @pytest.mark.parametrize("build", [lambda h, k, s: h.scaled(s), lambda h, k, s: k.scaled(s),
                                       lambda h, k, s: h.scaled(0.3), lambda h, k, s: h + k,
                                       lambda h, k, s: k.scaled(s) + h.scaled(-1.5)],
                             ids=["scaled-leaf", "scaled-analytic", "scaled-number", "sum", "compose-like"])
    def test_jacobian_of_sums_and_scalings_is_carried(self, monkeypatch, rng, build):
        field = build(self.h, self.k, self.a * self.b)
        assert field.jacobian is not None
        received = _recording(monkeypatch, "fd_jacobian")
        x = rng.standard_normal((5, 3))
        J = field.jacobian_at(x)
        # only the leaf h, which has no Jacobian, and the scale's leaf b
        assert all(fn is self.h or fn is self.b for fn in received)
        np.testing.assert_allclose(J, fd_jacobian(field, x, step=1e-4), atol=1e-9)
        np.testing.assert_allclose(field.jacobian_at(x[0]), J[0], atol=1e-15)


class TestLeafDerivative:
    """A leaf made without its derivative differences once per point set."""

    @pytest.mark.parametrize("make, derivative, name", [
        (lambda: ScalarField(lambda g: np.sin(g[..., 1]) + 2.0 * g[..., 2]), "gradient", "fd_gradient"),
        (lambda: VectorField3(lambda g: vector(g[..., 1], -g[..., 2] ** 2, g[..., 0] * g[..., 1])),
         "jacobian_at", "fd_jacobian"),
    ], ids=["scalar", "vector"])
    def test_differences_again_only_at_other_points(self, monkeypatch, rng, make, derivative, name):
        leaf = make()
        received = _recording(monkeypatch, name)
        x = rng.standard_normal((5, 3))
        first = getattr(leaf, derivative)(x)
        np.testing.assert_array_equal(getattr(leaf, derivative)(x.copy()), first)
        assert len(received) == 1
        # new points
        y = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(getattr(leaf, derivative)(y), fd_jacobian(leaf, y))
        assert len(received) == 2
        # the caller's array, changed in place after the call
        y[2] += 0.5
        np.testing.assert_array_equal(getattr(leaf, derivative)(y), fd_jacobian(leaf, y))
        assert len(received) == 3
        # one point of the first set
        np.testing.assert_array_equal(getattr(leaf, derivative)(x[0]), fd_jacobian(leaf, x[0]))
        assert len(received) == 4

    def test_kept_derivative_is_read_only(self, rng):
        leaf = ScalarField(lambda g: g[..., 0] * g[..., 1])
        grad = leaf.gradient(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError):
            grad *= 2.0


def test_every_assembled_bivector_is_exactly_skew(rng):
    from nonholo import ball_system
    sys = ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0))
    for _ in range(20):
        assert skew_defect(assemble_P(sys, rand_state(rng))) == 0.0
    assert skew_defect(e3_bivector(rand_state(rng))) == 0.0
