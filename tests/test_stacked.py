"""Fields, state maps and the sphere layer on a stack of points give their
one-point results.

A field callable that indexes ``g[0]`` instead of ``g[..., 0]`` reads a row
of a stack, not a component; every row of a (7, 3) or (7, 6) stack is
compared with the same point evaluated alone.  The jacobiator works in
blocks of ``CHUNK`` states, so it is also compared on a stack longer than
two blocks.
"""

import re
from dataclasses import replace

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
    ball_K,
    ball_system,
    assemble_P,
    bivector_field,
    compose,
    conformal_residual,
    e3_bivector,
    gf_bivector,
    integrals,
    inverse,
    jacobiator,
    linear_potential,
    measure_residual,
    pack,
    pushforward_bivector,
    quadratic_potential,
    reduce_to_e3,
    rhs,
    s_value,
    unpack,
    vector,
    veselova_K,
    veselova_system,
)
from nonholo.core import CHUNK, lift
from nonholo.gauge import gauge_state_jacobian
from nonholo.planar import (PlanarLagrangian, conformal_bracket, demo_system, energy_fn, from_lagrangian,
                            planar_rhs, to_conformal)
from nonholo.planar import measure_residual as planar_measure_residual
from nonholo.sphere import DirectS, SphereSystem

from conftest import rand_state, rand_unit

BALL = BallParams(A=(0.4, 0.5, 0.6), D=1.0)
VES = VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=np.array([0.0, 0.0, 0.1]))

_ball = ball_system(BALL).s_spec
_ves = veselova_system(VES).s_spec
_alpha = ScalarField(lambda g: 1.2 + 0.3 * g[..., 0] + 0.1 * g[..., 1] ** 2,
                     grad=lambda g: vector(0.3, 0.2 * g[..., 1], 0.0))
_h = VectorField3(lambda g: vector(0.2 * g[..., 1], -0.1 * g[..., 2] ** 2, 0.3 * g[..., 0] * g[..., 1]),
                  curl=lambda g: vector(0.3 * g[..., 0] + 0.2 * g[..., 2], -0.3 * g[..., 1], -0.2))
_t1 = GaugeTransform(_alpha, 1.7, _h)
_t2 = GaugeTransform(ScalarField(lambda g: 0.9 + 0.2 * g[..., 2], grad=lambda g: np.array([0.0, 0.0, 0.2])),
                     0.8, VectorField3(lambda g: vector(0.1 * g[..., 0], 0.05 * g[..., 1], -0.2 * g[..., 2])))

SCALARS = {
    "ball g": _ball.g,
    "ball f": _ball.f,
    "veselova g": _ves.g,
    "veselova f": _ves.f,
    "veselova phi": _ves.phi,
    "linear potential": linear_potential((0.3, -0.2, 0.5)),
    "quadratic potential": quadratic_potential((1.0, 2.0, 3.0)),
    "constant": ScalarField.constant(2.5),
    "product": _ball.g * _ves.f,
    "scalar multiple": 3.0 * _ves.g,
    "reciprocal": _ves.g.reciprocal(),
    "finite-difference gradient": ScalarField(_ves.phi.fn),
    "compose alpha": compose(_t2, _t1).alpha,
    "inverse alpha": inverse(_t1).alpha,
}

VECTORS = {
    "ball K": ball_K(BALL),
    "veselova K": veselova_K(VES),
    "zero": VectorField3.zero(),
    "scaled": _h.scaled(_ves.g),
    "sum": _h + _h.scaled(2.0),
    "finite-difference curl": VectorField3(_h.fn),
    "compose h": compose(_t2, _t1).h,
    "inverse h": inverse(_t1).h,
}


def _gammas(rng, n=7):
    return np.array([rand_unit(rng) for _ in range(n)])


def _states(rng, n=7):
    return np.array([rand_state(rng) for _ in range(n)])


def _same_rows(stacked, one_point, rows):
    np.testing.assert_allclose(stacked, np.array([one_point(r) for r in rows]), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_scalar_field_stack_matches_points(name, rng):
    field, G = SCALARS[name], _gammas(rng)
    assert isinstance(field(G[0]), float)
    assert field(G).shape == (7,) and field.gradient(G).shape == (7, 3)
    _same_rows(field(G), field, G)
    _same_rows(field.gradient(G), field.gradient, G)


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_vector_field_stack_matches_points(name, rng):
    field, G = VECTORS[name], _gammas(rng)
    assert field(G[0]).shape == (3,)
    assert field(G).shape == (7, 3) and field.curl_at(G).shape == (7, 3)
    _same_rows(field(G), field, G)
    _same_rows(field.curl_at(G), field.curl_at, G)


@pytest.fixture(scope="module")
def spectral_gauge():
    p = GFParams(g=_ball.g, f=_ball.f)
    return reduce_to_e3(p, L=16)[0], p


BIVECTORS = {
    "ball (g, f)": gf_bivector(GFParams(g=_ball.g, f=_ball.f)),
    "veselova (g, f, phi, k)": bivector_field(g=_ves.g, f=_ves.f, phi=_ves.phi, k=VES.k),
    "ball (g, K)": bivector_field(g=ScalarField.constant(1.0), K=ball_K(BALL)),
    "e(3)": e3_bivector,
}


@pytest.mark.parametrize("name", sorted(BIVECTORS))
def test_bivector_stack_matches_points(name, rng):
    P, X = BIVECTORS[name], _states(rng)
    assert P(X).shape == (7, 6, 6)
    _same_rows(P(X), P, X)


@pytest.mark.parametrize("which", ["polynomial", "spectral"])
def test_state_maps_stack_matches_points(which, rng, spectral_gauge):
    t, p = (_t1, GFParams(g=_ball.g, f=_ball.f)) if which == "polynomial" else spectral_gauge
    X = _states(rng)
    P = gf_bivector(p)
    assert apply_gauge_state(t, X).shape == (7, 6)
    assert gauge_state_jacobian(t, X).shape == (7, 6, 6)
    _same_rows(apply_gauge_state(t, X), lambda x: apply_gauge_state(t, x), X)
    _same_rows(gauge_state_jacobian(t, X), lambda x: gauge_state_jacobian(t, x), X)
    _same_rows(pushforward_bivector(t, P, X), lambda x: pushforward_bivector(t, P, x), X)


def test_pack_keeps_stack_shape(rng):
    M, G = rng.standard_normal((2, 4, 3)), _gammas(rng, 8).reshape(2, 4, 3)
    assert pack(M, G).shape == (2, 4, 6)


# ---------------------------------------------------------------------------
# the sphere layer
# ---------------------------------------------------------------------------

_K = np.array([0.05, -0.08, 0.1])
SYSTEMS = {
    "ball": ball_system(BALL),
    "ball+gyrostat+linear U": ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0, k=_K,
                                                    U=linear_potential((0.3, -0.2, 0.5)))),
    "veselova": veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9))),
    "veselova+gyrostat": veselova_system(VES),
    "veselova+gyrostat+quadratic U": veselova_system(VeselovaParams(
        Ahat=(0.6, 0.75, 0.9), k=_K, U=quadratic_potential((1.0, 2.0, 3.0)))),
}


def _direct(sysm):
    """The ball as a system with a direct S-spec: K in closed form and an
    offset, so that both branches of ``s_value`` are stacked."""
    return SphereSystem("direct", sysm.hamiltonian, sysm.dH_dM, sysm.dH_dgamma,
                        DirectS(K=ball_K(BALL), offset=linear_potential((0.1, 0.2, -0.3))), k=sysm.k)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_hamiltonian_and_gradients_stack_matches_points(name, rng):
    sysm, X = SYSTEMS[name], _states(rng)
    M, G = unpack(X)
    assert isinstance(sysm.hamiltonian(M[0], G[0]), float)
    assert sysm.hamiltonian(M, G).shape == (7,)
    assert sysm.dH_dM(M, G).shape == (7, 3) and sysm.dH_dgamma(M, G).shape == (7, 3)
    for fn in (sysm.hamiltonian, sysm.dH_dM, sysm.dH_dgamma):
        _same_rows(fn(M, G), lambda x: fn(*unpack(x)), X)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_sphere_functions_stack_matches_points(name, rng):
    sysm, X = SYSTEMS[name], _states(rng)
    for sys_ in (sysm, _direct(sysm)):
        assert isinstance(s_value(sys_, X[0]), float) and s_value(sys_, X).shape == (7,)
        _same_rows(s_value(sys_, X), lambda x: s_value(sys_, x), X)
        assert rhs(sys_, X).shape == (7, 6)
        _same_rows(rhs(sys_, X), lambda x: rhs(sys_, x), X)
    assert assemble_P(sysm, X).shape == (7, 6, 6)
    _same_rows(assemble_P(sysm, X), lambda x: assemble_P(sysm, x), X)
    assert isinstance(conformal_residual(sysm, X[0]), float)
    assert conformal_residual(sysm, X).shape == (7,)
    _same_rows(conformal_residual(sysm, X), lambda x: conformal_residual(sysm, x), X)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_integrals_stack_matches_points(name, rng):
    sysm, X = SYSTEMS[name], _states(rng)
    stacked, one = integrals(sysm, X), [integrals(sysm, x) for x in X]
    assert isinstance(one[0].F3, float) and stacked.F3.shape == (7,)
    for key in ("F1", "F2", "F3"):
        _same_rows(getattr(stacked, key), lambda x: getattr(integrals(sysm, x), key), X)
    assert set(stacked.extras) == {n for n, _ in sysm.extra_integrals}
    for key, vals in stacked.extras.items():
        assert isinstance(one[0].extras[key], float)
        _same_rows(vals, lambda x: integrals(sysm, x).extras[key], X)


def test_measure_residual_stack_matches_points(rng):
    X = _states(rng)
    for spec, rho in ((ball_system(BALL), None), (veselova_system(VES), None),
                      (DirectS(K=ball_K(BALL)), _ball.g.reciprocal()),
                      (DirectS(K=veselova_K(VES)), _ves.g.reciprocal())):
        assert measure_residual(spec, X, rho=rho).shape == (7, 3)
        _same_rows(measure_residual(spec, X, rho=rho), lambda x: measure_residual(spec, x, rho=rho), X)


@pytest.mark.parametrize("name", ["ball", "veselova+gyrostat", "negative control"])
def test_jacobiator_blocks_match_points(name, rng):
    P = (BIVECTORS["ball (g, K)"] if name == "negative control"
         else lambda x: assemble_P(SYSTEMS[name], x))
    X = _states(rng, 70)
    assert X.shape[0] > 2 * CHUNK and X.shape[0] % CHUNK
    assert isinstance(jacobiator(P, X[0]), float)
    vals = jacobiator(P, X)
    assert vals.shape == (70,)
    _same_rows(vals, lambda x: jacobiator(P, x), X)
    np.testing.assert_array_equal(jacobiator(P, X.reshape(2, 35, 6)), vals.reshape(2, 35))


def test_planar_bracket_stack_matches_points(rng):
    P4 = conformal_bracket(demo_system())
    Z = rng.standard_normal((7, 4))
    assert P4(Z).shape == (7, 4, 4)
    _same_rows(P4(Z), P4, Z)
    _same_rows(jacobiator(P4, Z), lambda z: jacobiator(P4, z), Z)


# ---------------------------------------------------------------------------
# the planar layer
# ---------------------------------------------------------------------------

_G0 = np.array([[2.0, 0.3], [0.3, 1.5]])
# G and b depend on q, so every coefficient of the momentum form is a field
_LAG = PlanarLagrangian(G=lambda q: _G0 * lift(1.0 + 0.1 * np.sin(q[..., 0] + q[..., 1]), 2),
                        V=ScalarField(lambda q: np.cos(q[..., 0] * q[..., 1])),
                        a1=lambda q: 0.3 * q[..., 1], a2=lambda q: -0.1,
                        b=lambda q: 0.2 * q[..., 0] + 0.1 * q[..., 1] ** 2)
_N = ScalarField(lambda q: np.exp(0.3 * q[..., 0] - 0.2 * q[..., 1]),
                 grad=lambda q: lift(np.exp(0.3 * q[..., 0] - 0.2 * q[..., 1])) * np.array([0.3, -0.2]))
PLANAR = {"demo": demo_system(), "lagrangian": from_lagrangian(_LAG, _N),
          "lagrangian, usual Chaplygin": from_lagrangian(_LAG, _N, usual_chaplygin=True)}


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_planar_functions_stack_matches_points(name, rng):
    sysm, Z = PLANAR[name], rng.standard_normal((7, 4))
    # the Lagrangian systems admit no density: read their residuals ungated
    gate = 1e-8 if name == "demo" else np.inf
    E = energy_fn(sysm)
    assert isinstance(E(Z[0]), float) and E(Z).shape == (7,)
    _same_rows(E(Z), E, Z)
    assert planar_rhs(sysm, Z).shape == (7, 4)
    _same_rows(planar_rhs(sysm, Z), lambda z: planar_rhs(sysm, z), Z)
    assert planar_measure_residual(sysm, Z[:, :2]).shape == (7, 2)
    _same_rows(planar_measure_residual(sysm, Z[:, :2]), lambda q: planar_measure_residual(sysm, q), Z[:, :2])
    p, nb, residual = to_conformal(sysm, Z, gate)
    assert p.shape == (7, 2) and nb.shape == (7,) and residual.shape == (7,)
    assert all(isinstance(v, float) for v in to_conformal(sysm, Z[0], gate)[1:])
    for i, stacked in enumerate((p, nb, residual)):
        _same_rows(stacked, lambda z: to_conformal(sysm, z, gate)[i], Z)


def test_lagrangian_bracket_with_field_coefficients_is_jacobi(rng):
    # {p1, p2} = N(q) b(q) depends on q only, which keeps the Jacobi identity
    Z = rng.standard_normal((40, 4))
    P4 = conformal_bracket(from_lagrangian(_LAG, _N))
    assert P4(Z).shape == (40, 4, 4)
    assert np.max(jacobiator(P4, Z)) <= 1e-9


def test_planar_measure_gate_names_the_worst_state():
    # r1 = (1/N) dN/dq1 - A2 = 0.2 q1 grows with |q1|: the third probe is worst
    sysm = replace(demo_system(), N=ScalarField(lambda q: np.exp(q[..., 0] + 0.1 * q[..., 0] ** 2),
                                                grad=lambda q: vector(np.exp(q[..., 0] + 0.1 * q[..., 0] ** 2)
                                                                      * (1.0 + 0.2 * q[..., 0]), 0.0)))
    Z = np.array([[0.1, 0.0, 0.0, 0.0], [-0.5, 0.3, 0.0, 0.0], [2.0, -1.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match=re.escape(f"at q = {Z[2, :2]}")):
        to_conformal(sysm, Z)


def test_demo_flow_is_the_reference_rhs_bitwise(rng):
    sysm = demo_system()
    Z = 3.0 * rng.standard_normal((500, 4))
    flows = np.array([sysm.flow(z) for z in Z])
    assert np.array_equal(flows, np.array([planar_rhs(sysm, z) for z in Z]))
    assert np.array_equal(flows, planar_rhs(sysm, Z))
    # any other B integrates through the reference
    other = demo_system(B=lambda q: 0.3 * np.sin(q[..., 0]))
    np.testing.assert_array_equal(other.flow(Z[0]), planar_rhs(other, Z[0]))
