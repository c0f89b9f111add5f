"""The oracle agrees with the library at random states."""

import numpy as np
import pytest

import nonholo
from nonholo import planar
from nonholo.models import DEMO_BALL, DEMO_GYROSTAT, DEMO_VESELOVA

import oracle

RNG_SEED = 20240501


def states(n=40, seed=RNG_SEED):
    rng = np.random.default_rng(seed)
    gam = rng.standard_normal((n, 3))
    return np.concatenate([rng.standard_normal((n, 3)), gam / np.linalg.norm(gam, axis=1, keepdims=True)], 1)


def pairs():
    k = np.asarray(DEMO_GYROSTAT)
    return [
        (oracle.Ball(), nonholo.ball_system(nonholo.BallParams(**DEMO_BALL))),
        (oracle.Ball(k=k), nonholo.ball_system(nonholo.BallParams(**DEMO_BALL, k=k))),
        (oracle.Veselova(), nonholo.veselova_system(nonholo.VeselovaParams(**DEMO_VESELOVA))),
        (oracle.Veselova(k=k), nonholo.veselova_system(nonholo.VeselovaParams(**DEMO_VESELOVA, k=k))),
    ]


@pytest.mark.parametrize("model,system", pairs(), ids=lambda v: getattr(v, "name", ""))
def test_model_matches_library(model, system):
    X = states()
    assert model.name == system.name
    ints = oracle.integrals(model, X)
    for i, x in enumerate(X):
        lib = nonholo.integrals(system, x)
        assert ints["H"][i] == pytest.approx(lib.F3, abs=1e-13)
        assert ints["F2"][i] == pytest.approx(lib.F2, abs=1e-13)
        for name, value in lib.extras.items():
            assert ints[name][i] == pytest.approx(value, abs=1e-13)
        assert set(ints) == {"H", "F1", "F2", *lib.extras}
        np.testing.assert_allclose(oracle.rhs(model, x[None])[0], nonholo.rhs(system, x), atol=1e-13)
        np.testing.assert_allclose(oracle.bracket(model, x[None])[0], nonholo.assemble_P(system, x), atol=1e-13)
    M, gam = oracle.split(X)
    np.testing.assert_allclose(oracle.reduced_S(model, M, gam), model.S(M, gam), atol=1e-13)
    assert np.max(oracle.conformal_residual(model, X)) < 1e-13


@pytest.mark.parametrize("model", [oracle.Ball(), oracle.Veselova()], ids=lambda m: m.name)
def test_gradients_match_finite_differences(model):
    X = states(10)
    M, gam = oracle.split(X)
    hm, hg = model.dH(M, gam)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        np.testing.assert_allclose((model.H(M + e, gam) - model.H(M - e, gam)) / (2 * h), hm[:, j], atol=1e-8)
        np.testing.assert_allclose((model.H(M, gam + e) - model.H(M, gam - e)) / (2 * h), hg[:, j], atol=1e-8)


def test_jacobiators_match_library():
    X = states(8)
    ball = nonholo.ball_system(nonholo.BallParams(**DEMO_BALL))
    lib = [nonholo.jacobiator(lambda x: nonholo.assemble_P(ball, x), x) for x in X]
    assert np.max(oracle.jacobiator(lambda Y: oracle.bracket(oracle.Ball(), Y), X)) < 1e-8
    assert max(lib) < 1e-8
    P = nonholo.bivector_field(g=nonholo.ScalarField.constant(1.0),
                               K=nonholo.ball_K(nonholo.BallParams(**DEMO_BALL)))
    lib = np.array([nonholo.jacobiator(P, x) for x in X])
    np.testing.assert_allclose(oracle.jacobiator(oracle.negative_control_bracket, X), lib, rtol=1e-6)


def test_measure_and_duality_vanish():
    X = states()
    for model in (oracle.Ball(), oracle.Veselova()):
        assert np.max(oracle.measure_residual(model, X)) < 1e-14
    h, g = oracle.duality_defect(X)
    assert max(h.max(), g.max()) < 1e-13


def test_gauge_action_matches_library():
    X = states(20)
    t1, t2 = oracle.gauge_suite_transforms()
    lib1 = nonholo.GaugeTransform(
        nonholo.ScalarField(lambda g: 1.2 + 0.3 * g[0] + 0.1 * g[1] ** 2), 1.7,
        nonholo.VectorField3(lambda g: np.array([0.2 * g[1], -0.1 * g[2] ** 2, 0.3 * g[0] * g[1]])))
    ball = nonholo.ball_system(nonholo.BallParams(**DEMO_BALL)).s_spec
    pushed = nonholo.pushforward_params(lib1, nonholo.GFParams(g=ball.g, f=ball.f))
    M, gam = oracle.split(X)
    b = oracle.Ball()
    g1, _, f1 = t1.push(gam, b.g(gam), b.grad_g(gam), b.f(gam))
    np.testing.assert_allclose(g1, [pushed.g(p) for p in gam], atol=1e-13)
    np.testing.assert_allclose(f1, [pushed.f(p) for p in gam], atol=1e-8)
    np.testing.assert_allclose(t1.state(X), [nonholo.apply_gauge_state(lib1, x) for x in X], atol=1e-14)
    comp, action = oracle.gauge_suite_defects(X)
    assert comp.max() < 1e-14 and action.max() < 1e-12


def test_planar_matches_library():
    sysm = planar.demo_system()
    Z = np.random.default_rng(RNG_SEED).standard_normal((30, 4))
    np.testing.assert_allclose(oracle.planar_rhs(Z), [planar.planar_rhs(sysm, z) for z in Z], atol=1e-14)
    np.testing.assert_allclose(oracle.planar_energy(Z), [planar.energy_fn(sysm)(z) for z in Z], atol=1e-14)
    assert oracle.planar_conformal_residual(Z).max() < 1e-12
    np.testing.assert_allclose(oracle.planar_bracket(Z), [planar.conformal_bracket(sysm)(z) for z in Z])


@pytest.mark.parametrize("model,system", pairs()[::2], ids=lambda v: getattr(v, "name", ""))
def test_reduction_target_and_constant(model, system):
    spec = system.s_spec
    F = nonholo.curl_target_F(nonholo.GFParams(g=spec.g, f=spec.f))
    gam = oracle.split(states())[1]
    np.testing.assert_allclose(oracle.curl_target(model, gam), [F(p) for p in gam], atol=1e-13)
    c = -nonholo.sphere_quadrature(F, 16) / (4 * np.pi)
    assert oracle.reduction_constant(model) == pytest.approx(c, abs=1e-11)


def test_reduction_defects_of_the_library_transform():
    spec = nonholo.ball_system(nonholo.BallParams(**DEMO_BALL)).s_spec
    gauge, sol = nonholo.reduce_to_e3(nonholo.GFParams(g=spec.g, f=spec.f), L=16)
    X = states(4)
    resid, dev = oracle.reduction_defects(oracle.Ball(), sol.c, gauge.h, X)
    assert resid.max() < 1e-6 and dev.max() < 1e-6
    lib = max(np.max(np.abs(nonholo.pushforward_bivector(gauge, nonholo.gf_bivector(
        nonholo.GFParams(g=spec.g, f=spec.f)), x) - nonholo.e3_bivector(nonholo.apply_gauge_state(gauge, x))))
        for x in X)
    assert dev.max() == pytest.approx(lib, rel=0.5, abs=1e-9)
    # a wrong constant shows in both defects
    resid, dev = oracle.reduction_defects(oracle.Ball(), sol.c + 1e-3, gauge.h, X)
    assert resid.min() > 5e-4 and dev.max() > 5e-4


def test_direct_integration_keeps_the_integrals():
    model = oracle.Ball()
    X = oracle.integrate_direct(model, np.r_[oracle.DEMO_M, oracle.DEMO_GAMMA], horizon=5.0, samples=51)
    for values in oracle.integrals(model, X).values():
        assert oracle.relative_drift(values) < 1e-10
