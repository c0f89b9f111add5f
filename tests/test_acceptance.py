"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each test prints one summary line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the corresponding bound.
"""

import numpy as np
import pytest

from nonholo import (
    BallParams,
    DirectS,
    DomainError,
    GFParams,
    GaugeTransform,
    IntegratorConfig,
    ScalarField,
    SphereSpectralField,
    VectorField3,
    VeselovaParams,
    apply_gauge_state,
    assemble_P,
    ball_K,
    ball_system,
    bivector_field,
    compose,
    conformal_residual,
    curl_target_F,
    drift_report,
    duality_map,
    e3_bivector,
    gf_bivector,
    integrate,
    integrate_reparametrized,
    integrate_sphere,
    jacobiator,
    map_to_physical_time,
    measure_residual,
    pack,
    pushforward_bivector,
    pushforward_params,
    reduce_to_e3,
    solve_curl_equation,
    sphere_quadrature,
    unpack,
    veselova_K,
    veselova_system,
    zero_level_jacobian,
    zero_level_reduce,
    vector,
)
from nonholo.planar import demo_system, energy_fn, planar_rhs, to_conformal
from nonholo.planar import PlanarSystem

from conftest import rand_state, rand_unit

BALL = BallParams(A=(0.4, 0.5, 0.6), D=1.0)
VES = VeselovaParams(Ahat=(0.6, 0.75, 0.9))
VES_GYRO = VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=np.array([0.0, 0.0, 0.1]))
BALL_GYRO = BallParams(A=(0.4, 0.5, 0.6), D=1.0, k=np.array([0.0, 0.0, 0.1]))
X0 = pack([0.3, -0.2, 0.5], np.array([1.0, -2.0, 4.0]) / np.sqrt(21.0))


def criterion(number: int, label: str, worst: float, tol: float) -> None:
    ok = worst <= tol
    print(f"[criterion {number:2d}] {label}: max {worst:.3e} vs tol {tol:.0e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number}: {worst:.3e} > {tol:.0e}"


@pytest.fixture(scope="module")
def ball_reduction():
    spec = ball_system(BALL).s_spec
    params = GFParams(g=spec.g, f=spec.f)
    gauge, sol = reduce_to_e3(params, L=32)
    return params, gauge, sol


def test_criterion_01_conservation_suite():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, horizon=100.0, samples=1001)
    worst = 0.0
    for sys in (ball_system(BALL), veselova_system(VES_GYRO)):
        rep = drift_report(integrate_sphere(sys, X0, cfg))
        expected = {"H", "F1", "F2", "Msq" if sys.name == "ball" else "MkSq"}
        assert set(rep) == expected
        worst = max(worst, max(rep.values()))
    criterion(1, "integral drifts over horizon 100", worst, 1e-8)


def test_criterion_02_jacobi_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for sys in (ball_system(BALL), veselova_system(VES)):
        P = lambda x: assemble_P(sys, x)
        for _ in range(1000):
            worst = max(worst, jacobiator(P, rand_state(rng)))
    criterion(2, "bracket jacobiator for both models", worst, 1e-6)

    control = bivector_field(g=ScalarField.constant(1.0), K=ball_K(BALL))
    vals = [jacobiator(control, rand_state(rng)) for _ in range(1000)]
    frac = float(np.mean([v > 1e-3 for v in vals]))
    ok = frac >= 0.9
    print(f"[criterion  2] negative control violates at {100 * frac:.1f}% of states "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_03_invariant_measure():
    rng = np.random.default_rng(3)
    worst = 0.0
    for params, K in ((BALL, ball_K(BALL)), (VES, veselova_K(VES))):
        sys = ball_system(params) if isinstance(params, BallParams) else veselova_system(params)
        rho = sys.s_spec.g.reciprocal()
        spec = DirectS(K=K)
        for _ in range(1000):
            r = measure_residual(spec, rand_state(rng), rho=rho)
            worst = max(worst, float(np.max(np.abs(r))))
    criterion(3, "invariant-measure residual", worst, 1e-10)


def test_criterion_04_conformal_hamiltonicity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for sys in (ball_system(BALL), ball_system(BALL_GYRO),
                veselova_system(VES), veselova_system(VES_GYRO)):
        for _ in range(1000):
            worst = max(worst, conformal_residual(sys, rand_state(rng)))
    criterion(4, "flow equals (1/g) P grad H for all four models", worst, 1e-10)


def test_criterion_05_gauge_group():
    rng = np.random.default_rng(5)
    a1 = ScalarField(lambda g: 1.2 + 0.3 * g[..., 0] + 0.1 * g[..., 1] ** 2,
                     grad=lambda g: vector(0.3, 0.2 * g[..., 1], 0.0))
    h1 = VectorField3(lambda g: vector(0.2 * g[..., 1], -0.1 * g[..., 2] ** 2, 0.3 * g[..., 0] * g[..., 1]))
    a2 = ScalarField(lambda g: 0.9 + 0.2 * g[..., 2], grad=lambda g: np.array([0.0, 0.0, 0.2]))
    h2 = VectorField3(lambda g: vector(0.1 * g[..., 0], 0.05 * g[..., 1], -0.2 * g[..., 2]))
    t1, t2 = GaugeTransform(a1, 1.7, h1), GaugeTransform(a2, 0.8, h2)
    t21 = compose(t2, t1)

    comp = 0.0
    for _ in range(200):
        x = rand_state(rng)
        two = apply_gauge_state(t2, apply_gauge_state(t1, x))
        comp = max(comp, float(np.max(np.abs(two - apply_gauge_state(t21, x)))))
    criterion(5, "composition law at state level", comp, 1e-12)

    # finite-difference tier of the parameter action
    spec = ball_system(BALL).s_spec
    p = GFParams(g=ScalarField(spec.g.fn), f=ScalarField(spec.f.fn))
    fd1 = GaugeTransform(ScalarField(a1.fn), t1.c, VectorField3(h1.fn))
    fd2 = GaugeTransform(ScalarField(a2.fn), t2.c, VectorField3(h2.fn))
    two_step = pushforward_params(fd2, pushforward_params(fd1, p))
    one_step = pushforward_params(compose(fd2, fd1), p)
    act = 0.0
    for _ in range(200):
        g = rand_unit(rng)
        act = max(act, abs(two_step.g(g) - one_step.g(g)),
                  abs(two_step.f(g) - one_step.f(g)))
    criterion(5, "parameter action property (FD derivatives)", act, 1e-8)


def test_criterion_06_reduction_pipeline(ball_reduction):
    params, gauge, sol = ball_reduction
    criterion(6, "curl-equation residual at L=32", sol.residual, 1e-6)

    # analytic cross-check of the curl target for the ball
    rng = np.random.default_rng(6)
    A = np.asarray(BALL.A)
    F = curl_target_F(params)
    f_err = 0.0
    for _ in range(200):
        g = rand_unit(rng)
        u = 1.0 - g @ (A * g)
        f_err = max(f_err, abs(F(g) - (-(u ** -1.5))))
    criterion(6, "curl target matches the closed form", f_err, 1e-10)

    pushed = pushforward_params(gauge, params)
    from nonholo import make_grid
    pts = make_grid(32).points()[::4, ::4].reshape(-1, 3)
    g_dev = max(abs(pushed.g(pt) - 1.0) for pt in pts)
    f_dev = max(abs(pushed.f(pt)) for pt in pts)
    criterion(6, "pushed g deviates from 1", g_dev, 1e-8)
    criterion(6, "pushed f deviates from 0", f_dev, 1e-5)

    P = gf_bivector(params)
    dev = 0.0
    for _ in range(200):
        x = rand_state(rng)
        left = pushforward_bivector(gauge, P, x)
        right = e3_bivector(apply_gauge_state(gauge, x))
        dev = max(dev, float(np.max(np.abs(left - right))))
    criterion(6, "transported bracket matches e(3)", dev, 1e-6)


def test_criterion_07_duality():
    rng = np.random.default_rng(7)
    bp = duality_map(VES, D=1.0)
    H1 = ball_system(bp).hamiltonian
    H2 = veselova_system(VES).hamiltonian
    g1 = ball_system(bp).s_spec.g
    g2 = veselova_system(VES).s_spec.g
    h_dev = 0.0
    g_dev = 0.0
    for _ in range(1000):
        x = rand_state(rng)
        M, g = unpack(x)
        h_dev = max(h_dev, abs(H1(M, g) - 0.5 * (M @ M) + H2(M, g)))
        g_dev = max(g_dev, abs(g1(g) - g2(g)))
    criterion(7, "dual Hamiltonian identity", h_dev, 1e-12)
    criterion(7, "dual measure-factor relation", g_dev, 1e-12)


def test_criterion_08_zero_level_reduction():
    rng = np.random.default_rng(8)
    worst = 0.0
    for sys in (ball_system(BALL), veselova_system(VES)):
        spec = sys.s_spec
        P = bivector_field(g=spec.g, f=spec.f)
        for _ in range(200):
            g = rand_unit(rng)
            M = rng.standard_normal(3)
            M -= (M @ g) * g
            x = pack(M, g)
            J = zero_level_jacobian(spec.g, x)
            left = J @ P(x) @ J.T
            right = e3_bivector(zero_level_reduce(spec.g, x))
            worst = max(worst, float(np.max(np.abs(left - right))))
    criterion(8, "zero-level rescaling hits e(3)", worst, 1e-12)


def test_criterion_09_time_reparametrization():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, horizon=10.0, samples=401)
    worst = 0.0
    for sys in (ball_system(BALL), veselova_system(VES)):
        direct = integrate_sphere(sys, X0, cfg)
        tau_traj, t_phys = integrate_reparametrized(sys, X0, cfg)
        mapped = map_to_physical_time(tau_traj, t_phys, direct.t)
        worst = max(worst, float(np.max(np.abs(mapped - direct.states))))
    criterion(9, "rescaled run matches direct run on [0, 10]", worst, 1e-6)


def test_criterion_10_planar_module():
    sys = demo_system()
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, horizon=100.0, samples=501)
    traj = integrate(lambda z: planar_rhs(sys, z), np.array([0.2, -0.3, 0.4, 0.1]),
                     cfg, integral_fns={"E": energy_fn(sys)})
    criterion(10, "planar energy drift over horizon 100", drift_report(traj)["E"], 1e-8)

    rng = np.random.default_rng(10)
    residual = max(to_conformal(sys, rng.standard_normal(4))[2] for _ in range(100))
    criterion(10, "planar conformal-representation residual", residual, 1e-8)

    inadmissible = PlanarSystem(H=sys.H, dH_dq=sys.dH_dq, dH_dP=sys.dH_dP,
                                A1=sys.A1, A2=sys.A2, B=sys.B,
                                N=ScalarField.constant(1.0))
    with pytest.raises(DomainError):
        to_conformal(inadmissible, rng.standard_normal(4))
    print("[criterion 10] measure gate rejects the inadmissible system -> PASS")


def test_criterion_11_quadrature_and_spectral_oracles():
    q1 = abs(sphere_quadrature(lambda g: 1.0) - 4 * np.pi)
    q2 = abs(sphere_quadrature(lambda g: g[..., 2] ** 2) - 4 * np.pi / 3)
    criterion(11, "surface quadrature moments", max(q1, q2), 1e-12)

    rng = np.random.default_rng(11)
    L = 16
    c_cos = np.zeros((L + 1, L + 1))
    c_sin = np.zeros((L + 1, L + 1))
    for l in range(L + 1):
        c_cos[l, : l + 1] = rng.standard_normal(l + 1)
        c_sin[l, 1: l + 1] = rng.standard_normal(l)
    f = SphereSpectralField(L, c_cos, c_sin)
    g = SphereSpectralField.analyze(ScalarField(f.value), L)
    rt = max(float(np.max(np.abs(g.c_cos - c_cos))), float(np.max(np.abs(g.c_sin - c_sin))))
    criterion(11, "harmonic analysis/synthesis round trip", rt, 1e-10)

    sol = solve_curl_equation(ScalarField(lambda g: g[..., 2]), L=8)
    criterion(11, "sign-calibration case residual", sol.residual, 1e-10)
