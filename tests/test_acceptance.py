"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each test prints one summary line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the corresponding bound.
"""

from dataclasses import replace

import numpy as np

from nonholo import (
    BallParams,
    GFParams,
    IntegratorConfig,
    ScalarField,
    SphereSpectralField,
    VeselovaParams,
    ball_system,
    bivector_field,
    curl_target_F,
    drift_report,
    e3_bivector,
    integrate,
    integrate_reparametrized,
    integrate_sphere,
    map_to_physical_time,
    pack,
    random_states,
    reduction_report,
    solve_curl_equation,
    sphere_quadrature,
    veselova_system,
    zero_level_jacobian,
    zero_level_reduce,
)
from nonholo import checks
from nonholo.planar import demo_system, energy_fn, planar_rhs

from conftest import rand_unit

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
    states = random_states(np.random.default_rng(2), 3000)
    worst = max(checks.jacobi(states[:1000], ball_system(BALL))[0]["max"],
                checks.jacobi(states[1000:2000], veselova_system(VES))[0]["max"])
    criterion(2, "bracket jacobiator for both models", worst, 1e-6)

    control, _ = checks.negative_control(states[2000:])
    frac = control["fraction_violating"]
    ok = frac >= 0.9
    print(f"[criterion  2] negative control violates at {100 * frac:.1f}% of states "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_03_invariant_measure():
    body, _ = checks.measure(random_states(np.random.default_rng(3), 1000))
    assert set(body["max_by_model"]) == {"ball", "veselova"}
    criterion(3, "invariant-measure residual", body["max"], 1e-10)


def test_criterion_04_conformal_hamiltonicity():
    body, _ = checks.conformal(random_states(np.random.default_rng(4), 1000))
    assert len(body["max_by_model"]) == 4
    criterion(4, "flow equals (1/g) P grad H for all four models", body["max"], 1e-10)


def test_criterion_05_gauge_group():
    # the parameter action runs on the finite-difference tier
    body, _ = checks.gauge(random_states(np.random.default_rng(5), 200))
    criterion(5, "composition law at state level", body["composition_state_max"], 1e-12)
    criterion(5, "parameter action property (FD derivatives)", body["action_property_max"], 1e-8)


def test_criterion_06_reduction_pipeline():
    spec = ball_system(BALL).s_spec
    params = GFParams(g=spec.g, f=spec.f)
    rep = reduction_report(params, L=32, n_states=200, seed=6)
    criterion(6, "curl-equation residual at L=32", rep["residual"], 1e-6)

    # analytic cross-check of the curl target for the ball
    G = random_states(np.random.default_rng(6), 200)[:, 3:]
    u = 1.0 - np.vecdot(G, np.asarray(BALL.A) * G)
    f_err = np.max(np.abs(curl_target_F(params)(G) + u ** -1.5))
    criterion(6, "curl target matches the closed form", f_err, 1e-10)

    # the pushed parameters on the stride-4 grid, the bracket at 200 states
    criterion(6, "pushed g deviates from 1", rep["g_tilde_dev"], 1e-8)
    criterion(6, "pushed f deviates from 0", rep["f_tilde_dev"], 1e-5)
    criterion(6, "transported bracket matches e(3)", rep["bracket_dev"], 1e-6)


def test_criterion_07_duality():
    body, _ = checks.duality(random_states(np.random.default_rng(7), 1000), D=1.0)
    criterion(7, "dual Hamiltonian identity", body["hamiltonian_identity_max"], 1e-12)
    criterion(7, "dual measure-factor relation", body["g_relation_max"], 1e-12)


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
    traj = integrate(lambda z: planar_rhs(sys, z), np.array([0.2, -0.3, 0.4, 0.1]), cfg)
    traj = replace(traj, integrals={"E": energy_fn(sys)(traj.states)})
    criterion(10, "planar energy drift over horizon 100", drift_report(traj)["E"], 1e-8)

    body, _ = checks.planar(np.random.default_rng(10).standard_normal((100, 4)))
    criterion(10, "planar conformal-representation residual", body["conformal_residual_max"], 1e-8)
    criterion(10, "planar bracket jacobiator", body["bracket_jacobiator_max"], 1e-9)
    assert body["gate_rejects_inadmissible"] is True
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
