"""Adaptive integration, time rescaling, and drift monitoring."""

import io
import os
import stat
import sys
from dataclasses import replace

import numpy as np
import pytest

from nonholo import (
    BallParams,
    BudgetError,
    IntegratorConfig,
    VeselovaParams,
    DomainError,
    GFParams,
    ScalarField,
    SphereSystem,
    StiffnessError,
    Trajectory,
    assemble_P,
    ball_system,
    drift_report,
    integrate,
    integrate_reparametrized,
    integrate_sphere,
    map_to_physical_time,
    pack,
    rhs,
    trajectory_csv,
    unpack,
    veselova_system,
)
from nonholo import core
from nonholo.cli import DEMO_GAMMA, DEMO_M
from nonholo.core import write_in_place
from nonholo.models import DEMO_BALL, DEMO_GYROSTAT, DEMO_VESELOVA
from nonholo.planar import demo_system, energy_fn, planar_rhs
from nonholo.sphere import random_states

# the module, which the package's integrate function shadows
integrate_mod = sys.modules["nonholo.integrate"]

BALL = BallParams(A=(0.4, 0.5, 0.6), D=1.0)
X0 = pack([0.3, -0.2, 0.5], np.array([1.0, -2.0, 4.0]) / np.sqrt(21.0))
# g grows along this orbit far beyond its initial value, so the tau at which
# a long run's clock reaches the horizon is far from horizon / g(x0)
FAST_BALL = BallParams(A=(0.2, 0.4, 0.6), D=1.66)
FAST_X0 = pack([3.0, 0.0, 0.0], [0.0, 0.0, 1.0])
# 1/D - A_3 = 0.01: g = sqrt(1/D - (gamma, A gamma)) nearly vanishes near +-e3
NEAR_BOUNDARY_BALL = BallParams(A=(0.4, 0.5, 0.99), D=1.0)


def toy_system(g_const: float) -> SphereSystem:
    return SphereSystem(
        name="toy",
        hamiltonian=lambda M, g: 0.5 * np.vecdot(M, M),
        grad_H=lambda M, g: pack(M, np.zeros_like(g)),
        s_spec=GFParams(g=ScalarField.constant(g_const), f=ScalarField.constant(0.0)),
    )


class TestIntegrate:
    def test_exponential_growth_oracle(self):
        cfg = IntegratorConfig(rtol=1e-11, atol=1e-12, horizon=1.0, samples=11)
        traj = integrate(lambda x: x, np.array([1.0]), cfg)
        assert traj.states[-1, 0] == pytest.approx(np.e, rel=1e-9)

    def test_free_top_momentum_constant(self):
        cfg = IntegratorConfig(horizon=100.0, samples=201)
        traj = integrate_sphere(toy_system(1.0), X0, cfg)
        assert np.max(np.abs(traj.states[:, :3] - X0[:3])) <= 1e-12
        gamma_sq = np.sum(traj.states[:, 3:] ** 2, axis=1)
        assert np.max(np.abs(gamma_sq - 1.0)) <= 1e-9

    def test_gamma_norm_drift_without_projection(self):
        cfg = IntegratorConfig(horizon=100.0, samples=201)
        traj = integrate_sphere(ball_system(BALL), X0, cfg)
        gamma_sq = np.sum(traj.states[:, 3:] ** 2, axis=1)
        assert np.max(np.abs(gamma_sq - 1.0)) <= 1e-9

    def test_ball_integrals_drift(self):
        cfg = IntegratorConfig(horizon=100.0, samples=201)
        traj = integrate_sphere(ball_system(BALL), X0, cfg)
        rep = drift_report(traj)
        assert set(rep) == {"H", "F1", "F2", "Msq"}
        assert max(rep.values()) <= 1e-8

    def test_effective_order_at_least_four(self):
        # fixed steps h over [0, 2], each one solve over a horizon of h at
        # tolerances loose enough that its first step spans the horizon:
        # the propagated solution is eighth order, so halving h gains a
        # factor near 256; at h = 0.08 both errors are already at
        # round-off, so the test halves 0.5 (a ratio of 256 here; a
        # fifth-order stepper would read about 32)
        flow = ball_system(BALL).flow

        def endpoint(h):
            x = X0
            for _ in range(round(2.0 / h)):
                traj = integrate(flow, x, IntegratorConfig(rtol=1.0, atol=1.0, horizon=h, samples=2))
                assert (traj.accepted, traj.rejected) == (1, 0)
                x = traj.states[-1]
            return x

        ref = endpoint(0.002)
        e1 = np.max(np.abs(endpoint(0.5) - ref))
        e2 = np.max(np.abs(endpoint(0.25) - ref))
        assert e1 / e2 >= 128.0

    def test_tolerance_controls_error(self):
        # adaptive error tracks the requested tolerance nearly linearly, and
        # stays well inside it: over rtol 1e-4 .. 1e-10 (atol = rtol / 100)
        # the error falls by a geometric mean of at least 50 per two decades
        # (65 here) and is at most 0.2 rtol everywhere (0.04-0.15 here)
        sys = ball_system(BALL)

        def endpoint(rtol, atol):
            cfg = IntegratorConfig(rtol=rtol, atol=atol, horizon=10.0, samples=2)
            return integrate_sphere(sys, X0, cfg).states[-1]

        ref = endpoint(1e-13, 1e-13)
        rtols = np.array([1e-4, 1e-6, 1e-8, 1e-10])
        errors = np.array([np.max(np.abs(endpoint(r, r / 100) - ref)) for r in rtols])
        assert (errors[0] / errors[-1]) ** (1 / (rtols.size - 1)) >= 50.0
        assert np.all(errors <= 0.2 * rtols)

    def test_blowup_raises_stiffness_error(self):
        cfg = IntegratorConfig(horizon=2.0, samples=21)
        with pytest.raises(StiffnessError) as info:
            integrate(lambda x: x ** 2, np.array([1.0]), cfg)
        assert info.value.last_state is not None
        assert info.value.last_t < 2.0

    def test_budget_counts_the_reported_evaluations(self, monkeypatch):
        # a run of n evaluations passes a budget of n; one fewer refuses its
        # last step and names the time it reached
        oscillator, x0 = (lambda x: np.array([x[1], -x[0]])), np.array([1.0, 0.0])
        cfg = IntegratorConfig(horizon=50.0, samples=11)
        n = integrate(oscillator, x0, cfg).nfev
        monkeypatch.setattr(integrate_mod, "MAX_NFEV", n)
        assert integrate(oscillator, x0, cfg).nfev == n
        monkeypatch.setattr(integrate_mod, "MAX_NFEV", n - 1)
        with pytest.raises(BudgetError, match=rf"^the integration used its budget of {n - 1} flow evaluations "
                                              r"at t = \S+, short of 50$") as info:
            integrate(oscillator, x0, cfg)
        assert 45.0 < info.value.last_t < 50.0

    def test_budget_reads_a_rescaled_run_on_its_clock(self, monkeypatch):
        # the rescaled run steps open-ended in tau: its refusal names the
        # physical time its clock reached
        monkeypatch.setattr(integrate_mod, "MAX_NFEV", 1000)
        with pytest.raises(BudgetError, match=r"short of 100$") as info:
            integrate_reparametrized(ball_system(BALL), X0, IntegratorConfig())
        assert 0.0 < info.value.last_t < 100.0

    def test_system_without_flow_steps_through_reference_rhs(self):
        sys = toy_system(1.0)
        cfg = IntegratorConfig(horizon=20.0, samples=101)
        traj = integrate_sphere(sys, X0, cfg)
        ref = integrate(lambda x: rhs(sys, x), X0, cfg)
        assert np.array_equal(traj.states, ref.states)
        assert traj.nfev == ref.nfev

    def test_near_boundary_drifts(self):
        cfg = IntegratorConfig(horizon=10.0, samples=1001)
        traj = integrate_sphere(ball_system(NEAR_BOUNDARY_BALL), X0, cfg)
        assert max(drift_report(traj).values()) <= 1e-8

    def test_nonfinite_initial_state_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, np.array([np.nan]), IntegratorConfig(horizon=1.0))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(rtol=-1.0)
        with pytest.raises(DomainError):
            IntegratorConfig(horizon=0.0)
        for samples in (0, 1):
            with pytest.raises(DomainError, match="samples must be at least 2"):
                IntegratorConfig(samples=samples)

    @pytest.mark.parametrize("name, value, message", [
        ("rtol", np.nan, "rtol must be positive, got nan"), ("atol", np.nan, "atol must be positive, got nan"),
        ("horizon", np.nan, "horizon must be positive, got nan"),
        ("rtol", np.inf, "rtol must be finite, got inf"), ("horizon", np.inf, "horizon must be finite, got inf"),
    ])
    def test_non_finite_config_rejected(self, name, value, message):
        # NaN passed the `<= 0` test and then stepped without end
        with pytest.raises(DomainError, match=message):
            IntegratorConfig(**{name: value})

    def test_non_finite_flow_at_start_rejected(self):
        with pytest.raises(DomainError, match="flow is not finite at the initial state"):
            integrate(lambda x: x * np.nan, np.array([1.0]), IntegratorConfig(horizon=1.0))


class TestReparametrized:
    def test_unit_multiplier_reproduces_direct_run(self):
        cfg = IntegratorConfig(horizon=5.0, samples=101)
        sys = toy_system(1.0)
        direct = integrate_sphere(sys, X0, cfg)
        tau_traj, t_phys = integrate_reparametrized(sys, X0, cfg)
        mapped = map_to_physical_time(tau_traj, t_phys, direct.t)
        assert np.max(np.abs(mapped - direct.states)) <= 1e-9

    def test_constant_multiplier_time_map(self):
        # g = 2 means dt/dtau = 2, so t = 2 tau exactly
        cfg = IntegratorConfig(horizon=5.0, samples=101)
        tau_traj, t_phys = integrate_reparametrized(toy_system(2.0), X0, cfg)
        np.testing.assert_allclose(t_phys, 2.0 * tau_traj.t, atol=1e-12)

    @pytest.mark.parametrize("system", [
        ball_system(BallParams(**DEMO_BALL)),
        veselova_system(VeselovaParams(**DEMO_VESELOVA, k=DEMO_GYROSTAT)),
    ], ids=["ball", "veselova+gyrostat"])
    def test_rescaled_field_is_hamiltonian(self, monkeypatch, system):
        # flow = (1/g) P grad H with P Poisson, so the clock dt/dtau = g
        # steps dx/dtau = P grad H; the clock dt/dtau = 1/g stepped
        # g^-2 P grad H, off by up to 4.3 (ball) and 0.68 (Veselova +
        # gyrostat) at these states
        module = sys.modules["nonholo.integrate"]
        fields = []

        class Captured(Exception):
            pass

        def capture(fn, *args, **kwargs):
            fields.append(fn)
            raise Captured

        monkeypatch.setattr(module, "_solve", capture)
        with pytest.raises(Captured):
            integrate_reparametrized(system, X0, IntegratorConfig(horizon=1.0))
        (field,) = fields
        X = random_states(np.random.default_rng(0), 50)
        M, gamma = unpack(X)
        hamiltonian = (assemble_P(system, X) @ system.grad_H(M, gamma)[..., None])[..., 0]
        dz = np.array([field(np.append(x, 0.0)) for x in X])
        np.testing.assert_allclose(dz[:, :-1], hamiltonian, rtol=0.0, atol=1e-14 * np.max(np.abs(hamiltonian)))
        np.testing.assert_allclose(dz[:, -1], system.s_spec.g(gamma), rtol=1e-14)

    def test_ball_round_trip(self):
        cfg = IntegratorConfig(horizon=10.0, samples=401)
        sys = ball_system(BALL)
        direct = integrate_sphere(sys, X0, cfg)
        tau_traj, t_phys = integrate_reparametrized(sys, X0, cfg)
        mapped = map_to_physical_time(tau_traj, t_phys, direct.t)
        assert np.max(np.abs(mapped - direct.states)) <= 1e-6

    def test_horizon_beyond_first_tau_budget(self):
        traj, t_phys = integrate_reparametrized(ball_system(FAST_BALL), FAST_X0,
                                                IntegratorConfig(horizon=50.0))
        assert t_phys[-1] == pytest.approx(50.0, abs=1e-9)
        assert np.all(np.diff(t_phys) > 0.0)
        F1 = np.sum(traj.states[:, 3:] ** 2, axis=1)
        assert np.max(np.abs(F1 - F1[0])) <= 1e-8

    def test_one_solve_per_run(self, monkeypatch):
        module = sys.modules["nonholo.integrate"]
        solve, calls = module._solve, []
        monkeypatch.setattr(module, "_solve",
                            lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
        traj, t_phys = integrate_reparametrized(ball_system(FAST_BALL), FAST_X0,
                                                IntegratorConfig(horizon=50.0))
        assert len(calls) == 1
        assert t_phys[-1] == 50.0 and traj.t.shape == (1001,)

    @pytest.mark.parametrize("A, horizon, samples", [
        ((0.4, 0.5, 0.6), 3.5, 51),
        ((0.4, 0.5, 0.6), 27.5, 51),
        ((0.4, 0.5, 0.999), 10.0, 1001),
    ])
    def test_clock_ends_exactly_at_horizon(self, A, horizon, samples):
        # the terminal event used to leave the last clock value a few ulps
        # short of the horizon, so mapping onto the full grid raised
        cfg = IntegratorConfig(horizon=horizon, samples=samples)
        traj, t_phys = integrate_reparametrized(ball_system(BallParams(A=A, D=1.0)), X0, cfg)
        assert t_phys[-1] == horizon
        grid = np.linspace(0.0, horizon, samples)
        assert map_to_physical_time(traj, t_phys, grid).shape == (samples, 6)

    def test_horizon_query_on_the_demo_run(self):
        # the demo ball over the full horizon, as the benchmark's rescaled
        # run: the seventh-order interpolant's clock ends at the horizon,
        # a query there is inside the run, and the mapped states match
        # the direct run's
        cfg = IntegratorConfig()
        sys = ball_system(BallParams(**DEMO_BALL))
        x0 = pack(DEMO_M, DEMO_GAMMA)
        direct = integrate_sphere(sys, x0, cfg)
        tau_traj, t_phys = integrate_reparametrized(sys, x0, cfg)
        assert t_phys[-1] == cfg.horizon
        end = map_to_physical_time(tau_traj, t_phys, [cfg.horizon])
        assert np.max(np.abs(end - direct.states[-1])) <= 1e-6
        mapped = map_to_physical_time(tau_traj, t_phys, direct.t)
        assert np.max(np.abs(mapped - direct.states)) <= 1e-6

    def test_near_boundary_round_trip(self):
        cfg = IntegratorConfig(horizon=10.0, samples=1001)
        sys = ball_system(NEAR_BOUNDARY_BALL)
        direct = integrate_sphere(sys, X0, cfg)
        tau_traj, t_phys = integrate_reparametrized(sys, X0, cfg)
        mapped = map_to_physical_time(tau_traj, t_phys, direct.t)
        assert np.max(np.abs(mapped - direct.states)) <= 1e-6

    def test_time_past_the_horizon_rejected(self):
        tau_traj, t_phys = integrate_reparametrized(toy_system(2.0), X0,
                                                    IntegratorConfig(horizon=1.0, samples=11))
        with pytest.raises(DomainError, match="outside the rescaled run"):
            map_to_physical_time(tau_traj, t_phys, [0.5, 1.5])

    def test_time_map_needs_a_rescaled_run(self):
        direct = integrate_sphere(ball_system(BALL), X0, IntegratorConfig(horizon=1.0, samples=11))
        with pytest.raises(DomainError, match="no dense output"):
            map_to_physical_time(direct, direct.t, direct.t)

    def test_vanishing_multiplier_rejected(self):
        bad = toy_system(1.0)
        sys = SphereSystem(name="bad", hamiltonian=bad.hamiltonian, grad_H=bad.grad_H,
                           s_spec=GFParams(g=ScalarField.constant(0.0),
                                           f=ScalarField.constant(0.0)))
        with pytest.raises(DomainError):
            integrate_reparametrized(sys, X0, IntegratorConfig(horizon=1.0))


class TestDriftReport:
    def test_constant_trajectory(self):
        traj = Trajectory(t=np.linspace(0, 1, 5), states=np.ones((5, 2)),
                          integrals={"E": np.full(5, 2.0)}, nfev=0)
        assert drift_report(traj) == {"E": 0.0}

    def test_coarse_run_shows_larger_drift(self):
        sys = ball_system(BALL)
        coarse = integrate_sphere(sys, X0, IntegratorConfig(rtol=1e-4, atol=1e-6,
                                                            horizon=100.0, samples=51))
        fine = integrate_sphere(sys, X0, IntegratorConfig(rtol=1e-10, atol=1e-12,
                                                          horizon=100.0, samples=51))
        assert max(drift_report(coarse).values()) > 1e-5
        assert max(drift_report(coarse).values()) > 100 * max(drift_report(fine).values())

    def test_relative_normalization(self):
        traj = Trajectory(t=np.array([0.0, 1.0]), states=np.zeros((2, 1)),
                          integrals={"big": np.array([100.0, 101.0])}, nfev=0)
        assert drift_report(traj)["big"] == pytest.approx(0.01)

    def test_times_must_increase(self):
        with pytest.raises(DomainError):
            Trajectory(t=np.array([0.0, 0.0]), states=np.zeros((2, 1)),
                       integrals={}, nfev=0)


def test_csv_round_trip(tmp_path):
    cfg = IntegratorConfig(horizon=1.0, samples=6)
    traj = integrate_sphere(ball_system(BALL), X0, cfg)
    path = tmp_path / "traj.csv"
    trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,M1,M2,M3,g1,g2,g3,H,F1,F2,Msq"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (6, 11)
    # 17 significant digits preserve doubles exactly
    np.testing.assert_array_equal(data[:, 0], traj.t)
    np.testing.assert_array_equal(data[:, 1:7], traj.states)
    for j, name in enumerate(["H", "F1", "F2", "Msq"]):
        np.testing.assert_array_equal(data[:, 7 + j], traj.integrals[name])


def test_planar_csv_reads_back_every_field_exactly(tmp_path):
    sysm = demo_system()
    cfg = IntegratorConfig(horizon=2.0, samples=21)
    traj = integrate(lambda z: planar_rhs(sysm, z), np.array([0.2, -0.3, 0.4, 0.1]), cfg)
    traj = replace(traj, integrals={"E": energy_fn(sysm)(traj.states)})
    path = tmp_path / "planar.csv"
    trajectory_csv(traj, path, columns=("q1", "q2", "P1", "P2"))
    header, *rows = path.read_text().splitlines()
    # no H, F1, F2 in a planar trajectory: E follows the state
    assert header == "t,q1,q2,P1,P2,E"
    assert len(rows) == 21
    for i, row in enumerate(rows):
        fields = [float(v) for v in row.split(",")]
        assert fields == [traj.t[i], *traj.states[i], traj.integrals["E"][i]]


class TestWriteInPlace:
    """The output writer overwrites in place, as ``open(path, "w")`` does,
    without truncating the file to zero first."""

    def test_never_truncates_to_zero(self, tmp_path, monkeypatch):
        flags = []
        real_open = os.open

        def spy(path, flag, *args):
            flags.append(flag)
            return real_open(path, flag, *args)

        monkeypatch.setattr(os, "open", spy)
        write_in_place(tmp_path / "a.csv", "x\n")
        write_in_place(tmp_path / "a.csv", "y\n")
        assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "a.csv"
        write_in_place(path, "0123456789\n" * 50)
        write_in_place(path, "abc\n")
        assert path.read_bytes() == b"abc\n"
        write_in_place(path, "")
        assert path.read_bytes() == b""

    def test_symlink_is_followed_and_kept(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old contents, longer than the new\n")
        link.symlink_to(target)
        write_in_place(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "new\n"

    def test_hard_link_keeps_one_inode(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("old contents, longer than the new\n")
        os.link(a, b)
        write_in_place(b, "new\n")
        assert os.stat(a).st_ino == os.stat(b).st_ino and os.stat(a).st_nlink == 2
        assert a.read_text() == "new\n"

    def test_file_mode_is_kept(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        write_in_place(path, "new, longer than the old\n")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_dev_null_is_written_and_not_cut(self):
        write_in_place(os.devnull, "x\n" * 1000)

    def test_pipe_is_written_and_not_cut(self):
        r, w = os.pipe()
        try:
            write_in_place(f"/dev/fd/{w}", "a,b\n1,2\n")
            os.close(w)
            w = None
            assert os.read(r, 100) == b"a,b\n1,2\n"
        finally:
            os.close(r)
            if w is not None:
                os.close(w)

    def test_interrupted_rewrite_leaves_no_stale_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        path.write_text("old row\n" * 100)

        class HalfWriter(io.TextIOWrapper):
            def write(self, text):
                super().write(text[:len(text) // 2])
                self.flush()
                raise KeyboardInterrupt

        monkeypatch.setattr(core, "open",
                            lambda fd, mode: HalfWriter(io.BufferedWriter(io.FileIO(fd, mode))),
                            raising=False)
        with pytest.raises(KeyboardInterrupt):
            write_in_place(path, "new row\n" * 10)
        # the file holds what reached it of the new text, and nothing of the old
        assert path.read_bytes() == b"new row\n" * 5

    def test_new_file_gets_the_mode_open_w_gives(self, tmp_path):
        write_in_place(tmp_path / "a.csv", "x\n")
        with open(tmp_path / "b.csv", "w") as fh:
            fh.write("x\n")
        assert os.stat(tmp_path / "a.csv").st_mode == os.stat(tmp_path / "b.csv").st_mode
