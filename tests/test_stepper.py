"""The DOP853 stepper against scipy's, and the program without scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nonholo import (
    BallParams,
    IntegratorConfig,
    VeselovaParams,
    ball_system,
    integrate,
    pack,
    veselova_system,
)
from nonholo.cli import DEMO_GAMMA, DEMO_M
from nonholo.integrate import _D
from nonholo.models import DEMO_BALL, DEMO_GYROSTAT, DEMO_VESELOVA
from nonholo.planar import demo_system

X0 = pack(DEMO_M, DEMO_GAMMA)
PLANAR_Z0 = np.array([0.2, -0.3, 0.4, 0.1])
SRC = Path(__file__).resolve().parent.parent / "src"

RUNS = {
    "demo-ball": (ball_system(BallParams(**DEMO_BALL)).flow, X0, IntegratorConfig()),
    "veselova+gyrostat": (veselova_system(VeselovaParams(**DEMO_VESELOVA, k=DEMO_GYROSTAT)).flow,
                          X0, IntegratorConfig()),
    "planar-demo": (demo_system().flow, PLANAR_Z0, IntegratorConfig()),
}


@pytest.mark.parametrize("name", RUNS)
def test_stepper_reproduces_scipy_dop853(name):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    fn, x0, cfg = RUNS[name]
    traj = integrate(fn, x0, cfg)
    sol = solve_ivp(lambda t, z: fn(z), (0.0, cfg.horizon), x0, method="DOP853", rtol=cfg.rtol,
                    atol=cfg.atol, dense_output=True)
    assert np.array_equal(traj.states, sol.sol(traj.t).T)
    assert traj.nfev == sol.nfev
    assert traj.accepted == sol.t.size - 1


@pytest.mark.parametrize("name, accepted, rejected", [
    ("demo-ball", 218, 11),
    ("planar-demo", 491, 148),
], ids=["demo-ball", "planar-demo"])
def test_step_counters(name, accepted, rejected):
    fn, x0, cfg = RUNS[name]
    rows = []
    traj = integrate(lambda z: rows.append(1 if z.ndim == 1 else len(z)) or fn(z), x0, cfg)
    assert (traj.accepted, traj.rejected) == (accepted, rejected)
    # the initial step's two evaluations and 12 stages per attempted step,
    # one state each; the dense output's 3 stages per accepted step, as three
    # stacked calls after the last step
    attempted = traj.accepted + traj.rejected
    assert traj.nfev == sum(rows) == 2 + 12 * attempted + 3 * traj.accepted
    assert len(rows) == 2 + 12 * attempted + 3


@pytest.mark.parametrize("n", [4, 6, 7])
def test_batched_products_are_per_step_products_bitwise(n, rng):
    # the dense output's stages and coefficients are built for all steps at
    # once; each stacked product must round as the one step's product does
    Ks = rng.standard_normal((40, 16, n)) * np.exp(rng.uniform(-5, 5, (40, 16, 1)))
    for s in range(1, 16):
        a = rng.standard_normal(s)
        stacked = np.matmul(Ks[:, :s].transpose(0, 2, 1), a)
        assert np.array_equal(stacked, np.array([K[:s].T.dot(a) for K in Ks])), s
    assert np.array_equal(np.matmul(_D, Ks), np.array([_D.dot(K) for K in Ks]))


BLOCK_SCIPY = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import nonholo.cli
sys.exit(nonholo.cli.main(sys.argv[1:]))
"""


def test_simulate_runs_without_scipy(tmp_path):
    argv = ["simulate", "--model", "ball", "--demo", "--csv", str(tmp_path / "ball.csv")]
    done = subprocess.run([sys.executable, "-c", BLOCK_SCIPY, *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True
    assert (tmp_path / "ball.csv").exists()
