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
    calls = []
    traj = integrate(lambda z: calls.append(None) or fn(z), x0, cfg)
    assert (traj.accepted, traj.rejected) == (accepted, rejected)
    # 12 stages per attempted step, 3 more per accepted step for the dense
    # output, and the initial step's two evaluations
    assert traj.nfev == len(calls) == 2 + 12 * (traj.accepted + traj.rejected) + 3 * traj.accepted


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
