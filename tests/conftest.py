import signal

import numpy as np
import pytest

from nonholo import (BallParams, VeselovaParams, ball_system, linear_potential, pack, quadratic_potential,
                     veselova_system)

# both models, with and without a gyrostat with no zero component, and
# both potentials
_K = np.array([0.05, -0.08, 0.1])
SYSTEMS = {
    "ball": ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0)),
    "ball+gyrostat+linear U": ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0, k=_K,
                                                    U=linear_potential((0.3, -0.2, 0.5)))),
    "veselova": veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9))),
    "veselova+gyrostat": veselova_system(VeselovaParams(Ahat=(0.6, 0.75, 0.9), k=np.array([0.0, 0.0, 0.1]))),
    "veselova+gyrostat+quadratic U": veselova_system(VeselovaParams(
        Ahat=(0.6, 0.75, 0.9), k=_K, U=quadratic_potential((1.0, 2.0, 3.0)))),
}


def rand_unit(rng) -> np.ndarray:
    g = rng.standard_normal(3)
    return g / np.linalg.norm(g)


def rand_state(rng) -> np.ndarray:
    """A random phase point with gamma on the unit sphere."""
    return pack(rng.standard_normal(3), rand_unit(rng))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def deadline():
    """Fail a run that has not ended within 10 s, as a hang would not."""
    def expire(signum, frame):
        raise TimeoutError("the run did not end within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
