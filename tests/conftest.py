import numpy as np
import pytest

from nonholo import DirectS, SphereSystem, VectorField3, pack


def rand_unit(rng) -> np.ndarray:
    g = rng.standard_normal(3)
    return g / np.linalg.norm(g)


def rand_state(rng) -> np.ndarray:
    """A random phase point with gamma on the unit sphere."""
    return pack(rng.standard_normal(3), rand_unit(rng))


def direct_system() -> SphereSystem:
    """A system whose S-function is given directly (K), with no (g, f)."""
    return SphereSystem("direct", lambda M, g: 0.0, lambda M, g: np.zeros(3),
                        lambda M, g: np.zeros(3), DirectS(K=VectorField3.zero()))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
