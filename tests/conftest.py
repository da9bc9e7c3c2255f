import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np
import pytest

from finslergeo import Frame, ProfilePair, fd_partials
from finslergeo.riemann import _combine


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def schwarzschild():
    return ProfilePair.schwarzschild_isotropic(1.0)


@pytest.fixture
def pd_rational():
    # 0 < c < 1 and m > 0 on the sampled range: positive-definite metric,
    # every fiber vector admissible.
    return ProfilePair.rational((0.8, 0.1), (1.0, 0.2))


@pytest.fixture
def frame4():
    return Frame.standard(4, epsilon=-1)


@pytest.fixture
def frame4_pd():
    return Frame.standard(4, epsilon=1)


def sample_point(rng, n_dim, lo, hi):
    """Random chart point with spatial radius in [lo, hi] (standard chart)."""
    direction = rng.normal(size=n_dim - 1)
    direction /= np.linalg.norm(direction)
    x = np.empty(n_dim)
    x[0] = rng.uniform(-1.0, 1.0)
    x[1:] = rng.uniform(lo, hi) * direction
    return x


@pytest.fixture
def point_sampler():
    return sample_point


def fd_scalar(f, t, config, scale):
    """Central difference of a scalar function of one scalar: fd_partials
    at the one-coordinate point (t,), with ``f`` applied to the stencil
    coordinates."""
    return float(fd_partials(lambda pts: f(pts[..., 0]), np.array([t]), config, scale)[0])


def stack_states(states):
    """One state over a leading sample axis from per-sample states of one
    kind (MetricState or FinsleroidState) on one frame, profile pair and
    charge: every per-point array, nested state and cached value is stacked
    as computed, nothing is evaluated again."""
    return _combine(states, np.array)
