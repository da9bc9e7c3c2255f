import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np
import pytest

from finslergeo import (
    Frame,
    ProfilePair,
    build_metric,
    christoffel,
    christoffel_definitional,
    fd_partials,
)
from finslergeo.finsler import _first_derivative
from finslergeo.riemann import _combine, _gamma_products, christoffel_dot
from finslergeo.tensors import matvec, outer


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


def fd_scalar(f, t, scale):
    """Central difference of a scalar function of one scalar: fd_partials
    at the one-coordinate point (t,), with ``f`` applied to the stencil
    coordinates."""
    return float(fd_partials(lambda pts: f(pts[..., 0]), np.array([t]), scale)[0])


def stack_states(states):
    """One state over a leading sample axis from per-sample states of one
    kind (MetricState or FinsleroidState) on one frame, profile pair and
    charge: every per-point array, nested state and cached value is stacked
    as computed, nothing is evaluated again."""
    return _combine(states, np.array)


def nabla_c(state):
    """Closed form of nabla_i c_j for c_j = c'(r) n_j:

    c'' n_i n_j + (c'/r)(u_ij - n_i n_j)
    - (c'/2m) [2 m' n_i n_j + (2 c'/c^3) b_i b_j - m' u_ij]
    """
    n, b, u = state.n_low, state.b_low, state.frame.u_low
    c, c1, c2, m, m1, r = (
        v[..., None, None] for v in (state.c, state.c1, state.c2, state.m, state.m1, state.r)
    )
    nn = outer(n, n)
    return (
        c2 * nn
        + (c1 / r) * (u - nn)
        - (0.5 * c1 / m) * (2.0 * m1 * nn + (2.0 * c1 / c**3) * outer(b, b) - m1 * u)
    )


def nabla_c_definitional(state):
    """Oracle: nabla_i c_j = d c_j / d x^i - c_n Gamma^n_ij, all numeric."""

    def c_field(pts):
        return build_metric(state.frame, state.profiles, pts).dc_low

    dc = fd_partials(c_field, state.x, scales=state.r[..., None])
    gamma = christoffel_definitional(state)
    return dc - np.einsum("...n,...nij->...ij", state.dc_low, gamma)


def riemann_spray(metric, y):
    """The geodesic spray of the underlying metric: a^i_km y^k y^m."""
    return matvec(christoffel_dot(metric, y), y)


def spray_y_derivative(state):
    """The closed first y-derivative G^i_k of a FinsleroidState's spray."""
    return _first_derivative(state, christoffel_dot(state.metric, state.y))


def reference_fd_oracle(state):
    """curvature_fd_oracle as it was first built: fd_partials over the N^3
    closed Christoffel array at every stencil row, plus _gamma_products."""

    def gamma_field(pts):
        return christoffel(build_metric(state.frame, state.profiles, pts))

    dgamma = fd_partials(gamma_field, state.x, scales=state.r[..., None])
    half = np.einsum("...kinm->...nikm", dgamma) + _gamma_products(state.gamma)
    return half - np.swapaxes(half, -1, -2)
