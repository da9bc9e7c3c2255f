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


def fd_scalar(f, t):
    """Complex-step derivative of a scalar function of one scalar:
    fd_partials at the one-coordinate point (t,), with ``f`` applied to the
    complex coordinates."""
    return float(fd_partials(lambda pts: f(pts[..., 0]), np.array([t]))[0])


def fd_reference(f, x, scales):
    """Order-4 central differences d f / d x^k, shaped like fd_partials'
    result: the real-valued reference the complex step is checked against.
    Along axis k the step is 1e-5 * scales[..., k] (``scales`` broadcasts
    against x: r or |y| per sample, as the engine once took), and
    f(x +- h e_k), f(x +- 2 h e_k) are each evaluated on the whole batch,
    points shaped like x."""
    x = np.asarray(x, dtype=float)
    h = 1e-5 * np.broadcast_to(np.asarray(scales, dtype=float), x.shape)
    eye = np.eye(x.shape[-1])
    partials = []
    for k in range(x.shape[-1]):
        def at(offset, k=k):
            return np.asarray(f(x + offset * h[..., k, None] * eye[k]))

        diff = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / 12.0
        partials.append(diff / h[..., k].reshape(h.shape[:-1] + (1,) * (diff.ndim - x.ndim + 1)))
    return np.stack(partials, axis=x.ndim - 1)


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
    """Oracle: nabla_i c_j = d c_j / d x^i - c_n Gamma^n_ij, all by complex step."""

    def c_field(pts):
        return build_metric(state.frame, state.profiles, pts).dc_low

    dc = fd_partials(c_field, state.x)
    gamma = christoffel_definitional(state)
    return dc - np.einsum("...n,...nij->...ij", state.dc_low, gamma)


def riemann_spray(metric, y):
    """The geodesic spray of the underlying metric: a^i_km y^k y^m."""
    return matvec(christoffel_dot(metric, y), y)


def spray_y_derivative(state):
    """The closed first y-derivative G^i_k of a FinsleroidState's spray."""
    return _first_derivative(state, christoffel_dot(state.metric, state.y))


def reference_fd_oracle(state, central=False):
    """curvature_fd_oracle as it was first built: the partials of the N^3
    closed Christoffel array at every row, plus _gamma_products.  The
    partials are fd_partials' complex step or, with ``central``,
    fd_reference's central differences at step 1e-5 r."""

    def gamma_field(pts):
        return christoffel(build_metric(state.frame, state.profiles, pts))

    if central:
        dgamma = fd_reference(gamma_field, state.x, state.r[..., None])
    else:
        dgamma = fd_partials(gamma_field, state.x)
    half = np.einsum("...kinm->...nikm", dgamma) + _gamma_products(state.gamma)
    return half - np.swapaxes(half, -1, -2)
