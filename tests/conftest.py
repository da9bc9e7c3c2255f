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
    kinematics,
    spray_coefficients,
)
from finslergeo.finsler import _first_derivative, _spray_and_first, spray_y_second
from finslergeo.riemann import _gamma_products, christoffel_dot, christoffel_quadratic
from finslergeo.tensors import outer


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


def fd_reference(f, x, scales, directions=None):
    """Order-4 central differences along each row d of ``directions`` (the
    identity by default, giving d f / d x^k), shaped like fd_partials'
    result: the real-valued reference the complex step is checked against.
    Row r moves the point by t d with |t d| = 1e-5 * scales[..., r]
    (``scales`` broadcasts against x: r or |y| per sample, as the engine
    once took), and f(x +- t d), f(x +- 2 t d) are each evaluated on the
    whole batch, points shaped like x.  ``directions`` puts its rows first,
    as fd_partials takes them."""
    x = np.asarray(x, dtype=float)
    d = np.eye(x.shape[-1]) if directions is None else np.asarray(directions, dtype=float)
    d = d.reshape(d.shape[:1] + (1,) * (x.ndim + 1 - d.ndim) + d.shape[1:])
    d = np.broadcast_to(d, d.shape[:1] + x.shape)
    scale = np.broadcast_to(np.asarray(scales, dtype=float), x.shape)
    partials = []
    for r, row in enumerate(d):
        t = 1e-5 * scale[..., r] / np.linalg.norm(row, axis=-1)

        def at(offset, t=t, row=row):
            return np.asarray(f(x + offset * t[..., None] * row))

        diff = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / 12.0
        partials.append(diff / t.reshape(t.shape + (1,) * (diff.ndim - x.ndim + 1)))
    return np.stack(partials, axis=x.ndim - 1)


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


def nabla_b_definitional(state):
    """Oracle: nabla_i b_j = d b_j / d x^i - b_n Gamma^n_ij, all by complex step."""

    def b_field(pts):
        return build_metric(state.frame, state.profiles, pts).b_low

    db = fd_partials(b_field, state.x)  # [i, j] = d_i b_j
    gamma = christoffel_definitional(state)
    return db - np.einsum("...n,...nij->...ij", state.b_low, gamma)


def in_chart(frame, lin):
    """The same frame expressed in the chart x_new = lin @ x_old."""
    lin = np.asarray(lin, dtype=float)
    lin_inv = np.linalg.inv(lin)
    u_low = lin_inv.T @ frame.u_low @ lin_inv
    return Frame(frame.n_dim, frame.epsilon, frame.e_low @ lin_inv, u_low)


def transform_components(components, variance, lin):
    """Push tensor components to the chart x_new = lin @ x_old.

    ``variance`` holds one tag per axis, "u" (contravariant) or "d"
    (covariant).  Contravariant axes transform with ``lin``, covariant
    axes with its inverse transpose.
    """
    comp = np.asarray(components, dtype=float)
    lin = np.asarray(lin, dtype=float)
    lin_inv = np.linalg.inv(lin)
    for axis, ch in enumerate(variance):
        if ch == "u":
            comp = np.moveaxis(np.tensordot(lin, comp, axes=(1, axis)), 0, axis)
        else:
            comp = np.moveaxis(np.tensordot(comp, lin_inv, axes=(axis, 0)), -1, axis)
    return comp


def riemann_spray(metric, y):
    """The geodesic spray of the underlying metric: a^i_km y^k y^m."""
    return christoffel_quadratic(metric, y)


def spray_y_derivative(state):
    """The closed first y-derivative G^i_k of a FinsleroidState's spray."""
    return _first_derivative(state, christoffel_dot(state.metric, state.y))


def spray_second_closed(metric, y, charge):
    """The closed second y-derivative G^i_km, axes [i, k, m]: the engine's
    contraction G^i_km w^m (spray_y_second; at charge 0, 2 a^i_km w^m)
    taken with each unit vector w = e_m."""
    y = np.asarray(y, dtype=float)
    state = None if charge == 0.0 else kinematics(metric, y, charge)
    columns = []
    for e in np.eye(y.shape[-1]):
        w = np.broadcast_to(e, y.shape)
        column = 2.0 * christoffel_dot(metric, w) if state is None else spray_y_second(state, w)
        columns.append(column)
    return np.stack(columns, axis=-1)


def spray_first_numeric(metric, y, charge):
    """The numeric first y-derivative G^i_k, axes [i, k]: one complex
    y-step of the spray G^i alone, as finsler-curvature takes it for
    spray_first_derivative_gap; the derivative index moves last."""
    return np.swapaxes(fd_partials(lambda ys: spray_coefficients(metric, ys, charge), y), -1, -2)


def spray_second_numeric(metric, y, charge):
    """The numeric second y-derivative G^i_km, axes [i, k, m]: one complex
    y-step of the closed G^i_k, whose derivative index moves last."""
    d = fd_partials(lambda ys: _spray_and_first(metric, ys, charge)[1], y)
    return np.moveaxis(d, -3, -1)


def reference_fd_oracle(state):
    """curvature_fd_oracle's construction with fd_reference's order-4
    central differences at step 1e-5 r in place of the complex step: the
    partials of the N^3 closed Christoffel array, plus _gamma_products."""

    def gamma_field(pts):
        return christoffel(build_metric(state.frame, state.profiles, pts))

    dgamma = fd_reference(gamma_field, state.x, state.r[..., None])
    half = np.einsum("...kinm->...nikm", dgamma) + _gamma_products(christoffel(state))
    return half - np.swapaxes(half, -1, -2)
