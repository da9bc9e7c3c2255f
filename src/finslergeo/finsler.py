"""Finsleroid spray geometry over the radial metric family.

For a fiber vector y at x, the deformation by the Finsleroid charge g
lives on the admissible cone where the transverse norm q and the factor
nu are positive:

    b   = b_i y^i                 (axis component)
    S^2 = a_ij y^i y^j
    q   = sqrt(S^2 - b^2)         (transverse norm)
    v_i = y_i - b b_i             (transverse covector)
    nu  = q + g (1 - c^2) b

The spray coefficients are  G^i = (g/nu) (ys) v^i + a^i_km y^k y^m  with
(ys) = y^j y^h nabla_j b_h, valid when nabla b is symmetric and g is
constant (both hold for this metric family).  Their y-derivatives have
exact closed forms; x-derivatives are taken by finite differences, and the
hh-curvature bundle K^2 R^i_k is assembled from

    2 dGbar^i/dx^k - Gbar^i_j Gbar^j_k - y^j dGbar^i_k/dx^j + 2 Gbar^j Gbar^i_kj

with Gbar = G/2.  The fundamental Finsler function itself is never needed:
only the combination K^2 R^i_k is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .riemann import MetricState, build_metric, christoffel_dot
from .tensors import (
    DiffConfig,
    Jet2,
    StencilMissError,
    dot,
    fd_partials,
    matvec,
    max_abs,
    outer,
)


class AdmissibilityError(StencilMissError):
    """The fiber vector lies outside the admissible cone."""


class DegenerateFiberError(AdmissibilityError):
    """q^2 <= 0: no real transverse norm (e.g. y parallel to the axis at c = 1,
    or an indefinite metric with no admissible fibers at all)."""


class OutsideConeError(AdmissibilityError):
    """nu <= 0: the fiber vector escapes the admissible cone."""


@dataclass(frozen=True)
class FinsleroidState:
    """All (x, y)-local Finsleroid quantities on the admissible cone.

    Field map (index placement in brackets):
      b        axis component b_i y^i
      s2       a_ij y^i y^j
      q2, q    transverse norm squared / its positive root
      v_low    v_i = y_i - b b_i;  v_up = y^i - b b^i
      nu       q + g (1 - c^2) b
      nu_low   y-gradient of nu: v_k / q + (1 - c^2) g b_k (-v_k / q in
               the relativistic convention q^2 = b^2 - S^2)
      r_mix    transverse projector r^i_k = delta^i_k - b^i b_k  [upper, lower]
      r_low    a_km - b_k b_m
      eta      r_km - v_k v_m / q^2
      s_low    s_k = y^h nabla_k b_h;  ys = y^k s_k;  sigma = b^k s_k
      yc       y^h c_h
      e_fiber  (b/q^2) v_k - b_k, the covector whose y-derivative closes on eta

    Built from a stack of metrics or of fiber vectors, the per-point fields
    carry the stack's leading axis (the scalars become arrays over it).
    """

    metric: MetricState
    y: np.ndarray
    charge: float
    relativistic: bool
    y_low: np.ndarray
    b: float | np.ndarray
    s2: float | np.ndarray
    q2: float | np.ndarray
    q: float | np.ndarray
    v_low: np.ndarray
    v_up: np.ndarray
    nu: float | np.ndarray
    nu_low: np.ndarray
    r_mix: np.ndarray
    r_low: np.ndarray
    eta: np.ndarray
    s_low: np.ndarray
    ys: float | np.ndarray
    sigma: float | np.ndarray
    yc: float | np.ndarray
    e_fiber: np.ndarray


def fiber_vectors(metric: MetricState, y: np.ndarray):
    """The q^2-level fiber data (no admissibility requirement): returns
    (y_low, b, S^2, q^2, v_low, v_up).  q^2 may be negative for indefinite
    metrics; callers needing the full state must go through kinematics.
    A stack of metrics (x-stencils) or of fiber vectors (y-stencils)
    broadcasts against a single partner."""
    y = np.asarray(y, dtype=float)
    y_low = np.einsum("...ij,...j->...i", metric.a_low, y)
    b = np.einsum("...i,...i->...", metric.b_low, y)
    s2 = np.einsum("...i,...i->...", y, y_low)
    q2 = s2 - b * b
    v_low = y_low - b[..., None] * metric.b_low
    v_up = y - b[..., None] * metric.b_up
    return y_low, b, s2, q2, v_low, v_up


def kinematics(
    metric: MetricState,
    y: np.ndarray,
    charge: float,
    relativistic: bool = False,
) -> FinsleroidState:
    """Assemble the Finsleroid state at (x, y), enforcing admissibility.

    Either side may be a stack (see fiber_vectors); every point of the
    stack must be admissible, and the error of an inadmissible stack marks
    its points in ``rows``.  ``relativistic=True`` flips the transverse
    norm to q^2 = b^2 - S^2 (so dq/dy^k = -v_k/q) for exploratory runs on
    indefinite metrics; the printed identity suite is only claimed (and
    only asserted) for the positive-definite convention.
    """
    y = np.asarray(y, dtype=float)
    y_low, b, s2, q2, v_low, v_up = fiber_vectors(metric, y)
    if relativistic:
        q2 = b * b - s2
    if np.any(q2 <= 0.0):
        raise DegenerateFiberError(
            f"q^2 = {np.min(q2):.3e} <= 0: no transverse norm for this fiber vector",
            rows=q2 <= 0.0,
        )
    q = np.sqrt(q2)
    c = metric.c
    one_minus_c2 = 1.0 - c * c
    nu = q + charge * one_minus_c2 * b
    if np.any(nu <= 0.0):
        raise OutsideConeError(
            f"nu = {np.min(nu):.3e} <= 0: fiber vector outside the cone", rows=nu <= 0.0
        )

    q_slope = -v_low if relativistic else v_low
    nu_low = q_slope / q[..., None] + (one_minus_c2 * charge)[..., None] * metric.b_low
    n = metric.frame.n_dim
    r_mix = np.eye(n) - outer(metric.b_up, metric.b_low)
    r_low = metric.a_low - outer(metric.b_low, metric.b_low)
    eta = r_low - outer(v_low, v_low) / q2[..., None, None]
    s_low = np.einsum("...ij,...j->...i", metric.nb, y)
    ys = np.einsum("...i,...i->...", y, s_low)
    sigma = np.einsum("...i,...i->...", metric.b_up, s_low)
    yc = np.einsum("...i,...i->...", metric.dc_low, y)
    e_fiber = (b / q2)[..., None] * v_low - metric.b_low
    return FinsleroidState(
        metric=metric,
        y=y,
        charge=float(charge),
        relativistic=relativistic,
        y_low=y_low,
        b=b,
        s2=s2,
        q2=q2,
        q=q,
        v_low=v_low,
        v_up=v_up,
        nu=nu,
        nu_low=nu_low,
        r_mix=r_mix,
        r_low=r_low,
        eta=eta,
        s_low=s_low,
        ys=ys,
        sigma=sigma,
        yc=yc,
        e_fiber=e_fiber,
    )


# ---------------------------------------------------------------------------
# Spray coefficients and their y-derivatives
# ---------------------------------------------------------------------------


def riemann_spray(metric: MetricState, y: np.ndarray) -> np.ndarray:
    """The geodesic spray of the underlying metric: a^i_km y^k y^m."""
    return matvec(christoffel_dot(metric, y), y)


def _spray_and_first(
    metric: MetricState, y: np.ndarray, charge: float, relativistic: bool = False
) -> tuple[np.ndarray, np.ndarray, FinsleroidState | None]:
    """The spray G^i, its closed y-derivative G^i_k and the kinematics state
    they came from (one evaluation, one a^i_km y^m); at charge 0 both are
    geodesic, need no admissible cone, and the state is None."""
    y = np.asarray(y, dtype=float)
    gamma_y = christoffel_dot(metric, y)
    base = matvec(gamma_y, y)
    if charge == 0.0:
        return base, 2.0 * gamma_y, None
    state = kinematics(metric, y, charge, relativistic)
    weight = (state.charge / state.nu) * state.ys
    return weight[..., None] * state.v_up + base, _first_derivative(state, gamma_y), state


def _spray_stack(metric: MetricState, y: np.ndarray, charge: float) -> np.ndarray:
    """G^i followed by G^i_k row-major: the one field each stencil differences."""
    g, g_first, _ = _spray_and_first(metric, y, charge)
    return np.concatenate([g, g_first.reshape(g_first.shape[:-2] + (-1,))], axis=-1)


def spray_coefficients(
    metric: MetricState,
    y: np.ndarray,
    charge: float,
    relativistic: bool = False,
) -> np.ndarray:
    """G^i = (g/nu) (ys) v^i + a^i_km y^k y^m at (x, y); at charge 0 this is
    exactly the geodesic spray and needs no admissible cone."""
    return _spray_and_first(metric, y, charge, relativistic)[0]


def spray_y_derivative(state: FinsleroidState) -> np.ndarray:
    """Closed first y-derivative, axes [i, k]:

    G^i_k = -(g/nu^2) (ys) nu_k v^i + 2 (g/nu) s_k v^i + (g/nu) (ys) r^i_k
            + 2 a^i_km y^m
    """
    return _first_derivative(state, christoffel_dot(state.metric, state.y))


def _first_derivative(state: FinsleroidState, gamma_y: np.ndarray) -> np.ndarray:
    """spray_y_derivative(state), given gamma_y = a^i_km y^m at the state."""
    g, nu, ys = state.charge, state.nu, state.ys
    return (
        (-(g / nu**2) * ys)[..., None, None] * outer(state.v_up, state.nu_low)
        + (2.0 * (g / nu))[..., None, None] * outer(state.v_up, state.s_low)
        + ((g / nu) * ys)[..., None, None] * state.r_mix
        + 2.0 * gamma_y
    )


def spray_y_second(state: FinsleroidState) -> np.ndarray:
    """Closed second y-derivative, axes [i, k, m]:

    G^i_km = (2g/nu^3)(ys) nu_k nu_m v^i - (g/(nu^2 q))(ys) eta_km v^i
             + 2 (g/nu) (nabla_m b_k) v^i
             - 2 (g/nu^2) (nu_m s_k + nu_k s_m) v^i
             + 2 (g/nu) (s_k r^i_m + s_m r^i_k)
             - (g/nu^2) (ys) (nu_m r^i_k + nu_k r^i_m)
             + 2 a^i_km

    Exact under the symmetry of nabla b and constant charge (confirmed
    against the numeric second derivative in the tests).
    """
    g = state.charge
    nu, q, ys = (v[..., None, None, None] for v in (state.nu, state.q, state.ys))
    v, s, nu_low, r_mix, eta = state.v_up, state.s_low, state.nu_low, state.r_mix, state.eta
    return (
        2.0 * (g / nu**3) * ys * np.einsum("...i,...k,...m->...ikm", v, nu_low, nu_low)
        - (g / (nu**2 * q)) * ys * np.einsum("...i,...km->...ikm", v, eta)
        + 2.0 * (g / nu) * np.einsum("...i,...mk->...ikm", v, state.metric.nb)
        - 2.0 * (g / nu**2) * (
            np.einsum("...i,...m,...k->...ikm", v, nu_low, s)
            + np.einsum("...i,...k,...m->...ikm", v, nu_low, s)
        )
        + 2.0 * (g / nu) * (
            np.einsum("...k,...im->...ikm", s, r_mix) + np.einsum("...m,...ik->...ikm", s, r_mix)
        )
        - (g / nu**2) * ys * (
            np.einsum("...m,...ik->...ikm", nu_low, r_mix)
            + np.einsum("...k,...im->...ikm", nu_low, r_mix)
        )
        + 2.0 * state.metric.gamma
    )


@dataclass(frozen=True)
class SprayDerivatives:
    """The closed spray at (x, y) with its first and second y-derivatives,
    their numeric differentiations, and the disagreements (one per sample
    over a batch).  It carries the point, so the hh-curvature bundle is
    assembled from it."""

    metric: MetricState
    y: np.ndarray
    charge: float
    spray: np.ndarray
    first_closed: np.ndarray
    first_numeric: np.ndarray
    second_closed: np.ndarray
    second_numeric: np.ndarray
    first_gap: float | np.ndarray
    second_gap: float | np.ndarray


def spray_derivatives(
    metric: MetricState,
    y: np.ndarray,
    charge: float,
    config: DiffConfig | None = None,
) -> SprayDerivatives:
    """Both derivative routes at (x, y), or at each sample of a batch: a
    metric over B points with fiber vectors y (B, N).

    The closed G^i, G^i_k and G^i_km come from one kinematics evaluation.
    The first numeric derivative differentiates the spray itself; the
    second differentiates the independently verified closed first
    derivative (one stencil level each keeps the error budget at the
    closed-form class).
    """
    cfg = config or DiffConfig()
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    spray, first_closed, state = _spray_and_first(metric, y, charge)
    second_closed = 2.0 * metric.gamma if state is None else spray_y_second(state)
    # One |y|-scaled stencil pass over [G^i, G^i_k], each sample's metric
    # broadcast over its rows; fd_partials puts the derivative index before
    # the components, so it moves last for G^i_k and G^i_km.
    rows = metric.per_row()
    d_stack = fd_partials(
        lambda ys: _spray_stack(rows, ys, charge),
        y,
        cfg,
        scales=np.linalg.norm(y, axis=-1)[..., None],
    )
    first_numeric = np.swapaxes(d_stack[..., :n], -1, -2)
    second_numeric = np.moveaxis(d_stack[..., n:].reshape(y.shape[:-1] + (n, n, n)), -3, -1)
    return SprayDerivatives(
        metric=metric,
        y=y,
        charge=float(charge),
        spray=spray,
        first_closed=first_closed,
        first_numeric=first_numeric,
        second_closed=second_closed,
        second_numeric=second_numeric,
        first_gap=max_abs(first_closed - first_numeric, 2),
        second_gap=max_abs(second_closed - second_numeric, 3),
    )


# ---------------------------------------------------------------------------
# hh-curvature bundle
# ---------------------------------------------------------------------------


def hh_curvature(derivs: SprayDerivatives, config: DiffConfig | None = None) -> np.ndarray:
    """K^2 R^i_k, axes [i, k], at the point (or at each sample) of
    ``derivs``, assembled from its closed spray data and one x-stencil of
    [G^i, G^i_k].

    With Gbar = G/2 and y held fixed across the x-stencil:

        K^2 R^i_k = 2 dGbar^i/dx^k - Gbar^i_j Gbar^j_k
                    - y^j dGbar^i_k/dx^j + 2 Gbar^j Gbar^i_kj

    Index lowering on the bundle, where wanted, uses the Riemannian metric
    a_ij (the Finsler metric tensor is out of scope).
    """
    cfg = config or DiffConfig()
    metric, y, charge = derivs.metric, derivs.y, derivs.charge
    n = y.shape[-1]
    y_rows = y[..., None, :]  # each sample's y, broadcast over its stencil rows

    # One r-scaled stencil pass over [G^i, G^i_k]: each stencil metric is built once.
    d_stack = fd_partials(
        lambda pts: _spray_stack(build_metric(metric.frame, metric.profiles, pts), y_rows, charge),
        metric.x,
        cfg,
        scales=metric.r[..., None],
    )

    gbar = 0.5 * derivs.spray
    gbar_first = 0.5 * derivs.first_closed
    gbar_second = 0.5 * derivs.second_closed
    d_gbar = 0.5 * d_stack[..., :n]  # [k, i] = d Gbar^i / d x^k
    d_gbar_first = 0.5 * d_stack[..., n:].reshape(y.shape[:-1] + (n, n, n))  # [j, i, k]

    return (
        2.0 * np.swapaxes(d_gbar, -1, -2)
        - gbar_first @ gbar_first
        - np.einsum("...j,...jik->...ik", y, d_gbar_first)
        + 2.0 * np.einsum("...j,...ikj->...ik", gbar, gbar_second)
    )


# ---------------------------------------------------------------------------
# Identity residuals (two-sided evaluations, analytic-jet derivatives)
# ---------------------------------------------------------------------------


def _fiber_jets(state: FinsleroidState):
    """Second-order jets of the fiber scalars along y + t e_axis, for every
    axis in one pass: after the state's sample axes, jet parts have axes
    [axis, 1] (scalars) or [axis, k] (covector components).

    Jet arithmetic gives the exact directional derivative of every quantity
    built from b(t), S^2(t), q(t), so derivative identities can be checked
    to algebraic precision without finite differences.
    """
    ms = state.metric
    a = ms.a_low
    b_low = ms.b_low
    bj = Jet2(state.b[..., None, None], b_low[..., :, None], 0.0)
    s2j = Jet2(
        state.s2[..., None, None],
        2.0 * state.y_low[..., :, None],
        2.0 * np.diagonal(a, axis1=-2, axis2=-1)[..., :, None],
    )
    q2j = bj * bj - s2j if state.relativistic else s2j - bj * bj
    qj = q2j.sqrt()
    gc = state.charge * (1.0 - ms.c**2)
    nuj = qj + bj * gc[..., None, None]
    v_j = Jet2(state.v_low[..., None, :], a - outer(b_low, b_low), 0.0)
    ratio_j = (v_j / qj + (gc[..., None] * b_low)[..., None, :]) / nuj
    e_j = bj / q2j * v_j - b_low[..., None, :]
    return nuj, ratio_j, e_j


def kinematic_identity_residuals(state: FinsleroidState) -> dict[str, float | np.ndarray]:
    """Two-sided residuals of the printed kinematic identities, one per
    sample of the state (a float for one point).

    Derivative identities evaluate their left sides with directional jets
    (exact chain rule), so every residual measures pure algebra:

      nu_gradient          nu_k = v_k/q + (1-c^2) g b_k  vs  d(nu)/dy^k
      nu_ratio_derivative  d(nu_k/nu)/dy^m = -nu_k nu_m/nu^2 + eta_km/(nu q)
      e_fiber_derivative   d(e_k)/dy^j = (b/q^2) eta_kj - v_k e_j / q^2
      v_dot_s              v^m s_m = (ys) - b sigma
      v_projected          v^j r^i_j = v^i - (1-c^2) b b^i
      projector_square     r^j_m r^i_j = r^i_m - (1-c^2) b^i b_m
      v_norm               v_j v^j = q^2 - (1-c^2) b^2
      nu_dot_v             nu_j v^j = nu - (1-c^2)(b^2 + g c^2 b q)/q
      b_dot_v              b_j v^j = (1-c^2) b
    """
    ms = state.metric
    c2 = ms.c**2
    one_minus_c2 = 1.0 - c2
    g = state.charge
    b, q, q2, nu = state.b, state.q, state.q2, state.nu

    res: dict[str, float | np.ndarray] = {}

    # Jet-based derivative identities: one pass over all directions.
    nuj, ratio_j, e_j = _fiber_jets(state)
    nu_grad = nuj.d1[..., 0]
    ratio_d = ratio_j.d1  # [m, k] = d(nu_k/nu)/dy^m
    e_d = e_j.d1          # [j, k] = d(e_k)/dy^j

    res["nu_gradient"] = max_abs(state.nu_low - nu_grad, 1)

    ratio_rhs = (
        -outer(state.nu_low, state.nu_low) / (nu**2)[..., None, None]
        + state.eta / (nu * q)[..., None, None]
    )  # [k, m]; symmetric in (k, m)
    res["nu_ratio_derivative"] = max_abs(ratio_d - np.swapaxes(ratio_rhs, -1, -2), 2)

    q2_col = q2[..., None, None]
    e_rhs = (b / q2)[..., None, None] * state.eta - outer(state.v_low, state.e_fiber) / q2_col
    # e_rhs[k, j] = d(e_k)/dy^j; compare against e_d[j, k].
    res["e_fiber_derivative"] = max_abs(e_d - np.swapaxes(e_rhs, -1, -2), 2)

    v_up, v_low, r_mix = state.v_up, state.v_low, state.r_mix
    res["v_dot_s"] = np.abs(dot(v_up, state.s_low) - (state.ys - b * state.sigma))
    res["v_projected"] = max_abs(
        matvec(r_mix, v_up) - (v_up - (one_minus_c2 * b)[..., None] * ms.b_up), 1
    )
    proj_sq = np.einsum("...ij,...jm->...im", r_mix, r_mix)
    res["projector_square"] = max_abs(
        proj_sq - (r_mix - one_minus_c2[..., None, None] * outer(ms.b_up, ms.b_low)), 2
    )
    res["v_norm"] = np.abs(dot(v_low, v_up) - (q2 - one_minus_c2 * b**2))
    res["nu_dot_v"] = np.abs(
        dot(state.nu_low, v_up) - (nu - one_minus_c2 * (b**2 + g * c2 * b * q) / q)
    )
    res["b_dot_v"] = np.abs(dot(ms.b_low, v_up) - one_minus_c2 * b)
    return res
