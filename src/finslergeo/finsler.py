"""Finsleroid spray geometry over the radial metric family.

For a fiber vector y at x, the deformation by the Finsleroid charge g
lives on the admissible cone where the transverse norm q and the factor
nu are positive:

    b   = b_i y^i                 (axis component)
    S^2 = a_ij y^i y^j
    q   = sqrt(eps (S^2 - b^2))   (transverse norm)
    v_i = y_i - b b_i             (transverse covector)
    nu  = q + g (1 - c^2) b

The convention sign eps is the metric's signature, metric.frame.epsilon:
+1 gives the positive-definite Finsleroid, -1 the pseudo-Finsleroid with a
timelike axis (q^2 = b^2 - S^2).  Since d(S^2 - b^2)/dy^k = 2 v_k, every
y-derivative of q carries it once: dq/dy^k = eps v_k / q.

The spray coefficients are  G^i = (g/nu) (ys) v^i + a^i_km y^k y^m  with
(ys) = y^j y^h nabla_j b_h, valid when nabla b is symmetric and g is
constant (both hold for this metric family).  Their y-derivatives have
exact closed forms; x-derivatives are taken by complex step (every field
here is complex-analytic, and every admissibility test reads the real
part), and the hh-curvature bundle K^2 R^i_k is assembled from

    2 dGbar^i/dx^k - Gbar^i_j Gbar^j_k - y^j dGbar^i_k/dx^j + 2 Gbar^j Gbar^i_kj

with Gbar = G/2.  The fundamental Finsler function itself is never needed:
only the combination K^2 R^i_k is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .riemann import MetricState, build_metric, christoffel_dot, nabla_b_dot
from .tensors import dot, fd_partials, matvec, max_abs, outer


class AdmissibilityError(ValueError):
    """The fiber vector lies outside the admissible cone.  ``rows``, shaped
    like the stack's leading axes, marks the points that failed the test
    that raised, so a stack can drop just those points."""

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


class DegenerateFiberError(AdmissibilityError):
    """q^2 <= 0: no real transverse norm (e.g. y parallel to the axis at c = 1,
    or a profile with no admissible fibers in its signature's convention)."""


class OutsideConeError(AdmissibilityError):
    """nu <= 0: the fiber vector escapes the admissible cone."""


@dataclass(frozen=True)
class FinsleroidState:
    """All (x, y)-local Finsleroid quantities on the admissible cone.

    Field map (index placement in brackets):
      b        axis component b_i y^i
      s2       a_ij y^i y^j
      q2, q    transverse norm squared eps (S^2 - b^2) / its positive root,
               with the convention sign eps = metric.frame.epsilon
      v_low    v_i = y_i - b b_i;  v_up = y^i - b b^i
      nu       q + g (1 - c^2) b
      nu_low   y-gradient of nu: eps v_k / q + (1 - c^2) g b_k
      r_mix    transverse projector r^i_k = delta^i_k - b^i b_k  [upper, lower]
      r_low    a_km - b_k b_m
      eta      r_km - eps v_k v_m / q^2, so that d(nu_k)/dy^m = eps eta_km / q
      s_low    s_k = y^h nabla_k b_h;  ys = y^k s_k;  sigma = b^k s_k

    Built from a stack of metrics or of fiber vectors, the per-point fields
    carry the stack's leading axis (the scalars become arrays over it).
    r_mix, r_low, eta and sigma are computed on first use and kept: no
    complex row of the spray reads the last three.
    """

    metric: MetricState
    y: np.ndarray
    charge: float
    y_low: np.ndarray
    b: float | np.ndarray
    s2: float | np.ndarray
    q2: float | np.ndarray
    q: float | np.ndarray
    v_low: np.ndarray
    v_up: np.ndarray
    nu: float | np.ndarray
    nu_low: np.ndarray
    s_low: np.ndarray
    ys: float | np.ndarray

    @cached_property
    def r_mix(self) -> np.ndarray:
        return np.eye(self.metric.frame.n_dim) - outer(self.metric.b_up, self.metric.b_low)

    @cached_property
    def r_low(self) -> np.ndarray:
        return self.metric.a_low - outer(self.metric.b_low, self.metric.b_low)

    @cached_property
    def eta(self) -> np.ndarray:
        eps = self.metric.frame.epsilon
        return self.r_low - eps * outer(self.v_low, self.v_low) / self.q2[..., None, None]

    @cached_property
    def sigma(self) -> float | np.ndarray:
        return np.einsum("...i,...i->...", self.metric.b_up, self.s_low)


def fiber_vectors(metric: MetricState, y: np.ndarray):
    """The fiber data before the convention sign (no admissibility
    requirement): returns (y_low, b, S^2, S^2 - b^2, v_low, v_up).  The
    fourth entry is S^2 - b^2 on either signature; kinematics multiplies it
    by eps = metric.frame.epsilon to get q^2.
    The metric and y broadcast over their leading axes: metrics built at
    complex x-rows (rows, B) against one y per sample (B, N), or a batch
    metric (B,) against complex y-rows (rows, B, N)."""
    y = np.asarray(y)
    y_low = np.einsum("...ij,...j->...i", metric.a_low, y)
    b = np.einsum("...i,...i->...", metric.b_low, y)
    s2 = np.einsum("...i,...i->...", y, y_low)
    q2 = s2 - b * b
    v_low = y_low - b[..., None] * metric.b_low
    v_up = y - b[..., None] * metric.b_up
    return y_low, b, s2, q2, v_low, v_up


def kinematics(metric: MetricState, y: np.ndarray, charge: float) -> FinsleroidState:
    """Assemble the Finsleroid state at (x, y), enforcing admissibility.

    Either side may be a stack (see fiber_vectors); every point of the
    stack must be admissible, and the error of an inadmissible stack marks
    its points in ``rows``; at a complex step the tests read the real part.
    The convention sign eps = metric.frame.epsilon enters here once: q^2 =
    eps (S^2 - b^2), and since dq/dy^k = eps v_k / q, the nu gradient is
    nu_k = eps v_k / q + (1 - c^2) g b_k.
    """
    y = np.asarray(y)
    eps = metric.frame.epsilon
    y_low, b, s2, transverse, v_low, v_up = fiber_vectors(metric, y)
    q2 = eps * transverse
    bad = np.real(q2) <= 0.0
    if np.any(bad):
        raise DegenerateFiberError(
            f"q^2 = {np.min(np.real(q2)):.3e} <= 0: no transverse norm for this fiber vector",
            rows=bad,
        )
    q = np.sqrt(q2)
    c = metric.c
    one_minus_c2 = 1.0 - c * c
    nu = q + charge * one_minus_c2 * b
    bad = np.real(nu) <= 0.0
    if np.any(bad):
        raise OutsideConeError(
            f"nu = {np.min(np.real(nu)):.3e} <= 0: fiber vector outside the cone", rows=bad
        )

    nu_low = eps * v_low / q[..., None] + (one_minus_c2 * charge)[..., None] * metric.b_low
    s_low = nabla_b_dot(metric, y)
    ys = np.einsum("...i,...i->...", y, s_low)
    return FinsleroidState(
        metric=metric,
        y=y,
        charge=float(charge),
        y_low=y_low,
        b=b,
        s2=s2,
        q2=q2,
        q=q,
        v_low=v_low,
        v_up=v_up,
        nu=nu,
        nu_low=nu_low,
        s_low=s_low,
        ys=ys,
    )


# ---------------------------------------------------------------------------
# Spray coefficients and their y-derivatives
# ---------------------------------------------------------------------------


def _spray_and_first(
    metric: MetricState, y: np.ndarray, charge: float
) -> tuple[np.ndarray, np.ndarray, FinsleroidState | None]:
    """The spray G^i, its closed y-derivative G^i_k and the kinematics state
    they came from (one evaluation, one a^i_km y^m); at charge 0 both are
    geodesic, need no admissible cone, and the state is None."""
    y = np.asarray(y)
    gamma_y = christoffel_dot(metric, y)
    base = matvec(gamma_y, y)
    if charge == 0.0:
        return base, 2.0 * gamma_y, None
    state = kinematics(metric, y, charge)
    weight = (state.charge / state.nu) * state.ys
    return weight[..., None] * state.v_up + base, _first_derivative(state, gamma_y), state


def _spray_stack(metric: MetricState, y: np.ndarray, charge: float) -> np.ndarray:
    """G^i followed by G^i_k row-major: the one field each complex step
    differentiates."""
    g, g_first, _ = _spray_and_first(metric, y, charge)
    return np.concatenate([g, g_first.reshape(g_first.shape[:-2] + (-1,))], axis=-1)


def spray_coefficients(metric: MetricState, y: np.ndarray, charge: float) -> np.ndarray:
    """G^i = (g/nu) (ys) v^i + a^i_km y^k y^m at (x, y); at charge 0 this is
    exactly the geodesic spray and needs no admissible cone."""
    return _spray_and_first(metric, y, charge)[0]


def _weight_gradient(state: FinsleroidState) -> np.ndarray:
    """Y_k = d((g/nu) (ys))/dy^k = -(g/nu^2) (ys) nu_k + 2 (g/nu) s_k, the
    y-gradient of the spray's weight on v^i, axes [k]."""
    g, nu, ys = state.charge, state.nu, state.ys
    return (-(g / nu**2) * ys)[..., None] * state.nu_low + (2.0 * (g / nu))[..., None] * state.s_low


def _first_derivative(state: FinsleroidState, gamma_y: np.ndarray) -> np.ndarray:
    """Closed first y-derivative, axes [i, k], given gamma_y = a^i_km y^m
    at the state:

    G^i_k = v^i Y_k + (g/nu) (ys) r^i_k + 2 a^i_km y^m

    with Y_k from _weight_gradient.
    """
    out = outer(state.v_up, _weight_gradient(state))
    out += ((state.charge / state.nu) * state.ys)[..., None, None] * state.r_mix
    out += 2.0 * gamma_y
    return out


def spray_y_second(state: FinsleroidState) -> np.ndarray:
    """Closed second y-derivative, axes [i, k, m]:

    G^i_km = v^i dY_k/dy^m + r^i_k Y_m + r^i_m Y_k + 2 a^i_km
           = v^i D_km + P^i_k Y_m + P^i_m Y_k + 2 a^i_km

    with Y_k from _weight_gradient, dv^i/dy^m = r^i_m, and

    dY_k/dy^m = D_km - (nu_k Y_m + Y_k nu_m) / nu,
    D_km = 2 (g/nu) nabla_k b_m - eps (g/(nu^2 q)) (ys) eta_km,
    P^i_k = r^i_k - v^i nu_k / nu.

    The eta term is d(nu_k)/dy^m = eps eta_km / q, with the convention
    sign eps = metric.frame.epsilon.  Exact under the symmetry of nabla b
    and constant charge (confirmed against the numeric second derivative
    and the exact symbolic one in the tests).
    """
    g, eps = state.charge, state.metric.frame.epsilon
    nu, q, ys = (v[..., None, None] for v in (state.nu, state.q, state.ys))
    d = (2.0 * g / nu) * state.metric.nb - (eps * g / (nu**2 * q)) * ys * state.eta
    p = state.r_mix - outer(state.v_up, state.nu_low) / nu
    p_y = p[..., :, :, None] * _weight_gradient(state)[..., None, None, :]  # P^i_k Y_m
    out = state.v_up[..., :, None, None] * d[..., None, :, :]
    out += p_y
    out += np.swapaxes(p_y, -1, -2)
    out += 2.0 * state.metric.gamma
    return out


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
) -> SprayDerivatives:
    """Both derivative routes at (x, y), or at each sample of a batch: a
    metric over B points with fiber vectors y (B, N).

    The closed G^i, G^i_k and G^i_km come from one kinematics evaluation.
    The first numeric derivative differentiates the spray itself; the
    second differentiates the independently verified closed first
    derivative, so each numeric derivative is a first one, by complex step.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    spray, first_closed, state = _spray_and_first(metric, y, charge)
    second_closed = 2.0 * metric.gamma if state is None else spray_y_second(state)
    # One complex step over [G^i, G^i_k], each sample's metric broadcast
    # over its rows; fd_partials puts the derivative index before the
    # components, so it moves last for G^i_k and G^i_km.
    d_stack = fd_partials(lambda ys: _spray_stack(metric, ys, charge), y)
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


def hh_curvature(derivs: SprayDerivatives) -> np.ndarray:
    """K^2 R^i_k, axes [i, k], at the point (or at each sample) of
    ``derivs``, assembled from its closed spray data and one complex x-step
    of [G^i, G^i_k].

    With Gbar = G/2 and y held fixed across the complex x-rows:

        K^2 R^i_k = 2 dGbar^i/dx^k - Gbar^i_j Gbar^j_k
                    - y^j dGbar^i_k/dx^j + 2 Gbar^j Gbar^i_kj

    Index lowering on the bundle, where wanted, uses the Riemannian metric
    a_ij (the Finsler metric tensor is out of scope).
    """
    metric, y, charge = derivs.metric, derivs.y, derivs.charge
    n = y.shape[-1]

    # One complex step over [G^i, G^i_k]: each row's metric is built once,
    # and each sample's y broadcasts over its rows.
    d_stack = fd_partials(
        lambda pts: _spray_stack(build_metric(metric.frame, metric.profiles, pts), y, charge),
        metric.x,
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
# Identity residuals (two-sided evaluations, complex-step y-derivatives)
# ---------------------------------------------------------------------------


def _e_fiber_rule(state: FinsleroidState) -> np.ndarray:
    """The closed e-fiber derivative, axes [k, j]:

        d(e_k)/dy^j = (b/q^2) eta_kj - v_k ((eps b/q^2) v_j - b_j) / q^2

    from e_k = (b/q^2) v_k - b_k, dv_k/dy^j = r_kj and dq^2/dy^j = 2 eps v_j;
    at eps = +1 the bracket is e_j itself."""
    q2 = state.q2[..., None, None]
    eps = state.metric.frame.epsilon
    factor = (eps * state.b / state.q2)[..., None] * state.v_low - state.metric.b_low
    return (state.b / state.q2)[..., None, None] * state.eta - outer(state.v_low, factor) / q2


def _fiber_partials(state: FinsleroidState):
    """The y-derivatives of nu, nu_k/nu and e_k by one complex step, axes
    [j] and [j, k] (d/dy^j first) after the state's sample axes.

    The three fields are rebuilt from fiber_vectors at the complex rows, not
    read from kinematics, so the nu_k that the identities judge is never
    the derivative's own source.  They are complex-analytic on the cone the
    base point is in, so the rows need no admissibility test.  The q^2 and
    the nu_k's v/q term carry the convention sign, as in kinematics.
    """
    ms = state.metric
    eps = ms.frame.epsilon
    gc = state.charge * (1.0 - ms.c**2)

    def fields(ys: np.ndarray) -> np.ndarray:
        _, b, _, transverse, v_low, _ = fiber_vectors(ms, ys)
        q2 = eps * transverse
        q = np.sqrt(q2)
        nu = q + gc * b
        ratio = (eps * v_low / q[..., None] + gc[..., None] * ms.b_low) / nu[..., None]
        e = (b / q2)[..., None] * v_low - ms.b_low
        return np.concatenate([nu[..., None], ratio, e], axis=-1)

    n = state.y.shape[-1]
    d = fd_partials(fields, state.y)
    return d[..., 0], d[..., 1 : n + 1], d[..., n + 1 :]


def kinematic_identity_residuals(state: FinsleroidState) -> dict[str, float | np.ndarray]:
    """Two-sided residuals of the printed kinematic identities, one per
    sample of the state (a float for one point).

    Derivative identities evaluate their left sides by one complex step of
    the fields rebuilt from the fiber vectors (roundoff only, no truncation),
    so every residual measures algebra:

      nu_gradient          nu_k = eps v_k/q + (1-c^2) g b_k  vs  d(nu)/dy^k
      nu_ratio_derivative  d(nu_k/nu)/dy^m = -nu_k nu_m/nu^2 + eps eta_km/(nu q)
      e_fiber_derivative   d(e_k)/dy^j = (b/q^2) eta_kj
                                         - v_k ((eps b/q^2) v_j - b_j) / q^2
      v_dot_s              v^m s_m = (ys) - b sigma
      v_projected          v^j r^i_j = v^i - (1-c^2) b b^i
      projector_square     r^j_m r^i_j = r^i_m - (1-c^2) b^i b_m
      v_norm               v_j v^j = eps q^2 - (1-c^2) b^2
      nu_dot_v             nu_j v^j = nu - (1-c^2)(eps b^2 + g c^2 b q)/q
      b_dot_v              b_j v^j = (1-c^2) b

    Here eps = metric.frame.epsilon is the convention sign: v_j v^j =
    S^2 - b^2 - (1-c^2) b^2 with S^2 - b^2 = eps q^2, and nu_dot_v follows
    from it with b_j v^j = (1-c^2) b.
    """
    ms = state.metric
    eps = ms.frame.epsilon
    c2 = ms.c**2
    one_minus_c2 = 1.0 - c2
    g = state.charge
    b, q, q2, nu = state.b, state.q, state.q2, state.nu

    res: dict[str, float | np.ndarray] = {}

    # The derivative identities: one complex step over all directions.
    nu_grad, ratio_d, e_d = _fiber_partials(state)  # ratio_d [m, k], e_d [j, k]

    res["nu_gradient"] = max_abs(state.nu_low - nu_grad, 1)

    ratio_rhs = (
        -outer(state.nu_low, state.nu_low) / (nu**2)[..., None, None]
        + eps * state.eta / (nu * q)[..., None, None]
    )  # [k, m]; symmetric in (k, m)
    res["nu_ratio_derivative"] = max_abs(ratio_d - np.swapaxes(ratio_rhs, -1, -2), 2)

    res["e_fiber_derivative"] = max_abs(e_d - np.swapaxes(_e_fiber_rule(state), -1, -2), 2)

    v_up, v_low, r_mix = state.v_up, state.v_low, state.r_mix
    res["v_dot_s"] = np.abs(dot(v_up, state.s_low) - (state.ys - b * state.sigma))
    res["v_projected"] = max_abs(
        matvec(r_mix, v_up) - (v_up - (one_minus_c2 * b)[..., None] * ms.b_up), 1
    )
    proj_sq = np.einsum("...ij,...jm->...im", r_mix, r_mix)
    res["projector_square"] = max_abs(
        proj_sq - (r_mix - one_minus_c2[..., None, None] * outer(ms.b_up, ms.b_low)), 2
    )
    res["v_norm"] = np.abs(dot(v_low, v_up) - (eps * q2 - one_minus_c2 * b**2))
    res["nu_dot_v"] = np.abs(
        dot(state.nu_low, v_up) - (nu - one_minus_c2 * (eps * b**2 + g * c2 * b * q) / q)
    )
    res["b_dot_v"] = np.abs(dot(ms.b_low, v_up) - one_minus_c2 * b)
    return res
