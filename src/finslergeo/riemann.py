"""Spherically symmetric Riemannian geometry on a split background.

The chart carries a unit axis covector e_i and a rank-(N-1) transverse
block u_ij with e_ij = e_i e_j + eps u_ij.  The metric family is

    a_ij = b_i b_j / c(r)^2 + m(r) u_ij,        b_i = e_i,

with r = sqrt(u_ij x^i x^j).  Every derived object (the covariant
derivative of b, Christoffel symbols, Riemann and Ricci curvature) has a closed
form assembled here; the Christoffel symbols and the curvature are each
paired with a complex-step oracle built from nothing but the definition.
Each takes a state at one point or at a batch of points (leading sample
axes) and returns one result per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .profiles import ProfilePair
from .tensors import dot, fd_partials, matvec, outer

_FRAME_TOL = 1e-9


class FrameError(ValueError):
    """The supplied frame data violates the background split identities."""


class RadialSingularityError(ValueError):
    """The radial coordinate vanishes; the metric family is singular there."""


@dataclass(frozen=True, eq=False)
class Frame:
    """Background split e_ij = e_i e_j + eps u_ij in a concrete chart.

    ``epsilon`` is +1 for the positive-definite background and -1 for the
    Lorentzian one; it enters the Riemannian layer only through the raised
    transverse block, and it is the Finsleroid convention sign (finsler.py).
    Derived arrays (background inverse, raised/mixed u, raised e) are
    precomputed and validated at construction; every array is read-only.
    Frames compare and hash by identity.
    """

    n_dim: int
    epsilon: int
    e_low: np.ndarray
    u_low: np.ndarray
    background: np.ndarray = field(init=False, repr=False, compare=False)
    background_inv: np.ndarray = field(init=False, repr=False, compare=False)
    e_up: np.ndarray = field(init=False, repr=False, compare=False)
    u_up: np.ndarray = field(init=False, repr=False, compare=False)
    # u_i^j with axes [lower, upper]; equals delta_i^j - e_i e^j.
    u_mix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.epsilon not in (1, -1):
            raise FrameError(f"epsilon must be +1 or -1, got {self.epsilon}")
        if not 2 <= self.n_dim <= 8:
            raise FrameError(f"dimension must be in [2, 8], got {self.n_dim}")
        e = np.array(self.e_low, dtype=float).reshape(self.n_dim)
        u = np.array(self.u_low, dtype=float).reshape(self.n_dim, self.n_dim)
        object.__setattr__(self, "e_low", e)
        object.__setattr__(self, "u_low", u)

        bg = np.outer(e, e) + self.epsilon * u
        try:
            bg_inv = np.linalg.inv(bg)
        except np.linalg.LinAlgError as exc:
            raise FrameError("background split e_i e_j + eps u_ij is not invertible") from exc
        e_up = bg_inv @ e
        u_up = bg_inv @ u @ bg_inv
        u_mix = u @ u_up
        object.__setattr__(self, "background", bg)
        object.__setattr__(self, "background_inv", bg_inv)
        object.__setattr__(self, "e_up", e_up)
        object.__setattr__(self, "u_up", u_up)
        object.__setattr__(self, "u_mix", u_mix)
        for arr in (e, u, bg, bg_inv, e_up, u_up, u_mix):
            arr.flags.writeable = False

        eye = np.eye(self.n_dim)
        identities = {
            "axis_normalisation": abs(e @ e_up - 1.0),  # e_i e^i = 1
            "axis_transversality": float(np.max(np.abs(e_up @ u))),  # e^i u_ij = 0
            # u^ij u_jn = delta - e^i e_n, and u_i^j = delta - e_i e^j
            "transverse_inverse": float(np.max(np.abs(u_up @ u - (eye - np.outer(e_up, e))))),
            "transverse_mixed": float(np.max(np.abs(u_mix - (eye - np.outer(e, e_up))))),
        }
        object.__setattr__(self, "_identities", identities)
        bad = [f"{k} (residual {v:.2e})" for k, v in identities.items() if v > _FRAME_TOL]
        if bad:
            raise FrameError(f"frame identities violated: {', '.join(bad)}")
        if np.linalg.matrix_rank(u, tol=1e-10) != self.n_dim - 1:
            raise FrameError("transverse block must have rank N-1")
        if np.min(np.linalg.eigvalsh(u)) < -_FRAME_TOL:
            raise FrameError("transverse block must be positive semidefinite")

    @property
    def identities(self) -> dict[str, float]:
        """Residuals of the split identities by name, computed and validated
        at construction; they do not depend on the point."""
        return dict(self._identities)

    @staticmethod
    def standard(n_dim: int, epsilon: int = -1) -> "Frame":
        """e = (1, 0, ...), u = diag(0, 1, ..., 1); one shared frame per (n_dim, epsilon)."""
        return _standard_frame(n_dim, epsilon)

    def radius(self, x: np.ndarray) -> float | np.ndarray:
        """r = sqrt(u_ij x^i x^j) for a point or, each row as alone, a stack of
        points (complex at a complex step, whose real part is tested)."""
        r2 = dot(matvec(self.u_low.T, x), x)
        if np.any(np.real(r2) <= 0.0):
            raise RadialSingularityError(
                "radius vanishes (point on the axis); the metric family is singular at r = 0"
            )
        return np.sqrt(r2)


@lru_cache(maxsize=None)
def _standard_frame(n_dim: int, epsilon: int) -> Frame:
    u = np.eye(n_dim)
    u[0, 0] = 0.0
    return Frame(n_dim, epsilon, np.eye(n_dim)[0], u)


@dataclass(frozen=True)
class MetricState:
    """All point-local metric data at x: radius, radial covector, metric and
    inverse, axis covector/vector, and the six profile scalars c, c', c'',
    m, m', m'' at r (the profile values and their r-derivatives).

    x may be one point (N,) or a stack of points (..., N); every array field
    then carries the same leading axes (scalars become arrays over them).
    Raised radial components use the background transverse block
    (n^i = u^ij n_j); the axis vector is metric-raised (b^i = a^ij b_j = c^2 e^i).
    States are immutable snapshots.  The inverse metric, the closed
    Christoffel symbols and nabla b are computed on first use and kept, so
    each is built at most once per state and never at a complex row of a spray
    (the sprays contract a^k_ij and nabla b with y through
    christoffel_quadratic, christoffel_dot and nabla_b_dot).
    """

    frame: Frame
    profiles: ProfilePair
    x: np.ndarray
    r: float | np.ndarray
    n_low: np.ndarray
    n_up: np.ndarray
    b_low: np.ndarray
    b_up: np.ndarray
    a_low: np.ndarray
    c: float | np.ndarray
    c1: float | np.ndarray
    c2: float | np.ndarray
    m: float | np.ndarray
    m1: float | np.ndarray
    m2: float | np.ndarray

    @property
    def dc_low(self) -> np.ndarray:
        """Gradient covector of c: c_i = c'(r) n_i."""
        return self.c1[..., None] * self.n_low

    @cached_property
    def a_up(self) -> np.ndarray:
        """The closed inverse metric a^ij = b^i b^j / c^2 + u^ij / m, computed once."""
        c_sq, m = (v[..., None, None] for v in (self.c**2, self.m))
        return outer(self.b_up, self.b_up) / c_sq + self.frame.u_up / m

    @cached_property
    def gamma(self) -> np.ndarray:
        """christoffel(self), computed once."""
        return christoffel(self)

    @cached_property
    def nb(self) -> np.ndarray:
        """nabla_b(self), computed once."""
        return nabla_b(self)


def build_metric(frame: Frame, profiles: ProfilePair, x: np.ndarray) -> MetricState:
    """Assemble the metric family at x, one point (N,) or a stack (..., N)
    whose every row is bit for bit its point alone.  Only frame-identities'
    metric_inverse judges the closed inverse MetricState.a_up (built on
    first use).  A complex x (a complex step) gives a complex state."""
    x = np.asarray(x)
    x = x.astype(np.promote_types(x.dtype, float)).reshape(x.shape[:-1] + (frame.n_dim,))
    r = frame.radius(x)
    (c, c1, c2), (m, m1, m2) = profiles.jets(r)
    n_low = matvec(frame.u_low, x) / r[..., None]
    n_up = matvec(frame.u_up, n_low)
    b_low = np.empty_like(x)
    b_low[...] = frame.e_low
    b_up = (c**2)[..., None] * frame.e_up
    a_low = outer(b_low, b_low) / (c**2)[..., None, None] + m[..., None, None] * frame.u_low
    return MetricState(
        frame=frame,
        profiles=profiles,
        x=x,
        r=r,
        n_low=n_low,
        n_up=n_up,
        b_low=b_low,
        b_up=b_up,
        a_low=a_low,
        c=c,
        c1=c1,
        c2=c2,
        m=m,
        m1=m1,
        m2=m2,
    )


# ---------------------------------------------------------------------------
# Covariant derivative of the axis covector
# ---------------------------------------------------------------------------


def nabla_b(state: MetricState) -> np.ndarray:
    """Closed form nabla_i b_j = (c_i b_j + c_j b_i) / c; symmetric, m-free."""
    ci = state.dc_low
    return (outer(ci, state.b_low) + outer(state.b_low, ci)) / state.c[..., None, None]


def nabla_b_dot(state: MetricState, y: np.ndarray) -> np.ndarray:
    """nabla_k b_h y^h = (c_k (b.y) + b_k (c.y)) / c, axes [k], in O(N)
    without building nabla b; state and y broadcast over their leading axes
    as in christoffel_dot (a batch metric against rows of fiber vectors)."""
    ci, b = state.dc_low, state.b_low
    return (ci * dot(b, y)[..., None] + b * dot(ci, y)[..., None]) / state.c[..., None]


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def _christoffel_blocks(state: MetricState, y: np.ndarray | None = None):
    """The rank-one blocks (P, Q, w) of the closed Christoffel symbols

    a^k_ij = b^k P_ij + n^k Q_ij + w (n_i u_j^k + n_j u_i^k),
    P_ij = -(c'/c^3)(n_i b_j + n_j b_i),  Q_ij = ((2c'/c^3) b_i b_j - m' u_ij) / 2m,  w = m'/2m;

    given y, P and Q come contracted with it, (P_ij y^j, Q_ij y^j, w).
    """
    n, b, u = state.n_low, state.b_low, state.frame.u_low
    if y is None:
        pair, axes = outer, (None, None)  # pair(l, r)_ij = l_i r_j
    else:
        def pair(left, right):  # l_i r_j y^j
            return left * dot(right, y)[..., None]

        u, axes = matvec(u, y), (None,)
    slope, m, m1 = (v[(...,) + axes] for v in (state.c1 / state.c**3, state.m, state.m1))
    p = -slope * (pair(n, b) + pair(b, n))
    q = (2.0 * slope * pair(b, b) - m1 * u) / (2.0 * m)
    return p, q, state.m1 / (2.0 * state.m)


def christoffel(state: MetricState) -> np.ndarray:
    """Closed Christoffel symbols of the family, axes [k, i, j] for a^k_ij,
    assembled from the blocks of _christoffel_blocks."""
    p, q, w = _christoffel_blocks(state)
    # Summed in place: one N^3 array per point, or per complex row where
    # curvature_fd_oracle differentiates it.
    out = state.b_up[..., :, None, None] * p[..., None, :, :]
    out += state.n_up[..., :, None, None] * q[..., None, :, :]
    # wnu[k, i, j] = w n_i u_j^k
    wnu = (w[..., None] * state.n_low)[..., None, :, None] * state.frame.u_mix.T[:, None, :]
    out += wnu + np.swapaxes(wnu, -1, -2)
    return out


def christoffel_dot(state: MetricState, y: np.ndarray) -> np.ndarray:
    """a^k_ij y^j, axes [k, i], from the blocks contracted with y, without
    building a^k_ij or the N x N blocks.

    The state and y broadcast against each other over their leading axes,
    as NumPy broadcasts: a batch metric (B,) against fiber vectors on the
    complex rows (rows, B, N), or metrics built at the complex rows
    (rows, B) against one fiber vector per sample (B, N).
    """
    py, qy, w = _christoffel_blocks(state, y)
    u_mix = state.frame.u_mix
    wn = w[..., None] * state.n_low
    out = outer(state.b_up, py)
    out += outer(state.n_up, qy)
    out += outer(y @ u_mix, wn)
    out += dot(wn, y)[..., None, None] * u_mix.T
    return out


def christoffel_quadratic(state: MetricState, y: np.ndarray) -> np.ndarray:
    """a^k_ij y^i y^j, axes [k], from the blocks contracted with y, in O(N)
    per point without building an N x N array; state and y broadcast as in
    christoffel_dot.  It is the geodesic spray, the part of G^i that needs no
    G^i_k."""
    py, qy, w = _christoffel_blocks(state, y)
    out = state.b_up * dot(y, py)[..., None]
    out += state.n_up * dot(y, qy)[..., None]
    out += (2.0 * w * dot(state.n_low, y))[..., None] * (y @ state.frame.u_mix)
    return out


def christoffel_definitional(state: MetricState) -> np.ndarray:
    """Oracle: (1/2) a^kn (d_i a_nj + d_j a_ni - d_n a_ij) with complex-step
    metric derivatives."""

    def metric_field(pts: np.ndarray) -> np.ndarray:
        return build_metric(state.frame, state.profiles, pts).a_low

    da = fd_partials(metric_field, state.x)  # [n, i, j] = d_n a_ij
    # combo[i, n, j] = d_i a_nj + d_j a_ni - d_n a_ij
    combo = da + np.einsum("...jni->...inj", da) - np.swapaxes(da, -3, -2)
    return 0.5 * np.einsum("...kn,...inj->...kij", state.a_up, combo)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComboScalars:
    """The four recurring scalar combinations the curvature assembles from,
    and the mixed one built on c_curv:

    c_curv  = c''/c - 2 (c'/c)^2 - c'/(r c)
    m_curv  = (1/m) (m'' - m'/r - (3/2) m'^2 / m)
    m_slope = (m'/m) ((1/4) m'/m + 1/r)
    cross   = (1/2) (c'/c) (m'/m + 2/r)
    mixed   = c_curv - (c'/c)(m'/m)
    """

    c_curv: float
    m_curv: float
    m_slope: float
    cross: float
    mixed: float


@dataclass(frozen=True)
class RicciCoefficients:
    """Coefficients of the Ricci decomposition over {u_nm, b_n b_m / (c^2 m), n_n n_m}."""

    u_term: float
    bb_term: float
    nn_term: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.u_term, self.bb_term, self.nn_term)


def combo_scalars(state: MetricState) -> ComboScalars:
    """The scalar combinations of the state's six profile scalars at its
    radius, the one home of the curvature's and the Ricci decomposition's
    scalar weights; each is shaped like state.r."""
    s, r = state, state.r
    c_over = s.c1 / s.c
    m_over = s.m1 / s.m
    c_curv = s.c2 / s.c - 2.0 * c_over**2 - c_over / r
    return ComboScalars(
        c_curv=c_curv,
        m_curv=(s.m2 - s.m1 / r - 1.5 * s.m1**2 / s.m) / s.m,
        m_slope=m_over * (0.25 * m_over + 1.0 / r),
        cross=0.5 * c_over * (m_over + 2.0 / r),
        mixed=c_curv - c_over * m_over,
    )


def _curvature_pairs(state: MetricState, substituted: bool = True):
    """The (L, M) pairs of the closed curvature, the one home of its blocks:

        a_n^i_km = sum over pairs of L_nm M_k^i - L_nk M_m^i,

    L with axes [n, m], M with axes [lower k, upper i], the scalar weights
    folded into M and the pairs grouped by L.  The four pairs of the
    presubstituted form (L = u, b b, n b, n n) keep the u/n/b structure;
    the substituted form (``substituted``, curvature_closed's) rewrites its
    pure-u block through m u_mn = a_mn - b_m b_n / c^2 and
    u_k^i = delta_k^i - b_k b^i / c^2, which adds the pair L = a.
    """
    n, b = state.n_low, state.b_low
    u, u_mix = state.frame.u_low, state.frame.u_mix
    s = combo_scalars(state)
    m_slope, mixed, m_curv_half, cross, m, c2 = (
        v[..., None, None] for v in (s.m_slope, s.mixed, 0.5 * s.m_curv, s.cross, state.m, state.c**2)
    )
    mixed_c, cross_c = mixed / c2, cross / c2
    bb, nn = outer(b, b), outer(n, n)
    bb_up, nn_up = outer(b, state.b_up), outer(n, state.n_up)
    bb_pair = (mixed_c * nn_up + cross_c * u_mix) / m
    u_pair = cross_c * bb_up - m_curv_half * nn_up
    common = ((outer(n, b), -mixed_c * outer(n, state.b_up)), (nn, -m_curv_half * u_mix))
    if not substituted:
        return ((u, u_pair - m_slope * u_mix), (bb, bb_pair)) + common
    slope_m = m_slope / m
    eye = np.eye(state.frame.n_dim)
    return (
        (state.a_low, slope_m * (bb_up / c2 - eye)),
        (bb, bb_pair + (slope_m / c2) * eye),
        (u, u_pair),
    ) + common


def _stacked(pairs):
    """The pairs' L and M factors, broadcast to one shape and stacked on a
    pair axis before the two component axes: ([..., t, n, m], [..., t, k, i])."""
    factors = np.broadcast_arrays(*(f for pair in pairs for f in pair))
    return np.stack(factors[0::2], axis=-3), np.stack(factors[1::2], axis=-3)


def _pair_sum(pairs) -> np.ndarray:
    """sum over pairs of L_nm M_k^i - L_nk M_m^i, axes [n, i, k, m]: one
    stacked (N^2 x T) @ (T x N^2) matmul over the T pairs, then the
    difference with its (k, m) transpose."""
    left, right = _stacked(pairs)
    *lead, t, n, _ = left.shape
    x = np.swapaxes(left.reshape(*lead, t, n * n), -1, -2) @ right.reshape(*lead, t, n * n)
    x = np.einsum("...nmki->...nikm", x.reshape(*lead, n, n, n, n))
    return x - np.swapaxes(x, -1, -2)


def _pair_dot(pairs, y: np.ndarray) -> np.ndarray:
    """_pair_sum(pairs) contracted with y^n y^m, axes [i, k], in O(T N^2)
    per point: sum over pairs of (y L y) M_k^i - (y M)^i (y L)_k.  The
    pairs and y broadcast over their leading axes."""
    left, right = _stacked(pairs)
    y_row = y[..., None, None, :]
    yl, ym = (y_row @ left)[..., 0, :], (y_row @ right)[..., 0, :]  # [t, k], [t, i]
    yly = dot(yl, y[..., None, :])  # [t]
    return np.einsum("...t,...tki->...ik", yly, right) - np.swapaxes(ym, -1, -2) @ yl


def curvature_closed(state: MetricState) -> np.ndarray:
    """Closed-form curvature tensor a_n^i_km, axes [n, i, k, m], from the
    five pairs of _curvature_pairs (the pure-u block rewritten through a_mn
    and delta).  Algebraically equal to the presubstituted four-pair sum
    (asserted in tests) and to curvature_fd_oracle."""
    return _pair_sum(_curvature_pairs(state))


def curvature_dot(state: MetricState, y: np.ndarray) -> np.ndarray:
    """R^i_k = a_n^i_km y^n y^m, axes [i, k], from curvature_closed's pairs
    contracted with y, in O(N^2) per point without building the N^4 tensor;
    state and y broadcast over their leading axes as in christoffel_dot."""
    return _pair_dot(_curvature_pairs(state), y)


def curvature_presubstitution(state: MetricState) -> np.ndarray:
    """The equivalent four-pair curvature form kept in u/n/b variables."""
    return _pair_sum(_curvature_pairs(state, substituted=False))


def _gamma_products(gamma: np.ndarray) -> np.ndarray:
    """a^u_nm a^i_uk, axes [n, i, k, m], from Christoffel symbols with axes
    [k, i, j]: one stacked (N^2 x N) @ (N x N^2) matmul over u."""
    *lead, n, _, _ = gamma.shape
    left = np.moveaxis(gamma, -3, -1).reshape(*lead, n * n, n)  # [(n, m), u]
    right = np.swapaxes(gamma, -3, -2).reshape(*lead, n, n * n)  # [u, (i, k)]
    return np.einsum("...nmik->...nikm", (left @ right).reshape(*lead, n, n, n, n))


def curvature_fd_oracle(state: MetricState) -> np.ndarray:
    """Definitional curvature oracle, axes [n, i, k, m]:

    a_n^i_km = d_k a^i_nm - d_m a^i_nk + a^u_nm a^i_uk - a^u_nk a^i_um

    with the partials by complex step of the closed Christoffel field and
    the products from _gamma_products.  Nothing here reads the curvature's
    pairs.
    """

    def gamma_field(pts: np.ndarray) -> np.ndarray:
        return christoffel(build_metric(state.frame, state.profiles, pts))

    dgamma = fd_partials(gamma_field, state.x)  # [k, i, n, m] = d_k a^i_nm
    # half[n, i, k, m] = d_k a^i_nm + a^u_nm a^i_uk; the rest is its (k, m) transpose
    half = np.einsum("...kinm->...nikm", dgamma) + _gamma_products(state.gamma)
    return half - np.swapaxes(half, -1, -2)


def ricci_from_curvature(curvature: np.ndarray) -> np.ndarray:
    """Contract the upper index with the first derivative index: a_n^i_im."""
    return np.trace(curvature, axis1=-3, axis2=-2)


def ricci_closed(state: MetricState) -> tuple[np.ndarray, RicciCoefficients]:
    """Decomposed Ricci tensor

        a_n^i_im = u_term * u_nm + bb_term * b_n b_m / (c^2 m) + nn_term * n_n n_m

    returned together with its three scalar coefficients.  In dimension N,
    with A = c_curv, B = m_curv, C = m_slope, D = cross and the mixed
    combination Y = A - (c'/c)(m'/m) of combo_scalars:

        u_term  = -(N-2) C - B/2 + D
        bb_term = Y + (N-1) D
        nn_term = Y - (N-3) B/2

    All three vanish identically for the isotropic Schwarzschild pair at
    N = 4, which is the vacuum property.
    """
    s, n_dim = combo_scalars(state), state.frame.n_dim
    coeffs = RicciCoefficients(
        u_term=-(n_dim - 2) * s.m_slope - 0.5 * s.m_curv + s.cross,
        bb_term=s.mixed + (n_dim - 1) * s.cross,
        nn_term=s.mixed - (n_dim - 3) * 0.5 * s.m_curv,
    )
    u_term, bb_term, nn_term = (
        v[..., None, None]
        for v in (coeffs.u_term, coeffs.bb_term / (state.c**2 * state.m), coeffs.nn_term)
    )
    ric = (
        u_term * state.frame.u_low
        + bb_term * outer(state.b_low, state.b_low)
        + nn_term * outer(state.n_low, state.n_low)
    )
    return ric, coeffs
