"""Spherically symmetric Riemannian geometry on a split background.

The chart carries a unit axis covector e_i and a rank-(N-1) transverse
block u_ij with e_ij = e_i e_j + eps u_ij.  The metric family is

    a_ij = b_i b_j / c(r)^2 + m(r) u_ij,        b_i = e_i,

with r = sqrt(u_ij x^i x^j).  Every derived object (covariant derivatives
of b and c, Christoffel symbols, Riemann and Ricci curvature) has a closed
form assembled here, each paired with a finite-difference oracle built from
nothing but the definition.  Each takes a state at one point or at a batch
of points (leading sample axes) and returns one result per sample.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .profiles import ProfilePair, RicciCoefficients, combo_scalars, ricci_coefficients
from .tensors import DiffConfig, dot, fd_partials, matvec, outer

_FRAME_TOL = 1e-9


class FrameError(ValueError):
    """The supplied frame data violates the background split identities."""


class RadialSingularityError(ValueError):
    """The radial coordinate vanishes; the metric family is singular there."""


@dataclass(frozen=True)
class Frame:
    """Background split e_ij = e_i e_j + eps u_ij in a concrete chart.

    ``epsilon`` is +1 for the positive-definite background and -1 for the
    relativistic one; it enters only through the raised transverse block.
    Derived arrays (background inverse, raised/mixed u, raised e) are
    precomputed and validated at construction.
    """

    n_dim: int
    epsilon: int
    e_low: np.ndarray
    u_low: np.ndarray

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
        u_mix = u @ u_up  # u_i^j with axes [lower i, upper j]
        object.__setattr__(self, "_bg", bg)
        object.__setattr__(self, "_bg_inv", bg_inv)
        object.__setattr__(self, "_e_up", e_up)
        object.__setattr__(self, "_u_up", u_up)
        object.__setattr__(self, "_u_mix", u_mix)

        eye = np.eye(self.n_dim)
        checks = {
            "e_i e^i = 1": abs(e @ e_up - 1.0),
            "e^i u_ij = 0": float(np.max(np.abs(e_up @ u))),
            "u^ij u_jn = delta - e^i e_n": float(
                np.max(np.abs(u_up @ u - (eye - np.outer(e_up, e))))
            ),
        }
        worst = max(checks.values())
        if worst > _FRAME_TOL:
            bad = ", ".join(f"{k} (residual {v:.2e})" for k, v in checks.items() if v > _FRAME_TOL)
            raise FrameError(f"frame identities violated: {bad}")
        if np.linalg.matrix_rank(u, tol=1e-10) != self.n_dim - 1:
            raise FrameError("transverse block must have rank N-1")
        if np.min(np.linalg.eigvalsh(u)) < -_FRAME_TOL:
            raise FrameError("transverse block must be positive semidefinite")

    @property
    def background(self) -> np.ndarray:
        return self._bg

    @property
    def background_inv(self) -> np.ndarray:
        return self._bg_inv

    @property
    def e_up(self) -> np.ndarray:
        return self._e_up

    @property
    def u_up(self) -> np.ndarray:
        return self._u_up

    @property
    def u_mix(self) -> np.ndarray:
        """u_i^j with axes [lower, upper]; equals delta_i^j - e_i e^j."""
        return self._u_mix

    @staticmethod
    def standard(n_dim: int, epsilon: int = -1) -> "Frame":
        """Axis along coordinate 0: e = (1, 0, ...), u = diag(0, 1, ..., 1)."""
        e = np.zeros(n_dim)
        e[0] = 1.0
        u = np.eye(n_dim)
        u[0, 0] = 0.0
        return Frame(n_dim, epsilon, e, u)

    def transformed(self, lin: np.ndarray) -> "Frame":
        """The same frame expressed in the chart x_new = lin @ x_old."""
        lin = np.asarray(lin, dtype=float)
        lin_inv = np.linalg.inv(lin)
        return Frame(
            self.n_dim,
            self.epsilon,
            self.e_low @ lin_inv,
            lin_inv.T @ self.u_low @ lin_inv,
        )

    def radius(self, x: np.ndarray) -> float | np.ndarray:
        """r = sqrt(u_ij x^i x^j) for a point or, row by row, a stack of points."""
        r2 = dot(x @ self.u_low, x)
        if np.any(r2 <= 0.0):
            raise RadialSingularityError(
                "radius vanishes (point on the axis); the metric family is singular at r = 0"
            )
        return np.sqrt(r2)


@dataclass(frozen=True)
class MetricState:
    """All point-local metric data at x: radius, radial covector, metric and
    inverse, axis covector/vector, and the profile jets at r.

    x may be one point (N,) or a stack of points (..., N); every array field
    then carries the same leading axes (scalars become arrays over them).
    Raised radial components use the background transverse block
    (n^i = u^ij n_j); the axis vector is metric-raised (b^i = a^ij b_j = c^2 e^i).
    States are immutable snapshots.  The closed Christoffel symbols and
    nabla b are computed on first use and kept, so each is built at most
    once per state (the sprays contract a^k_ij with y through christoffel_dot).
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
    a_up: np.ndarray
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
    def gamma(self) -> np.ndarray:
        """christoffel(self), computed once."""
        return christoffel(self)

    @cached_property
    def nb(self) -> np.ndarray:
        """nabla_b(self), computed once."""
        return nabla_b(self)

    def per_row(self) -> "MetricState":
        """The same state with a unit axis inserted after its sample axes, so
        that it broadcasts against each sample's stack of stencil rows
        without a copy per row; values already cached (Christoffel symbols,
        nabla b) come along as views."""
        at = np.ndim(self.r)
        return _combine([self], lambda values: np.expand_dims(values[0], at))


def take(state, rows):
    """The samples ``rows`` (an index, slice or mask over the leading axis)
    of a stacked MetricState or FinsleroidState: every per-point array,
    nested state and cached value is indexed, nothing is evaluated again."""
    return _combine([state], lambda values: values[0][rows])


def _combine(states: list, join):
    """A state of the kind of ``states[0]`` whose array fields, nested
    states and values cached on every state are ``join`` of the states'
    values; other fields (frame, profiles, charge, flags) come from the
    first state."""
    first = states[0]
    values = {}
    for f in dataclasses.fields(first):
        items = [getattr(s, f.name) for s in states]
        if isinstance(items[0], MetricState):
            values[f.name] = _combine(items, join)
        elif isinstance(items[0], (np.ndarray, np.generic)):
            values[f.name] = join(items)
        else:
            values[f.name] = items[0]
    out = type(first)(**values)
    for key in vars(first).keys() - values.keys():
        if all(key in vars(s) for s in states):
            vars(out)[key] = join([vars(s)[key] for s in states])
    return out


def build_metric(frame: Frame, profiles: ProfilePair, x: np.ndarray) -> MetricState:
    """Assemble the metric family at x, one point (N,) or a stack (..., N);
    the closed inverse is a^ij = b^i b^j / c^2 + u^ij / m, verified against
    a_ij a^jn = delta."""
    x = np.array(x, dtype=float)
    x = x.reshape(x.shape[:-1] + (frame.n_dim,))
    r = frame.radius(x)
    p = profiles.eval(r)
    c_sq, m = (p.c**2)[..., None, None], p.m[..., None, None]
    n_low = (x @ frame.u_low.T) / r[..., None]
    n_up = n_low @ frame.u_up.T
    b_low = np.empty_like(x)
    b_low[...] = frame.e_low
    b_up = (p.c**2)[..., None] * frame.e_up
    a_low = outer(b_low, b_low) / c_sq + m * frame.u_low
    a_up = outer(b_up, b_up) / c_sq + frame.u_up / m
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
        a_up=a_up,
        c=p.c,
        c1=p.c1,
        c2=p.c2,
        m=p.m,
        m1=p.m1,
        m2=p.m2,
    )


# ---------------------------------------------------------------------------
# Covariant derivatives of the axis covector and of c
# ---------------------------------------------------------------------------


def nabla_b(state: MetricState) -> np.ndarray:
    """Closed form nabla_i b_j = (c_i b_j + c_j b_i) / c; symmetric, m-free."""
    ci = state.dc_low
    return (outer(ci, state.b_low) + outer(state.b_low, ci)) / state.c[..., None, None]


def nabla_b_definitional(state: MetricState, config: DiffConfig | None = None) -> np.ndarray:
    """Oracle: nabla_i b_j = d b_j / d x^i - b_n Gamma^n_ij with
    finite-difference partials and definitional Christoffel symbols."""
    cfg = config or DiffConfig()

    def b_field(pts: np.ndarray) -> np.ndarray:
        return build_metric(state.frame, state.profiles, pts).b_low

    db = fd_partials(b_field, state.x, cfg, scales=state.r[..., None])  # [i, j] = d_i b_j
    gamma = christoffel_definitional(state, cfg)
    return db - np.einsum("...n,...nij->...ij", state.b_low, gamma)


def nabla_c(state: MetricState) -> np.ndarray:
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


def nabla_c_definitional(state: MetricState, config: DiffConfig | None = None) -> np.ndarray:
    """Oracle: nabla_i c_j = d c_j / d x^i - c_n Gamma^n_ij, all numeric."""
    cfg = config or DiffConfig()

    def c_field(pts: np.ndarray) -> np.ndarray:
        return build_metric(state.frame, state.profiles, pts).dc_low

    dc = fd_partials(c_field, state.x, cfg, scales=state.r[..., None])
    gamma = christoffel_definitional(state, cfg)
    return dc - np.einsum("...n,...nij->...ij", state.dc_low, gamma)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def _christoffel_blocks(state: MetricState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rank-one blocks (P, Q, w) of the closed Christoffel symbols

    a^k_ij = b^k P_ij + n^k Q_ij + w (n_i u_j^k + n_j u_i^k),
    P_ij = -(c'/c^3)(n_i b_j + n_j b_i),  Q_ij = ((2c'/c^3) b_i b_j - m' u_ij) / 2m,  w = m'/2m.
    """
    n, b, u = state.n_low, state.b_low, state.frame.u_low
    c, c1, m, m1 = (v[..., None, None] for v in (state.c, state.c1, state.m, state.m1))
    slope = c1 / c**3
    nb = outer(n, b)
    p = -slope * (nb + np.swapaxes(nb, -1, -2))
    q = (2.0 * slope * outer(b, b) - m1 * u) / (2.0 * m)
    return p, q, state.m1 / (2.0 * state.m)


def christoffel(state: MetricState) -> np.ndarray:
    """Closed Christoffel symbols of the family, axes [k, i, j] for a^k_ij,
    assembled from the blocks of _christoffel_blocks."""
    p, q, w = _christoffel_blocks(state)
    # Summed in place: the curvature oracle's stencil rows hold this N^3 array.
    out = state.b_up[..., :, None, None] * p[..., None, :, :]
    out += state.n_up[..., :, None, None] * q[..., None, :, :]
    # wnu[k, i, j] = w n_i u_j^k
    wnu = (w[..., None] * state.n_low)[..., None, :, None] * state.frame.u_mix.T[:, None, :]
    out += wnu + np.swapaxes(wnu, -1, -2)
    return out


def christoffel_dot(state: MetricState, y: np.ndarray) -> np.ndarray:
    """a^k_ij y^j, axes [k, i], from the blocks without building a^k_ij.

    The state and y broadcast against each other over their leading axes:
    a per_row() metric against each sample's stack of fiber vectors, or a
    stack of stencil metrics against each sample's one fiber vector.
    """
    p, q, w = _christoffel_blocks(state)
    u_mix = state.frame.u_mix
    ny = dot(state.n_low, y)
    return (
        outer(state.b_up, matvec(p, y))
        + outer(state.n_up, matvec(q, y))
        + w[..., None, None] * (outer(y @ u_mix, state.n_low) + ny[..., None, None] * u_mix.T)
    )


def christoffel_definitional(state: MetricState, config: DiffConfig | None = None) -> np.ndarray:
    """Oracle: (1/2) a^kn (d_i a_nj + d_j a_ni - d_n a_ij) with numeric
    metric derivatives."""
    cfg = config or DiffConfig()

    def metric_field(pts: np.ndarray) -> np.ndarray:
        return build_metric(state.frame, state.profiles, pts).a_low

    da = fd_partials(metric_field, state.x, cfg, scales=state.r[..., None])  # [n, i, j] = d_n a_ij
    # combo[i, n, j] = d_i a_nj + d_j a_ni - d_n a_ij
    combo = da + np.einsum("...jni->...inj", da) - np.swapaxes(da, -3, -2)
    return 0.5 * np.einsum("...kn,...inj->...kij", state.a_up, combo)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


def _curvature_blocks(state: MetricState):
    """The four index blocks of the curvature closed form, axes [n, i, k, m]
    after the state's sample axes (t_uu, built from the frame alone, has none)."""
    n, n_up = state.n_low, state.n_up
    b, b_up = state.b_low, state.b_up
    u, u_mix = state.frame.u_low, state.frame.u_mix
    inv_m = (1.0 / state.m)[..., None, None, None, None]

    anti_nb = outer(n, b) - outer(b, n)  # [k, m] = n_k b_m - n_m b_k
    t_uu = np.einsum("mn,ki->nikm", u, u_mix) - np.einsum("kn,mi->nikm", u, u_mix)
    t_nb = np.einsum("...n,...km,...i->...nikm", n, anti_nb, b_up) - inv_m * np.einsum(
        "...n,...km,...i->...nikm", b, anti_nb, n_up
    )
    t_nu = (
        np.einsum("...n,...m,ki->...nikm", n, n, u_mix)
        - np.einsum("...n,...k,mi->...nikm", n, n, u_mix)
        - np.einsum("...m,nk,...i->...nikm", n, u, n_up)
        + np.einsum("...k,nm,...i->...nikm", n, u, n_up)
    )
    t_bu = (
        inv_m
        * (
            np.einsum("...n,...m,ki->...nikm", b, b, u_mix)
            - np.einsum("...n,...k,mi->...nikm", b, b, u_mix)
        )
        - np.einsum("...m,nk,...i->...nikm", b, u, b_up)
        + np.einsum("...k,nm,...i->...nikm", b, u, b_up)
    )
    return t_uu, t_nb, t_nu, t_bu


def _block_scalars(state: MetricState):
    """Scalar weights of the four blocks, (m_slope, mixed, m_curv/2,
    cross/c^2), each with four unit axes to scale a block."""
    s = combo_scalars(state, state.r)
    weights = (s.m_slope, s.mixed, 0.5 * s.m_curv, s.cross / state.c**2)
    return tuple(w[..., None, None, None, None] for w in weights)


def curvature_closed(state: MetricState) -> np.ndarray:
    """Closed-form curvature tensor a_n^i_km, axes [n, i, k, m].

    Five-block form with the pure-u block rewritten through
    m u_mn = a_mn - b_m b_n / c^2 and u_i^k = delta_i^k - b_i b^k / c^2;
    the remaining blocks keep their u/n/b structure.  Algebraically equal
    to the pre-substitution four-block sum (asserted in tests) and to the
    finite-difference oracle.
    """
    _, t_nb, t_nu, t_bu = _curvature_blocks(state)
    m_slope, mixed, m_curv_half, cross_c = _block_scalars(state)
    a, b, b_up = state.a_low, state.b_low, state.b_up
    m, c = (v[..., None, None, None, None] for v in (state.m, state.c))
    eye = np.eye(state.frame.n_dim)

    block_a = np.einsum("...mn,ki->...nikm", a, eye) - np.einsum("...kn,mi->...nikm", a, eye)
    block_ab = np.einsum("...mn,...k,...i->...nikm", a, b, b_up) - np.einsum(
        "...kn,...m,...i->...nikm", a, b, b_up
    )
    block_bb = np.einsum("...m,...n,ki->...nikm", b, b, eye) - np.einsum(
        "...k,...n,mi->...nikm", b, b, eye
    )
    return (
        -(m_slope / m) * block_a
        + (m_slope / (c**2 * m)) * (block_ab + block_bb)
        - (mixed / c**2) * t_nb
        - m_curv_half * t_nu
        + cross_c * t_bu
    )


def curvature_presubstitution(state: MetricState) -> np.ndarray:
    """The equivalent four-block curvature form kept in u/n/b variables."""
    t_uu, t_nb, t_nu, t_bu = _curvature_blocks(state)
    m_slope, mixed, m_curv_half, cross_c = _block_scalars(state)
    c2 = (state.c**2)[..., None, None, None, None]
    return -m_slope * t_uu - (mixed / c2) * t_nb - m_curv_half * t_nu + cross_c * t_bu


def curvature_fd_oracle(state: MetricState, config: DiffConfig | None = None) -> np.ndarray:
    """Definitional curvature oracle, axes [n, i, k, m]:

    a_n^i_km = d_k a^i_nm - d_m a^i_nk + a^u_nm a^i_uk - a^u_nk a^i_um

    with the partials taken by central differences over the closed-form
    Christoffel field.
    """
    cfg = config or DiffConfig()

    def gamma_field(pts: np.ndarray) -> np.ndarray:
        return christoffel(build_metric(state.frame, state.profiles, pts))

    dgamma = fd_partials(gamma_field, state.x, cfg, scales=state.r[..., None])  # [d, k, i, j]
    gamma = state.gamma
    return (
        np.einsum("...kinm->...nikm", dgamma)
        - np.einsum("...mink->...nikm", dgamma)
        + np.einsum("...unm,...iuk->...nikm", gamma, gamma)
        - np.einsum("...unk,...ium->...nikm", gamma, gamma)
    )


def ricci_from_curvature(curvature: np.ndarray) -> np.ndarray:
    """Contract the upper index with the first derivative index: a_n^i_im."""
    return np.trace(curvature, axis1=-3, axis2=-2)


def ricci_closed(state: MetricState) -> tuple[np.ndarray, RicciCoefficients]:
    """Decomposed Ricci tensor

        a_n^i_im = u_term * u_nm + bb_term * b_n b_m / (c^2 m) + nn_term * n_n n_m

    returned together with its three scalar coefficients."""
    coeffs = ricci_coefficients(state, state.r, state.frame.n_dim)
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
