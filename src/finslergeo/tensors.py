"""Small dense-array helpers plus two independent differentiation engines:
second-order Taylor jets (analytic chain rule) and central finite
differences.  The two engines are used as mutual oracles throughout the
geometry code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Default tolerance per check class.  Rationale: error budgets differ by
# provenance (pure algebra vs closed-form assembly vs finite differences vs
# doubly-stencilled curvature bundles).
TOLERANCE_CLASSES: dict[str, float] = {
    "exact": 1e-12,
    "algebraic": 1e-10,
    "closed_form": 1e-8,
    "finite_difference": 1e-6,
    "bundle": 1e-5,
}


class StencilError(RuntimeError):
    """A finite-difference stencil produced a non-finite evaluation."""


class StencilMissError(ValueError):
    """A field is undefined at some stencil points (e.g. outside the
    Finsleroid cone); fd_partials then retries once with a step ten times
    smaller.  ``rows``, when known, is a boolean mask shaped like the
    points' leading axes, (N * width, B) for fd_stencil's rows-first
    layout, that marks the points that missed; fd_stencil reduces it over
    the rows, so a batch shrinks only the samples that missed."""

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


class ConeStencilError(StencilError):
    """A derivative stencil left the field's admissible set even after
    shrinking the step."""


def transform_components(components: np.ndarray, variance: str, lin: np.ndarray) -> np.ndarray:
    """Push tensor components to the chart x_new = lin @ x_old.

    ``variance`` holds one tag per axis, "u" (contravariant) or "d"
    (covariant).  Contravariant axes transform with ``lin``, covariant
    axes with its inverse transpose; used by the chart-covariance tests.
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


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer product over the last axis, broadcast over leading (point) axes."""
    return a[..., :, None] * b[..., None, :]


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contraction of the last axes, broadcast over leading (point) axes; a
    stacked matmul sums each point in the order a @ b takes at one point."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m^i_j v^j per point, summed as m @ v sums at one point."""
    return (m @ v[..., :, None])[..., 0]


# ---------------------------------------------------------------------------
# Second-order Taylor jets (analytic differentiation engine)
# ---------------------------------------------------------------------------


def _as_jet(value) -> "Jet2":
    if isinstance(value, Jet2):
        return value
    return Jet2(value, 0.0, 0.0)


@dataclass(frozen=True)
class Jet2:
    """Value with first and second derivative with respect to one parameter.

    Arithmetic propagates (value, d1, d2) by the product/chain rules, which
    makes any composite expression an exact analytic derivative evaluator,
    independent of the finite-difference engine it is checked against.
    The three parts may be floats or broadcast-compatible arrays, so one
    pass evaluates a jet at many points or along many directions.
    """

    value: float | np.ndarray
    d1: float | np.ndarray = 0.0
    d2: float | np.ndarray = 0.0

    @staticmethod
    def variable(value) -> "Jet2":
        return Jet2(value, 1.0, 0.0)

    @staticmethod
    def constant(value) -> "Jet2":
        return Jet2(value, 0.0, 0.0)

    def __add__(self, other) -> "Jet2":
        o = _as_jet(other)
        return Jet2(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.d1, -self.d2)

    def __sub__(self, other) -> "Jet2":
        return self + (-_as_jet(other))

    def __rsub__(self, other) -> "Jet2":
        return _as_jet(other) + (-self)

    def __mul__(self, other) -> "Jet2":
        o = _as_jet(other)
        return Jet2(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2.0 * self.d1 * o.d1 + self.value * o.d2,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        v = self.value
        return Jet2(1.0 / v, -self.d1 / v**2, 2.0 * self.d1**2 / v**3 - self.d2 / v**2)

    def __truediv__(self, other) -> "Jet2":
        return self * _as_jet(other).reciprocal()

    def __rtruediv__(self, other) -> "Jet2":
        return _as_jet(other) * self.reciprocal()

    def __pow__(self, exponent) -> "Jet2":
        p = float(exponent)
        if not p.is_integer() and np.any(self.value <= 0.0):
            raise ValueError(f"non-integer power of non-positive value {np.min(self.value)}")
        v, d1, d2 = self.value, self.d1, self.d2
        f = v**p
        fp = p * v ** (p - 1)
        fpp = p * (p - 1) * v ** (p - 2)
        return Jet2(f, fp * d1, fpp * d1 * d1 + fp * d2)

    def sqrt(self) -> "Jet2":
        if np.any(self.value < 0.0):
            raise ValueError(f"square root of negative value {np.min(self.value)}")
        s = np.sqrt(self.value)
        return Jet2(s, self.d1 / (2.0 * s), self.d2 / (2.0 * s) - self.d1**2 / (4.0 * s**3))


# ---------------------------------------------------------------------------
# Finite-difference engine
# ---------------------------------------------------------------------------


# Steps are relative: the step along an axis is FD_STEP times a scale (by
# default max(1, |coordinate|)).
FD_STEP = 1e-5

# The order-4 first-derivative stencil as (offset, weight); value = sum w*f(x+off*h) / h.
_STENCIL = ((2, -1.0 / 12.0), (1, 8.0 / 12.0), (-1, -8.0 / 12.0), (-2, 1.0 / 12.0))


def fd_stencil(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    scales: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The field on the central-difference stencil at one base point x (N,)
    or at each of a batch of base points (B, N), as (values, weights, h):
    d f / d x^k = sum over j of weights[j] * values[..., k, j, ...] / h[..., k].

    ``f`` is evaluated once per step on the whole stencil: it receives the
    stencil points with the rows in front, (N * width, B, N) for a batch
    and (N * width, N) for one point, rows axis-major and then in stencil
    order, and returns one value of any shape per point, which come back
    as values (B, N, width, ...) with h (B, N).  Per-sample data (a batch's
    MetricState, its fiber vectors) broadcasts against the rows as it is;
    states built at the rows are transient and never passed to take.
    ``scales`` fixes the step scale and broadcasts against x: a scalar, a
    per-axis (N,) array or a per-sample (B, 1) column (the engine passes r
    or |y|).  A non-finite value raises StencilError naming its sample,
    axis and offset.

    If the field raises StencilMissError, the samples owning the points it
    names (every sample when it names none) are redone once with the step
    shrunk tenfold, while the others keep the full step; a second miss
    raises ConeStencilError.
    """
    x = np.asarray(x, dtype=float)
    lead, n = x.shape[:-1], x.shape[-1]
    scale_arr = np.broadcast_to(np.asarray(scales, dtype=float), x.shape)
    width = len(_STENCIL)
    rows = n * width
    # moves[k, j] = offset_j e_k: stencil point j along axis k.
    moves = np.eye(n)[:, None, :] * np.array([off for off, _ in _STENCIL], dtype=float)[:, None]
    moves = moves.reshape((n, width) + (1,) * len(lead) + (n,))
    step = np.full(lead + (1,), FD_STEP)
    for attempt in range(2):
        h = step * scale_arr
        h_rows = np.moveaxis(h, -1, 0)[:, None, ..., None]  # [k, 1, *batch, 1] = h[..., k]
        points = (x + moves * h_rows).reshape((rows,) + lead + (n,))
        try:
            values = np.asarray(f(points), dtype=float)
        except StencilMissError as miss:
            if attempt:
                break
            missed = np.ones(lead, dtype=bool)
            if miss.rows is not None and np.shape(miss.rows) == (rows,) + lead:
                missed = np.any(miss.rows, axis=0)
            step = np.where(missed[..., None], 0.1 * FD_STEP, step)
            continue
        if values.shape[: len(lead) + 1] != (rows,) + lead:
            raise ValueError(
                f"field returned shape {values.shape} for stencil points shaped "
                f"{(rows,) + lead + (n,)}; it must return one value per row"
            )
        finite = np.isfinite(values.reshape((rows,) + lead + (-1,))).all(axis=-1)
        if not finite.all():
            # The first sample with a non-finite value, and its first such row.
            *sample, row = np.argwhere(np.moveaxis(~finite, 0, -1))[0]
            axis, pos = divmod(int(row), width)
            where = f"sample {tuple(int(i) for i in sample)}, " if sample else ""
            raise StencilError(
                f"non-finite evaluation at stencil point ({where}axis {axis}, "
                f"offset {_STENCIL[pos][0]})"
            )
        values = values.reshape((n, width) + values.shape[1:])
        values = np.moveaxis(values, (0, 1), (len(lead), len(lead) + 1))
        return values, np.array([w for _, w in _STENCIL]), h
    raise ConeStencilError("stencil left the admissible set even after shrinking the step")


def fd_partials(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, scales: np.ndarray | float
) -> np.ndarray:
    """Central-difference partials out[..., k, ...] = d f / d x^k, shaped
    (B, N, ...), for fd_stencil's arguments: per sample, the stencil rows
    times their weights summed in stencil order and divided by the step."""
    values, weights, h = fd_stencil(f, x, scales)
    values = np.moveaxis(values, h.ndim, 0)  # values[j][..., k, ...] = f(x + off_j h_k e_k)
    acc = weights[0] * values[0]
    for pos in range(1, len(weights)):
        acc = acc + weights[pos] * values[pos]
    return acc / h.reshape(h.shape + (1,) * (acc.ndim - h.ndim))


# ---------------------------------------------------------------------------
# Chunked evaluation and residual helpers shared by the verification suites
# ---------------------------------------------------------------------------

# Samples are evaluated in stacked chunks: one call per chunk instead of
# one per sample removes the per-call overhead on tiny arrays, but a
# chunk's stencil arrays grow with it (all 100 fibers of an N = 8 charged
# finsler-curvature run in one chunk peak at 57 MB of arrays when each
# stencil row holds an N^3 Christoffel array).  Each suite passes a sizing
# constant F, the floats it counts per sample: 4N^4 where a sample holds
# N^4 curvature arrays (the curvature FD oracle's 4N rows hold only the
# blocks of the Christoffel symbols), 8N^3 where each of the 4N rows
# (order-4 stencil) holds two N x N arrays (the spray stencils).  A chunk
# takes as many samples as keep F per sample within this many floats
# (512 KiB): at N = 8, 4 samples at 4N^4 and 16 at 8N^3.  F is not the
# measured peak: tracemalloc over one curvature-xcheck chunk reads about
# 9.8, 8.2 and 7.6 N^4 floats per sample at N = 4, 6 and 8, so those
# chunks peak at about twice the budget.
STENCIL_FLOAT_BUDGET = 2**16


def _per_sample(count: int, sample_floats: int, evaluate) -> dict[str, np.ndarray]:
    """Run ``evaluate`` on consecutive index ranges (slices) of ``count``
    stacked samples, as many per range as keep ``sample_floats`` floats per
    sample within the budget; it returns per-sample arrays by name for its
    range, which are joined in draw order."""
    size = max(1, STENCIL_FLOAT_BUDGET // sample_floats)
    parts = [evaluate(slice(i, i + size)) for i in range(0, count, size)]
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _component_axes(a: np.ndarray, ndim: int | None) -> tuple[int, ...]:
    return tuple(range(a.ndim - (a.ndim if ndim is None else ndim), a.ndim))


def max_abs(arr, ndim: int | None = None):
    """Largest |component|: a float over the whole array, or, given the
    number ``ndim`` of trailing component axes, one value per sample of the
    leading axes."""
    a = np.abs(np.asarray(arr, dtype=float))
    out = np.max(a, axis=_component_axes(a, ndim), initial=0.0)
    return float(out) if ndim is None else out


def rel_frobenius(a, b, ndim: int | None = None):
    """Frobenius norm of (a - b), relative to the larger of the two norms
    (absolute where both vanish); over the whole array, or per sample over
    the last ``ndim`` axes as for max_abs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    axes = _component_axes(np.broadcast(a, b), ndim)
    diff = np.sqrt(np.sum((a - b) ** 2, axis=axes))
    denom = np.maximum(np.sqrt(np.sum(a * a, axis=axes)), np.sqrt(np.sum(b * b, axis=axes)))
    out = np.where(denom == 0.0, diff, diff / np.where(denom == 0.0, 1.0, denom))
    return float(out) if ndim is None else out
