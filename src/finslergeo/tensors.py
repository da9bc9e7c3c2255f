"""Small dense-array helpers plus two differentiation engines: second-order
Taylor jets (the analytic chain rule, for the profile scalars) and the
complex step (numeric first partials of any complex-analytic field).  The
closed forms of the geometry code are judged against the complex step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Default tolerance per check class.  Rationale: error budgets differ by
# provenance (pure algebra vs closed-form assembly vs numeric derivatives
# vs curvature bundles built from them); the last two were sized for
# central differences, whose error the complex step sits far below.
TOLERANCE_CLASSES: dict[str, float] = {
    "exact": 1e-12,
    "algebraic": 1e-10,
    "closed_form": 1e-8,
    "finite_difference": 1e-6,
    "bundle": 1e-5,
}


class StencilError(RuntimeError):
    """A complex-step derivative produced a non-finite evaluation."""


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
    independent of the complex-step engine it is checked against.
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
# Complex-step engine
# ---------------------------------------------------------------------------


# The imaginary step h of d f / d x^k = Im f(x + i h e_k) / h.  The complex
# step subtracts nothing, so its error is roundoff at any tiny h, and h
# needs no scale: Squire & Trapp, SIAM Review 40 (1998) 110; Martins,
# Sturdza & Alonso, ACM TOMS 29 (2003) 245.
COMPLEX_STEP = 1e-30


def fd_partials(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Partials out[..., k, ...] = d f / d x^k by complex step, at one base
    point x (N,) or at each of a batch of base points (B, N), shaped
    (N, ...) or (B, N, ...).

    ``f`` is called once, on the N complex points x + i h e_k with the rows
    in front, (N, B, N) for a batch and (N, N) for one point, and returns
    one value of any shape per point.  Per-sample data (a batch's
    MetricState, its fiber vectors) broadcasts against the rows as it is;
    states built at the rows are transient and never passed to take.  The
    field must be complex-analytic in x: every admissibility test reads the
    real part, which is the base point's own, so no row can leave a domain
    the base point is in.  A non-finite value raises StencilError naming its
    sample and axis.
    """
    x = np.asarray(x, dtype=float)
    lead, n = x.shape[:-1], x.shape[-1]
    points = x + (1j * COMPLEX_STEP) * np.eye(n).reshape((n,) + (1,) * len(lead) + (n,))
    values = np.asarray(f(points))
    if values.shape[: len(lead) + 1] != (n,) + lead:
        raise ValueError(
            f"field returned shape {values.shape} for points shaped {points.shape}; "
            "it must return one value per row"
        )
    finite = np.isfinite(values.reshape((n,) + lead + (-1,))).all(axis=-1)
    if not finite.all():
        # The first sample with a non-finite value, and its first such axis.
        *sample, axis = np.argwhere(np.moveaxis(~finite, 0, -1))[0]
        where = f"sample {tuple(int(i) for i in sample)}, " if sample else ""
        raise StencilError(f"non-finite evaluation at complex step ({where}axis {axis})")
    return np.moveaxis(values.imag, 0, len(lead)) / COMPLEX_STEP


# ---------------------------------------------------------------------------
# Chunked evaluation and residual helpers shared by the verification suites
# ---------------------------------------------------------------------------

# Samples are evaluated in stacked chunks: one call per chunk instead of
# one per sample removes the per-call overhead on tiny arrays, but a
# chunk's arrays grow with it.  Each suite passes a sizing constant F, the
# floats it counts per sample: 4N^4 where a sample holds N^4 curvature
# arrays (the curvature FD oracle's N complex rows hold only the blocks of
# the Christoffel symbols), 8N^3 where a sample's rows hold two N x N
# arrays (the spray derivatives).  The factors count 4N real rows per
# sample, where the complex step has N complex ones (2N floats each); they
# are kept so that the chunks stay as they were.  A chunk takes as many
# samples as keep F per sample within this many floats (512 KiB): at
# N = 8, 4 samples at 4N^4 and 16 at 8N^3.  F is not the measured peak:
# tracemalloc over one curvature-xcheck chunk reads about 9.4, 7.5 and 7.1
# N^4 floats per sample at N = 4, 6 and 8, and over hh_curvature on 16
# charged N = 8 fibers 15.8 N^3 per fiber, so those chunks peak at about
# twice the budget.
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
