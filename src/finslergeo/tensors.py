"""Small dense-array helpers plus the package's one differentiation
engine, the complex step (numeric first partials of any complex-analytic
field), against which the closed forms of the geometry code are judged.
"""

from __future__ import annotations

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
# Complex-step engine
# ---------------------------------------------------------------------------


# The imaginary step h of d f / d x^k = Im f(x + i h e_k) / h.  The complex
# step subtracts nothing, so its error is roundoff at any tiny h, and h
# needs no scale: Squire & Trapp, SIAM Review 40 (1998) 110; Martins,
# Sturdza & Alonso, ACM TOMS 29 (2003) 245.
COMPLEX_STEP = 1e-30


def fd_partials(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, directions: np.ndarray | None = None
) -> np.ndarray:
    """Directional derivatives out[..., r, ...] = d^j d f / d x^j along each
    row d of ``directions`` (the identity by default, giving the partials
    d f / d x^k) by complex step, at one base point x (N,) or at each of a
    batch of base points (B, N), shaped (R, ...) or (B, R, ...) for R rows.

    ``directions`` puts its rows first: (R, N) for directions shared by
    every sample, or (R, B, N) for one per sample.  ``f`` is called once, on
    the R complex points x + i h d with the rows in front, (R, B, N) for a
    batch and (R, N) for one point, and returns one value of any shape per
    point.  Per-sample data (a batch's MetricState, its fiber vectors)
    broadcasts against the rows as it is.  The field must be
    complex-analytic in x: every admissibility test reads the real part,
    which is the base point's own, so no row can leave a domain the base
    point is in.  A non-finite value raises StencilError naming its sample
    and row (its axis, for the partials).
    """
    x = np.asarray(x, dtype=float)
    lead, n = x.shape[:-1], x.shape[-1]
    d = np.eye(n) if directions is None else np.asarray(directions, dtype=float)
    rows = d.shape[0]
    d = d.reshape((rows,) + (1,) * (x.ndim + 1 - d.ndim) + d.shape[1:])
    points = x + (1j * COMPLEX_STEP) * d
    values = np.asarray(f(points))
    if values.shape[: len(lead) + 1] != (rows,) + lead:
        raise ValueError(
            f"field returned shape {values.shape} for points shaped {points.shape}; "
            "it must return one value per row"
        )
    finite = np.isfinite(values.reshape((rows,) + lead + (-1,))).all(axis=-1)
    if not finite.all():
        # The first sample with a non-finite value, and its first such row.
        *sample, row = np.argwhere(np.moveaxis(~finite, 0, -1))[0]
        where = f"sample {tuple(int(i) for i in sample)}, " if sample else ""
        label = "axis" if directions is None else "row"
        raise StencilError(f"non-finite evaluation at complex step ({where}{label} {row})")
    return np.moveaxis(values.imag, 0, len(lead)) / COMPLEX_STEP


# ---------------------------------------------------------------------------
# Residual helpers shared by the verification suites
# ---------------------------------------------------------------------------


def _component_axes(a: np.ndarray, ndim: int | None) -> tuple[int, ...]:
    return tuple(range(a.ndim - (a.ndim if ndim is None else ndim), a.ndim))


def max_abs(arr, ndim: int | None = None):
    """Largest |component|: a float over the whole array, or, given the
    number ``ndim`` of trailing component axes, one value per sample of the
    leading axes."""
    a = np.abs(arr)
    out = np.maximum.reduce(a, _component_axes(a, ndim), initial=0.0)
    return float(out) if ndim is None else out


def gap(lhs, rhs, ndim: int, scale=1.0):
    """Per sample, max|lhs - rhs| over the last ``ndim`` axes divided by
    max(1, scale, max|lhs|, max|rhs|): a closed form's residual against its
    partner, judged on the size of what was computed, so roundoff on large
    operands reads as roundoff and operands within 1 read max_abs(lhs - rhs,
    ndim).  A ``rhs`` with fewer axes (a scalar, an identity) broadcasts."""
    diff = np.abs(lhs - rhs)
    axes = _component_axes(diff, ndim)
    size = np.maximum.reduce(np.maximum(np.abs(lhs), np.abs(rhs)), axes, initial=0.0)
    return np.maximum.reduce(diff, axes, initial=0.0) / np.maximum(np.maximum(1.0, scale), size)


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
