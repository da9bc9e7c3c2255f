"""Vacuum verification for the isotropic Schwarzschild profile pair.

At N = 4 the metric family built on c = (1 + xi/4r)/(1 - xi/4r) and
m = -(1 + xi/4r)^4 is Ricci-flat; its curvature collapses to a compact
single-prefactor form, and contracting that form with the axis vector
yields short closed expressions.  This module evaluates all of it on a
stack of radii (each function takes one state or a batch) and returns
scale-free residuals (Ricci-like quantities times r^2, a unit choice; the
contractions by tensors.gap); the suites sample, chunk and judge them.
"""

from __future__ import annotations

import numpy as np

from .riemann import (
    MetricState,
    _pair_sum,
    curvature_closed,
    curvature_fd_oracle,
    ricci_closed,
    ricci_from_curvature,
)
from .tensors import dot, gap, max_abs, outer, rel_frobenius


def _schwarzschild_xi(state: MetricState) -> float:
    if state.profiles.kind != "schwarzschild_isotropic":
        raise ValueError(
            "the reduced curvature form is specific to the isotropic "
            f"Schwarzschild profiles, got kind {state.profiles.kind!r}"
        )
    return float(state.profiles.params["xi"])


def reduced_prefactor(state: MetricState) -> float | np.ndarray:
    """The single curvature scale (2/r^2) * (xi/4r) / (1 + xi/4r)^2, one
    value per sample."""
    xi = _schwarzschild_xi(state)
    t = xi / (4.0 * state.r)
    return (2.0 / state.r**2) * t / (1.0 + t) ** 2


def _axis_weights(state: MetricState):
    """w_k^i = u_k^i - 3 n_k n^i and w_nk = u_nk - 3 n_n n_k."""
    n = state.n_low
    w_mix = state.frame.u_mix - 3.0 * outer(n, state.n_up)  # [k, i]
    w_low = state.frame.u_low - 3.0 * outer(n, n)
    return w_mix, w_low


def reduced_curvature(state: MetricState) -> np.ndarray:
    """The compact Schwarzschild curvature, axes [n, i, k, m] after the
    state's sample axes:

    prefactor * [ 2 (u_mn u_k^i - u_kn u_m^i)
                  - 3 (n_n (n_m u_k^i - n_k u_m^i) - (n_m u_nk - n_k u_nm) n^i)
                  - (1/c^2) ((1/m) b_n (b_m w_k^i - b_k w_m^i)
                             - (b_m w_nk - b_k w_nm) b^i) ]

    with w_k^i = u_k^i - 3 n_k n^i and w_nk = u_nk - 3 n_n n_k, summed as
    the four (L, M) pairs (u, 2 u_k^i - 3 n_k n^i), (n n, -3 u_k^i),
    (b b, -w_k^i / (c^2 m)) and (w, -b_k b^i / c^2), the prefactor folded
    into M.
    """
    pref, m, c2 = (v[..., None, None] for v in (reduced_prefactor(state), state.m, state.c**2))
    n, b = state.n_low, state.b_low
    u_mix = state.frame.u_mix
    w_mix, w_low = _axis_weights(state)
    return _pair_sum(
        (
            (state.frame.u_low, pref * (2.0 * u_mix - 3.0 * outer(n, state.n_up))),
            (outer(n, n), -3.0 * pref * u_mix),
            (outer(b, b), -(pref / (c2 * m)) * w_mix),
            (w_low, -(pref / c2) * outer(b, state.b_up)),
        )
    )


def contraction_identities(
    state: MetricState, y: np.ndarray, riem: np.ndarray
) -> dict[str, float | np.ndarray]:
    """Residuals (tensors.gap) of the axis contractions of the Schwarzschild
    curvature, one per sample of the state (fiber vectors y stacked like the state's
    points), given the state's closed-form curvature ``riem``.

    Each left side contracts the full closed-form curvature tensor; each
    right side evaluates the compact printed expression independently.
    The mixed contraction uses the weight b/c^2 on the doubly-raised axis
    term, the value fixed by requiring consistency with the two single
    contractions when y is proportional to the axis vector.
    """
    y = np.asarray(y, dtype=float)
    b, b_up = state.b_low, state.b_up
    w_mix, w_low = _axis_weights(state)
    # Per-sample scalars with two unit axes, to scale a matrix per sample.
    pref, inv_m, c2, b_scal = (
        v[..., None, None]
        for v in (reduced_prefactor(state), 1.0 / state.m, state.c**2, dot(b, y))
    )

    lhs_last = np.einsum("...nikm,...m->...nik", riem, b_up)
    rhs_last = -pref[..., None] * (
        inv_m[..., None] * np.einsum("...n,...ki->...nik", b, w_mix)
        - np.einsum("...nk,...i->...nik", w_low, b_up)
    )

    lhs_first = np.einsum("...nikm,...n->...ikm", riem, b_up)
    rhs_first = -(pref * inv_m)[..., None] * (
        np.einsum("...m,...ki->...ikm", b, w_mix) - np.einsum("...k,...mi->...ikm", b, w_mix)
    )

    lhs_mixed = (
        (b_scal / c2) * np.einsum("...nikm,...n,...m->...ik", riem, b_up, b_up)
        - np.einsum("...nikm,...m,...n->...ik", riem, b_up, y)
        - np.einsum("...nikm,...n,...m->...ik", riem, b_up, y)
    )
    rhs_mixed = pref * (
        -np.einsum("...nk,...i,...n->...ik", w_low, b_up, y)
        + (b_scal * inv_m) * np.swapaxes(w_mix, -1, -2)
        - inv_m * np.einsum("...k,...mi,...m->...ik", b, w_mix, y)
    )

    return {
        "axis_contraction_last": gap(lhs_last, rhs_last, 3),
        "axis_contraction_first": gap(lhs_first, rhs_first, 3),
        "axis_contraction_mixed": gap(lhs_mixed, rhs_mixed, 2),
    }


def reduction_residuals(state: MetricState, y: np.ndarray, closed: np.ndarray) -> dict:
    """Per sample, the compact form against the state's closed curvature
    ``closed`` and the worst of its axis contractions with the fiber
    vectors y, stacked like the state's points."""
    contractions = contraction_identities(state, y, closed)
    return {
        "reduced_vs_closed": rel_frobenius(reduced_curvature(state), closed, 4),
        "axis_contractions": np.max(list(contractions.values()), axis=0),
    }


def verify_vacuum(state: MetricState, y: np.ndarray, radii) -> dict[str, np.ndarray]:
    """The `vacuum` suite's five residuals by check name, one per sample of
    a stacked Schwarzschild state, with the fiber vectors y and the nominal
    radii stacked like its points; the Ricci residuals are scaled by radii^2.
    The Ricci residual combines the decomposed closed form with the trace
    of the closed curvature; at N != 4 it is expected to fail."""
    r2 = np.asarray(radii, dtype=float) ** 2
    closed = curvature_closed(state)
    ric_decomposed, coeffs = ricci_closed(state)
    ricci = np.maximum(max_abs(ric_decomposed, 2), max_abs(ricci_from_curvature(closed), 2))
    return {
        "ricci_scaled": ricci * r2,
        "ricci_coefficients_scaled": np.max(np.abs(coeffs.as_tuple()), axis=0) * r2,
        "closed_vs_oracle": rel_frobenius(closed, curvature_fd_oracle(state), 4),
    } | reduction_residuals(state, y, closed)
