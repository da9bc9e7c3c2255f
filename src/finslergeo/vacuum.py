"""Vacuum verification for the isotropic Schwarzschild profile pair.

At N = 4 the metric family built on c = (1 + xi/4r)/(1 - xi/4r) and
m = -(1 + xi/4r)^4 is Ricci-flat; its curvature collapses to a compact
single-prefactor form, and contracting that form with the axis vector
yields short closed expressions.  This module evaluates all of it per
radius and reports scale-free residuals (curvature-like quantities are
normalised by 1/r^2 so pass/fail does not depend on units).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .profiles import ProfilePair
from .riemann import (
    Frame,
    MetricState,
    _curvature_blocks,
    build_metric,
    curvature_closed,
    curvature_fd_oracle,
    ricci_closed,
    ricci_from_curvature,
)
from .tensors import DiffConfig, max_abs, rel_frobenius


def _schwarzschild_xi(state: MetricState) -> float:
    if state.profiles.kind != "schwarzschild_isotropic":
        raise ValueError(
            "the reduced curvature form is specific to the isotropic "
            f"Schwarzschild profiles, got kind {state.profiles.kind!r}"
        )
    return float(state.profiles.params["xi"])


def reduced_prefactor(state: MetricState) -> float:
    """The single curvature scale (2/r^2) * (xi/4r) / (1 + xi/4r)^2."""
    xi = _schwarzschild_xi(state)
    t = xi / (4.0 * state.r)
    return (2.0 / state.r**2) * t / (1.0 + t) ** 2


def reduced_curvature(state: MetricState) -> np.ndarray:
    """The compact Schwarzschild curvature, axes [n, i, k, m]:

    prefactor * [ 2 (u_mn u_k^i - u_kn u_m^i)
                  - 3 (n_n (n_m u_k^i - n_k u_m^i) - (n_m u_nk - n_k u_nm) n^i)
                  - (1/c^2) ((1/m) b_n (b_m w_k^i - b_k w_m^i)
                             - (b_m w_nk - b_k w_nm) b^i) ]

    with w_k^i = u_k^i - 3 n_k n^i and w_nk = u_nk - 3 n_n n_k.
    """
    pref = reduced_prefactor(state)
    n, n_up = state.n_low, state.n_up
    b, b_up = state.b_low, state.b_up
    u, u_mix = state.frame.u_low, state.frame.u_mix
    m, c = state.m, state.c

    w_mix = u_mix - 3.0 * np.outer(n, n_up)  # [k, i] = u_k^i - 3 n_k n^i
    w_low = u - 3.0 * np.outer(n, n)

    t_uu, _, t_nu, _ = _curvature_blocks(state)
    t_bw = (
        (1.0 / m)
        * (np.einsum("n,m,ki->nikm", b, b, w_mix) - np.einsum("n,k,mi->nikm", b, b, w_mix))
        - np.einsum("m,nk,i->nikm", b, w_low, b_up)
        + np.einsum("k,nm,i->nikm", b, w_low, b_up)
    )
    return pref * (2.0 * t_uu - 3.0 * t_nu - t_bw / c**2)


def contraction_identities(state: MetricState, y: np.ndarray) -> dict[str, float]:
    """Residuals of the axis contractions of the Schwarzschild curvature.

    Each left side contracts the full closed-form curvature tensor; each
    right side evaluates the compact printed expression independently.
    The mixed contraction uses the weight b/c^2 on the doubly-raised axis
    term, the value fixed by requiring consistency with the two single
    contractions when y is proportional to the axis vector.
    """
    y = np.asarray(y, dtype=float)
    riem = curvature_closed(state)
    pref = reduced_prefactor(state)
    n, n_up = state.n_low, state.n_up
    b, b_up = state.b_low, state.b_up
    m, c = state.m, state.c
    w_mix = state.frame.u_mix - 3.0 * np.outer(n, n_up)
    w_low = state.frame.u_low - 3.0 * np.outer(n, n)
    b_scal = float(b @ y)

    lhs_last = np.einsum("nikm,m->nik", riem, b_up)
    rhs_last = -pref * (
        (1.0 / m) * np.einsum("n,ki->nik", b, w_mix) - np.einsum("nk,i->nik", w_low, b_up)
    )

    lhs_first = np.einsum("nikm,n->ikm", riem, b_up)
    rhs_first = -(pref / m) * (
        np.einsum("m,ki->ikm", b, w_mix) - np.einsum("k,mi->ikm", b, w_mix)
    )

    lhs_mixed = (
        (b_scal / c**2) * np.einsum("nikm,n,m->ik", riem, b_up, b_up)
        - np.einsum("nikm,m,n->ik", riem, b_up, y)
        - np.einsum("nikm,n,m->ik", riem, b_up, y)
    )
    rhs_mixed = pref * (
        -np.einsum("nk,i,n->ik", w_low, b_up, y)
        + (b_scal / m) * w_mix.T
        - (1.0 / m) * np.einsum("k,mi,m->ik", b, w_mix, y)
    )

    return {
        "axis_contraction_last": max_abs(lhs_last - rhs_last),
        "axis_contraction_first": max_abs(lhs_first - rhs_first),
        "axis_contraction_mixed": max_abs(lhs_mixed - rhs_mixed),
    }


@dataclass(frozen=True)
class RadiusResult:
    """Scale-free residuals at one radius (curvature-like residuals in 1/r^2 units)."""

    r: float
    ricci_scaled: float
    coefficients_scaled: tuple[float, float, float]
    closed_vs_oracle: float
    reduced_vs_closed: float
    contractions: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class VacuumReport:
    xi: float
    n_dim: int
    results: tuple[RadiusResult, ...]
    tolerances: dict[str, float]
    passed: bool
    failures: tuple[str, ...]

    @property
    def max_ricci_scaled(self) -> float:
        return max(res.ricci_scaled for res in self.results)


def verify_vacuum(
    xi: float,
    radii,
    n_dim: int = 4,
    seed: int = 0,
    config: DiffConfig | None = None,
) -> VacuumReport:
    """Run the vacuum suite at each radius and collect residuals.

    The Ricci residual combines the decomposed closed form with the trace
    of the closed curvature tensor, both scaled by r^2.  For n_dim != 4
    the suite still runs; the Ricci-zero check is then expected to fail,
    which is the shape of the dimension-specificity regression.
    """
    cfg = config or DiffConfig()
    profiles = ProfilePair.schwarzschild_isotropic(xi)
    frame = Frame.standard(n_dim, epsilon=-1)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=n_dim - 1)
    direction /= np.linalg.norm(direction)

    tol = {
        "ricci_scaled": cfg.tolerance("algebraic", 10.0),  # 1e-9 in 1/r^2 units
        "coefficients_scaled": cfg.tolerance("algebraic"),
        "closed_vs_oracle": cfg.tolerance("finite_difference"),
        "reduced_vs_closed": cfg.tolerance("closed_form"),
        "contractions": cfg.tolerance("algebraic", 10.0),
    }

    results = []
    failures: list[str] = []
    for r in radii:
        x = np.zeros(n_dim)
        x[0] = rng.uniform(-1.0, 1.0)
        x[1:] = r * direction
        state = build_metric(frame, profiles, x)

        closed = curvature_closed(state)
        ric_decomposed, coeffs = ricci_closed(state)
        ric_traced = ricci_from_curvature(closed)
        ricci_scaled = max(max_abs(ric_decomposed), max_abs(ric_traced)) * r**2
        coeff_scaled = tuple(abs(v) * r**2 for v in coeffs.as_tuple())

        oracle = curvature_fd_oracle(state, cfg)
        closed_vs_oracle = rel_frobenius(closed, oracle)
        reduced_vs_closed = rel_frobenius(reduced_curvature(state), closed)

        y = rng.normal(size=n_dim)
        contractions = contraction_identities(state, y)

        results.append(
            RadiusResult(
                r=float(r),
                ricci_scaled=ricci_scaled,
                coefficients_scaled=coeff_scaled,
                closed_vs_oracle=closed_vs_oracle,
                reduced_vs_closed=reduced_vs_closed,
                contractions=contractions,
            )
        )

        if ricci_scaled > tol["ricci_scaled"]:
            failures.append(f"r={r}: Ricci residual {ricci_scaled:.3e} (scaled by r^2)")
        if max(coeff_scaled) > tol["coefficients_scaled"]:
            failures.append(f"r={r}: Ricci coefficients {coeff_scaled}")
        if closed_vs_oracle > tol["closed_vs_oracle"]:
            failures.append(f"r={r}: closed vs oracle curvature {closed_vs_oracle:.3e}")
        if reduced_vs_closed > tol["reduced_vs_closed"]:
            failures.append(f"r={r}: reduced vs closed curvature {reduced_vs_closed:.3e}")
        worst_contraction = max(contractions.values())
        if worst_contraction > tol["contractions"]:
            failures.append(f"r={r}: contraction identities {worst_contraction:.3e}")

    return VacuumReport(
        xi=float(xi),
        n_dim=n_dim,
        results=tuple(results),
        tolerances=tol,
        passed=not failures,
        failures=tuple(failures),
    )
