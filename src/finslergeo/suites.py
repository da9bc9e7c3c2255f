"""Verification suites driven by a Scenario.

Each suite samples points (and fiber vectors) deterministically from a seed
derived from the scenario seed and the suite's fixed position (`vacuum` from
the scenario seed), states its residuals, check plan and chunk factor, and
returns through one function, `_judged`, which builds each chunk's state from
its points, evaluates the residuals on it (one residual per sample, in draw
order) and returns per-check statistics.  A suite whose preconditions fail
is marked skipped with the reason, and the run continues.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from .finsler import (
    AdmissibilityError,
    DegenerateFiberError,
    OutsideConeError,
    hh_curvature,
    kinematics,
    kinematic_identity_residuals,
    spray_coefficients,
    spray_derivatives,
)
from .profiles import DomainError, ProfilePair
from .report import CheckResult, RunReport, SuiteResult
from .riemann import (
    Frame,
    build_metric,
    christoffel_definitional,
    curvature_closed,
    curvature_dot,
    curvature_fd_oracle,
    curvature_presubstitution,
    ricci_closed,
    ricci_from_curvature,
)
from .scenario import SUITES, Scenario
from .tensors import dot, gap, matvec, max_abs, rel_frobenius
from .vacuum import reduction_residuals, verify_vacuum


def _suite_rng(scenario: Scenario, suite: str) -> np.random.Generator:
    return np.random.default_rng([scenario.seed, SUITES.index(suite)])


def _state(scenario: Scenario, x: np.ndarray):
    """The scenario's metric at the points x, on the standard frame."""
    return build_metric(Frame.standard(scenario.n_dim, scenario.epsilon), scenario.profile, x)


def _sampling_range(profile: ProfilePair) -> tuple[float, float]:
    lo = 1.2 * profile.r_min if profile.r_min > 0.0 else 0.5
    return lo, max(8.0, 4.0 * lo)


def _draw_tries(rng: np.random.Generator, n_dim: int, count: int, lo, hi, fiber: bool):
    """``count`` tries in draw order: (xs, ys), the points and, with
    ``fiber``, a fiber vector per point (else None).  In the standard chart
    coordinate 0 is the axis direction, drawn in [-1, 1); the rest is a
    radius in [lo, hi) (per try where ``lo`` and ``hi`` are arrays) times a
    uniform direction.

    Each try makes only its generator calls: a direction, two uniform
    doubles for x^0 and the radius, and with ``fiber`` a fiber vector.  The
    block is then mapped in one pass.  -1 + 2u and lo + (hi - lo)u are what
    uniform(-1, 1) and uniform(lo, hi) compute from their double u, and
    sqrt(d . d) by a stacked dot is np.linalg.norm's dot and sqrt, so the
    points are those of one uniform and norm call per try, bit for bit."""
    direction, u = np.empty((count, n_dim - 1)), np.empty((count, 2))
    ys = np.empty((count, n_dim)) if fiber else None
    for i in range(count):
        direction[i] = rng.normal(size=n_dim - 1)
        u[i] = rng.random(2)
        if fiber:
            ys[i] = rng.normal(size=n_dim)
    xs = np.empty((count, n_dim))
    xs[:, 0] = -1.0 + 2.0 * u[:, 0]
    radius = lo + (hi - lo) * u[:, 1]
    xs[:, 1:] = radius[:, None] * (direction / np.sqrt(dot(direction, direction))[:, None])
    return xs, ys


class SamplingError(RuntimeError):
    """Too few drawn samples fell in the profile's domain (or, for fibers,
    well inside the admissible cone) to verify anything."""


_REJECTIONS = {
    DomainError: "outside the domain",
    DegenerateFiberError: "with q^2 <= 0",
    OutsideConeError: "with nu <= 0",
}


# A cone-mode fiber is kept iff q >= CONE_MARGIN (|S| + |b|) and nu >= CONE_MARGIN q.
CONE_MARGIN = 0.05


def _sample_blocks(
    scenario: Scenario, rng: np.random.Generator, count: int, fiber: bool = False, charge=None
):
    """``count`` samples in draw order, for at most 60 tries per sample:
    (xs, ys), the accepted points and, with ``fiber`` or a ``charge``, their
    fiber vectors (else None).  Given a ``charge``, each fiber lies
    CONE_MARGIN inside the cone of that charge at its point.

    Each try draws a point, then (with ``fiber`` or a ``charge``) a fiber
    vector.  A block of tries is drawn (_draw_tries) and judged in passes:
    each builds the metric (and, given a ``charge``, the kinematics) at the
    block's surviving tries in one call, and each DomainError or
    AdmissibilityError drops the tries it marks, counted by cause.  A block
    never holds more tries than could still be accepted, so the generator
    stops where a try-by-try loop would."""
    lo, hi = _sampling_range(scenario.profile)
    cone = charge is not None
    fiber = fiber or cone
    causes = [*_REJECTIONS.values(), "inside the margin"] if cone else ["outside the domain"]
    rejected = dict.fromkeys(causes, 0)
    points, fibers = [], []
    tries = accepted = 0
    while accepted < count and tries < 60 * count:
        block = min(count - accepted, 60 * count - tries)
        xs, ys = _draw_tries(rng, scenario.n_dim, block, lo, hi, fiber)
        tries += block
        kept = np.ones(block, dtype=bool)
        while True:
            try:
                state = _state(scenario, xs[kept])
                if cone:
                    state = kinematics(state, ys[kept], charge)
                break
            except (DomainError, AdmissibilityError) as exc:
                rejected[_REJECTIONS[type(exc)]] += int(np.sum(exc.rows))
                kept[np.flatnonzero(kept)[exc.rows]] = False
        if cone:
            inside = (state.q >= CONE_MARGIN * (np.sqrt(np.abs(state.s2)) + np.abs(state.b))) & (
                state.nu >= CONE_MARGIN * np.maximum(state.q, 1e-300)
            )
            rejected["inside the margin"] += int(np.sum(~inside))
            kept[np.flatnonzero(kept)[~inside]] = False
        points.append(xs[kept])
        if fiber:
            fibers.append(ys[kept])
        accepted += int(np.sum(kept))
    if accepted < count:
        what = (
            "fiber vectors fell well inside the admissible cone"
            if cone
            else "points fell in the profile's domain"
        )
        counts = ", ".join(f"{n} {cause}" for cause, n in rejected.items())
        raise SamplingError(
            f"only {accepted} of {count} {what} in {tries} tries (rejected: {counts}); "
            "nothing was verified"
        )
    return np.concatenate(points), np.concatenate(fibers) if fiber else None


# ---------------------------------------------------------------------------
# The suite skeleton and the individual suites
# ---------------------------------------------------------------------------

# Samples are judged in stacked chunks: one call per chunk instead of one
# per sample removes the per-call overhead on tiny arrays, but a chunk's
# arrays grow with it.  Each suite states F, the floats its complex rows
# hold per sample (a sizing constant, not the measured peak; README,
# "Numerical conventions"), and a chunk takes as many samples as keep F per
# sample within this many floats (512 KiB).
STENCIL_FLOAT_BUDGET = 2**16


def _per_sample(count: int, sample_floats: int, evaluate) -> dict[str, np.ndarray]:
    """Run ``evaluate`` on consecutive index ranges (slices) of ``count``
    stacked samples, as many per range as keep ``sample_floats`` floats per
    sample within the budget; it returns per-sample arrays by name for its
    range, which are joined in draw order."""
    size = max(1, STENCIL_FLOAT_BUDGET // sample_floats)
    parts = [evaluate(slice(i, i + size)) for i in range(0, count, size)]
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _judged(name: str, scenario: Scenario, xs, sample_floats: int, residuals, plan) -> SuiteResult:
    """The suite's result, a pass iff every check passed.

    ``residuals(state, rows)`` gives per-sample arrays by check name for the
    chunk ``rows`` of the points ``xs``, ``state`` being the metric at
    xs[rows]; chunks hold ``sample_floats`` floats per sample within the
    budget.  Each name, in the order the residuals give them, is one check
    judged by plan[name] = (tolerance class, scale): tolerance
    scenario.tolerances[class] times scale, a None class marking an
    informational check."""
    rows = _per_sample(len(xs), sample_floats, lambda r: residuals(_state(scenario, xs[r]), r))
    checks = []
    for check, values in rows.items():
        klass, scale = plan[check]
        tolerance = None if klass is None else scenario.tolerances[klass] * scale
        checks.append(CheckResult.from_residuals(check, values, tolerance, klass))
    status = "pass" if all(c.passed for c in checks) else "fail"
    return SuiteResult(name, status, tuple(checks))


def _skipped(name: str, reason: str):
    return SuiteResult(name, "skipped", reason=reason), {}


def suite_frame_identities(scenario: Scenario):
    rng = _suite_rng(scenario, "frame-identities")
    xs, _ = _sample_blocks(scenario, rng, scenario.n_points)
    eye = np.eye(scenario.n_dim)

    def residuals(state, rows) -> dict[str, np.ndarray]:
        frame, c2 = state.frame, state.c**2
        # The frame identities do not depend on the point: the same value per sample.
        return {name: np.full(c2.shape, value) for name, value in frame.identities.items()} | {
            "metric_inverse": gap(state.a_low @ state.a_up, eye, 2),
            "axis_vector_norm": gap(dot(state.b_up, state.b_low), c2, 0),
            "axis_vector_transversality": gap(state.b_up @ frame.u_low, 0.0, 1),
            "axis_vector_form": gap(state.b_up, c2[:, None] * frame.e_up, 1),
            "metric_raise_consistency": gap(matvec(state.a_up, state.b_low), state.b_up, 1),
            "radial_norm": gap(dot(state.n_up, state.n_low), 1.0, 0),
            "radial_axis_orthogonality": gap(dot(state.n_low, state.b_up), 0.0, 0),
            "radial_raise_signature": gap(
                state.n_up, matvec(frame.epsilon * frame.background_inv, state.n_low), 1
            ),
            "axis_c_orthogonality": gap(dot(state.b_up, state.dc_low), 0.0, 0),
        }

    # F = 4N^3, as for christoffel-xcheck.
    plan = defaultdict(lambda: ("exact", 1.0))  # one class for every check
    return _judged("frame-identities", scenario, xs, 4 * scenario.n_dim**3, residuals, plan), {}


def suite_christoffel_xcheck(scenario: Scenario):
    rng = _suite_rng(scenario, "christoffel-xcheck")
    xs, _ = _sample_blocks(scenario, rng, scenario.n_points)

    def residuals(state, rows) -> dict[str, np.ndarray]:
        closed = state.gamma
        return {
            "closed_vs_definitional": gap(closed, christoffel_definitional(state), 3),
            "lower_symmetry": gap(closed, np.swapaxes(closed, -1, -2), 3),
        }

    # F = 4N^3: the definitional symbols' N complex rows hold an N x N
    # complex metric each, and the closed and definitional symbols N^3 each.
    plan = {"closed_vs_definitional": ("closed_form", 1.0), "lower_symmetry": ("exact", 1.0)}
    return _judged("christoffel-xcheck", scenario, xs, 4 * scenario.n_dim**3, residuals, plan), {}


def suite_curvature_xcheck(scenario: Scenario):
    rng = _suite_rng(scenario, "curvature-xcheck")
    xs, _ = _sample_blocks(scenario, rng, scenario.n_points)
    n = scenario.n_dim

    def residuals(state, rows) -> dict[str, np.ndarray]:
        closed = curvature_closed(state)
        ric_decomposed, _ = ricci_closed(state)
        # lowered[n, i, k, m] = a_is a_n^s_km, one stacked matmul over (k, m)
        lowered = (state.a_low[:, None] @ closed.reshape(-1, n, n, n * n)).reshape(closed.shape)
        return {
            "closed_vs_fd_oracle": rel_frobenius(closed, curvature_fd_oracle(state), 4),
            "block_form_equivalence": gap(closed, curvature_presubstitution(state), 4),
            "ricci_decomposition_consistency": gap(ricci_from_curvature(closed), ric_decomposed, 2),
            "antisymmetry_last_pair": gap(closed, -np.swapaxes(closed, -1, -2), 4),
            "antisymmetry_first_pair_lowered": gap(lowered, -np.swapaxes(lowered, -4, -3), 4),
        }

    plan = {
        "closed_vs_fd_oracle": ("finite_difference", 1.0),
        "block_form_equivalence": ("exact", 1.0),
        "ricci_decomposition_consistency": ("algebraic", 10.0),
        "antisymmetry_last_pair": ("exact", 1.0),
        "antisymmetry_first_pair_lowered": ("exact", 10.0),
    }
    dumps = {}
    if scenario.dump_dir:
        dumps["curvature_closed_sample"] = curvature_closed(_state(scenario, xs[0]))
    # F = 2N^4: each of the FD oracle's N complex rows holds an N^3 complex
    # Christoffel array, and the closed curvature is N^4 per sample.
    return _judged("curvature-xcheck", scenario, xs, 2 * n**4, residuals, plan), dumps


def suite_vacuum(scenario: Scenario):
    if scenario.profile.kind != "schwarzschild_isotropic":
        return _skipped("vacuum", "requires the schwarzschild_isotropic profile")
    n = scenario.n_dim
    # Reports pin this draw order: one direction, then per radius x^0 and a fiber.
    rng = np.random.default_rng(scenario.seed)
    direction = rng.normal(size=n - 1)
    direction /= np.linalg.norm(direction)
    radii = np.array(scenario.radii, dtype=float)
    xs, ys = np.zeros((2, len(radii), n))
    for i, r in enumerate(radii):
        xs[i, 0] = rng.uniform(-1.0, 1.0)
        xs[i, 1:] = r * direction
        ys[i] = rng.normal(size=n)

    def residuals(state, rows) -> dict[str, np.ndarray]:
        return verify_vacuum(state, ys[rows], radii[rows])

    plan = {
        "ricci_scaled": ("algebraic", 10.0),  # 1e-9 in 1/r^2 units
        "ricci_coefficients_scaled": ("algebraic", 1.0),
        "closed_vs_oracle": ("finite_difference", 1.0),
        "reduced_vs_closed": ("closed_form", 1.0),
        "axis_contractions": ("algebraic", 10.0),
    }
    dumps = {}
    if scenario.dump_dir:
        for r in radii.tolist():
            x = np.zeros(n)
            x[1] = r
            dumps[f"vacuum_curvature_r{r!r}"] = curvature_closed(_state(scenario, x))
    # F = 2N^4, the curvature FD oracle's, as in curvature-xcheck.
    return _judged("vacuum", scenario, xs, 2 * n**4, residuals, plan), dumps


def suite_schwarzschild_reductions(scenario: Scenario):
    if scenario.profile.kind != "schwarzschild_isotropic":
        return _skipped("schwarzschild-reductions", "requires the schwarzschild_isotropic profile")
    rng = _suite_rng(scenario, "schwarzschild-reductions")
    n = scenario.n_dim
    xi = float(scenario.profile.params["xi"])
    radii = np.array(scenario.radii, dtype=float)
    xs, ys = _draw_tries(rng, n, len(radii), radii, radii, fiber=True)

    def residuals(state, rows) -> dict[str, np.ndarray]:
        closed = curvature_closed(state)
        # Scaling xi -> lam*xi, x -> lam*x leaves (c, m) invariant and scales
        # curvature components by 1/lam^2; both scalings of a radius in turn.
        scaling = []
        for lam in (0.5, 2.0):
            pair = ProfilePair.schwarzschild_isotropic(lam * xi)
            scaled = build_metric(state.frame, pair, lam * state.x)
            scaling.append(gap(lam**2 * curvature_closed(scaled), closed, 4))
        return reduction_residuals(state, ys[rows], closed) | {
            "scaling_covariance": np.stack(scaling, axis=-1).reshape(-1),
        }

    plan = {
        "reduced_vs_closed": ("closed_form", 1.0),
        "axis_contractions": ("algebraic", 10.0),
        "scaling_covariance": ("algebraic", 1.0),
    }
    # F = 2N^4, the closed curvature's, as in curvature-xcheck.
    return _judged("schwarzschild-reductions", scenario, xs, 2 * n**4, residuals, plan), {}


def suite_finsler_identities(scenario: Scenario):
    rng = _suite_rng(scenario, "finsler-identities")
    charge = scenario.charge
    xs, ys = _sample_blocks(scenario, rng, scenario.n_fibers, charge=charge)

    def residuals(state, rows) -> dict[str, np.ndarray]:
        res = kinematic_identity_residuals(kinematics(state, ys[rows], charge))
        # Kept for bench/workloads.json only; a bench-only change drops it (ROADMAP item 10).
        res["e_fiber_derivative_fd"] = res["e_fiber_derivative"]
        return res

    plan = defaultdict(lambda: ("algebraic", 1.0), e_fiber_derivative_fd=("closed_form", 1.0))
    # F = 10N^2: each of a sample's N complex rows holds the 2N + 1 complex
    # fields of _fiber_partials and fiber_vectors' three complex N-vectors.
    return _judged("finsler-identities", scenario, xs, 10 * scenario.n_dim**2, residuals, plan), {}


def suite_finsler_curvature(scenario: Scenario):
    rng = _suite_rng(scenario, "finsler-curvature")
    charge = scenario.charge
    # At charge 0 (the Riemannian limit) no cone bounds the fibers.
    xs, ys = _sample_blocks(
        scenario, rng, scenario.n_fibers, fiber=True, charge=charge if charge != 0.0 else None
    )

    def residuals(state, rows) -> dict[str, np.ndarray]:
        y = ys[rows]
        derivs = spray_derivatives(state, y, charge)
        g1 = derivs.spray
        g2 = spray_coefficients(state, 2.0 * y, charge)
        curvature = hh_curvature(derivs)
        magnitude = max_abs(curvature, 2)
        out = {
            "spray_homogeneity": gap(g2, 4.0 * g1, 1),
            "euler_identity": gap(matvec(derivs.first_closed, y), 2.0 * g1, 1),
            "spray_first_derivative_gap": derivs.first_gap,
            # K^2 R^i_k y^k sums terms up to max|K^2 R| max|y| in size.
            "bundle_y_contraction": gap(matvec(curvature, y), 0.0, 1, magnitude * max_abs(y, 1)),
        }
        if charge == 0.0:
            out["riemann_limit"] = rel_frobenius(curvature, curvature_dot(state, y), 2)
        return out | {"bundle_magnitude": magnitude}

    plan = {
        "spray_homogeneity": ("exact", 1.0),
        "euler_identity": ("algebraic", 10.0),
        "spray_first_derivative_gap": ("finite_difference", 0.1),
        "bundle_y_contraction": ("algebraic", 1.0),
        "riemann_limit": ("bundle", 1.0),  # charge 0 only
        "bundle_magnitude": (None, 1.0),
    }
    dumps = {}
    if scenario.dump_dir:
        sample = spray_derivatives(_state(scenario, xs[:1]), ys[:1], charge)
        dumps["finsler_bundle_sample"] = hh_curvature(sample)[0]
    # F = 2N^3 + 2N^2 at either charge: hh_curvature's x-step holds a row
    # metric's N x N complex a_ij at each of a sample's N coordinate rows,
    # and its one row along y N x N complex arrays; no sample holds an N^3
    # or N^4 array.
    n = scenario.n_dim
    return _judged("finsler-curvature", scenario, xs, 2 * n**3 + 2 * n**2, residuals, plan), dumps


_SUITE_FUNCS = {
    "frame-identities": suite_frame_identities,
    "christoffel-xcheck": suite_christoffel_xcheck,
    "curvature-xcheck": suite_curvature_xcheck,
    "vacuum": suite_vacuum,
    "schwarzschild-reductions": suite_schwarzschild_reductions,
    "finsler-identities": suite_finsler_identities,
    "finsler-curvature": suite_finsler_curvature,
}


def write_tensor_csv(path: Path, array: np.ndarray) -> None:
    """One row per component: indices then the full-precision decimal value."""
    array = np.asarray(array, dtype=float)
    letters = ["i", "j", "k", "m"][: array.ndim]
    lines = [",".join(letters + ["value"])]
    for idx in np.ndindex(*array.shape):
        lines.append(",".join(str(i) for i in idx) + f",{float(array[idx])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(scenario: Scenario) -> RunReport:
    """Execute the scenario's suites in declared order and assemble the report.

    A suite precondition failure marks the suite skipped and the run
    continues; an unexpected numerical error marks it failed with the
    diagnostic.  Exit-code policy: report.exit_code is 0 iff no suite
    failed and at least one ran (a run whose every suite skipped verified
    nothing).  The output directories are created and the report file
    opened before the first suite runs, so an unwritable path raises
    OSError before any work is done; a report file that this opening
    created is removed again if the run stops before writing it.
    """
    report_path = Path(scenario.report_path) if scenario.report_path else None
    dump_root = Path(scenario.dump_dir) if scenario.dump_dir else None
    new_report = report_path is not None and not report_path.exists()
    if report_path:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.open("a").close()  # a directory or an unwritable file raises here
    try:
        if dump_root:
            dump_root.mkdir(parents=True, exist_ok=True)
        suite_results = []
        dumps_all: dict[str, np.ndarray] = {}
        for name in scenario.suites:
            func = _SUITE_FUNCS[name]
            started = time.perf_counter()
            try:
                result, dumps = func(scenario)
            except Exception as exc:  # numerical failure inside a suite
                result, dumps = (
                    SuiteResult(name, "fail", reason=f"{type(exc).__name__}: {exc}"),
                    {},
                )
            wall_time_s = time.perf_counter() - started
            suite_results.append(dataclasses.replace(result, wall_time_s=wall_time_s))
            dumps_all.update(dumps)

        report = RunReport(scenario=scenario.echo(), suites=tuple(suite_results))
        if report_path:
            report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    except BaseException:
        if new_report:
            report_path.unlink(missing_ok=True)
        raise
    for name, array in dumps_all.items():
        write_tensor_csv(dump_root / f"{name}.csv", array)
    return report
