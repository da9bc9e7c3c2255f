"""Verification suites driven by a Scenario.

Each suite samples points (and fiber vectors) deterministically from a seed
derived from the scenario seed and the suite's fixed position (`vacuum` from
the scenario seed), builds each chunk's states from its points, evaluates
its residuals on them (one residual per sample, in draw order), and returns
per-check statistics.  A suite whose preconditions fail is marked skipped
with the reason, and the run continues.
"""

from __future__ import annotations

import dataclasses
import time
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
from .report import RunReport, SuiteResult, _planned
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
from .tensors import (
    _per_sample,
    dot,
    matvec,
    max_abs,
    rel_frobenius,
)
from .vacuum import reduction_residuals, verify_vacuum


def _suite_rng(scenario: Scenario, suite: str) -> np.random.Generator:
    return np.random.default_rng([scenario.seed, SUITES.index(suite)])


def _sampling_range(profile: ProfilePair) -> tuple[float, float]:
    lo = 1.2 * profile.r_min if profile.r_min > 0.0 else 0.5
    return lo, max(8.0, 4.0 * lo)


def _sample_point(rng: np.random.Generator, n_dim: int, lo: float, hi: float) -> np.ndarray:
    # Standard chart: coordinate 0 is the axis direction, the rest spatial.
    direction = rng.normal(size=n_dim - 1)
    direction /= np.linalg.norm(direction)
    x = np.empty(n_dim)
    x[0] = rng.uniform(-1.0, 1.0)
    x[1:] = rng.uniform(lo, hi) * direction
    return x


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
    vector.  A block of tries is drawn in try order and judged in passes:
    each builds the metric (and, given a ``charge``, the kinematics) at the
    block's surviving tries in one call, and each DomainError or
    AdmissibilityError drops the tries it marks, counted by cause.  A block
    never holds more tries than could still be accepted, so the generator
    stops where a try-by-try loop would."""
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    lo, hi = _sampling_range(scenario.profile)
    cone = charge is not None
    fiber = fiber or cone
    causes = [*_REJECTIONS.values(), "inside the margin"] if cone else ["outside the domain"]
    rejected = dict.fromkeys(causes, 0)
    points, fibers = [], []
    tries = accepted = 0
    while accepted < count and tries < 60 * count:
        block = min(count - accepted, 60 * count - tries)
        xs, ys = np.empty((2, block, scenario.n_dim))
        for i in range(block):
            xs[i] = _sample_point(rng, scenario.n_dim, lo, hi)
            if fiber:
                ys[i] = rng.normal(size=scenario.n_dim)
        tries += block
        kept = np.ones(block, dtype=bool)
        while True:
            try:
                state = build_metric(frame, scenario.profile, xs[kept])
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
# Individual suites
# ---------------------------------------------------------------------------


def _skipped(name: str, reason: str):
    return SuiteResult(name, "skipped", reason=reason), {}


def _verdict(name: str, checks, dumps=None):
    """The suite's result, a pass iff every check passed, and its dumps."""
    status = "pass" if all(c.passed for c in checks) else "fail"
    return SuiteResult(name, status, tuple(checks)), dumps or {}


def suite_frame_identities(scenario: Scenario):
    rng = _suite_rng(scenario, "frame-identities")
    xs, _ = _sample_blocks(scenario, rng, scenario.n_points)
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    eye = np.eye(scenario.n_dim)
    u, e_up = frame.u_low, frame.e_up

    def residuals(rows) -> dict[str, np.ndarray]:
        state = build_metric(frame, scenario.profile, xs[rows])
        c2 = state.c**2
        # The frame identities do not depend on the point: the same value per sample.
        return {name: np.full(c2.shape, value) for name, value in frame.identities.items()} | {
            "metric_inverse": max_abs(state.a_low @ state.a_up - eye, 2),
            "axis_vector_norm": np.abs(dot(state.b_up, state.b_low) - c2),
            "axis_vector_transversality": max_abs(state.b_up @ u, 1),
            "axis_vector_form": max_abs(state.b_up - c2[:, None] * e_up, 1),
            "metric_raise_consistency": max_abs(matvec(state.a_up, state.b_low) - state.b_up, 1),
            "radial_norm": np.abs(dot(state.n_up, state.n_low) - 1.0),
            "radial_axis_orthogonality": np.abs(dot(state.n_low, state.b_up)),
            "radial_raise_signature": max_abs(
                state.n_up - matvec(frame.epsilon * frame.background_inv, state.n_low), 1
            ),
            "axis_c_orthogonality": np.abs(dot(state.b_up, state.dc_low)),
        }

    rows = _per_sample(scenario.n_points, 8 * scenario.n_dim**3, residuals)
    checks = _planned(rows, [(name, "exact", 1.0) for name in rows], scenario.tolerances)
    return _verdict("frame-identities", checks)


def suite_christoffel_xcheck(scenario: Scenario):
    rng = _suite_rng(scenario, "christoffel-xcheck")
    xs, _ = _sample_blocks(scenario, rng, scenario.n_points)
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)

    def residuals(rows) -> dict[str, np.ndarray]:
        state = build_metric(frame, scenario.profile, xs[rows])
        closed = state.gamma
        return {
            "closed_vs_definitional": max_abs(closed - christoffel_definitional(state), 3),
            "lower_symmetry": max_abs(closed - np.swapaxes(closed, -1, -2), 3),
        }

    rows = _per_sample(scenario.n_points, 8 * scenario.n_dim**3, residuals)
    check_plan = [("closed_vs_definitional", "closed_form", 1.0), ("lower_symmetry", "exact", 1.0)]
    checks = _planned(rows, check_plan, scenario.tolerances)
    return _verdict("christoffel-xcheck", checks)


def _scaled(residual: np.ndarray, *operands: np.ndarray) -> np.ndarray:
    """Per-sample residuals over max(1, max|operand|) of the operands' components."""
    size = np.max([max_abs(op, op.ndim - residual.ndim) for op in operands], axis=0)
    return residual / np.maximum(1.0, size)


def suite_curvature_xcheck(scenario: Scenario):
    """Two checks read tensors that grow like 1/c^2 near c = 0, so they are _scaled by
    their operands: the lowered a_is R^s_nkm (antisymmetry_first_pair_lowered), and
    the traced and the decomposed Ricci (ricci_decomposition_consistency)."""
    rng = _suite_rng(scenario, "curvature-xcheck")
    xs, _ = _sample_blocks(scenario, rng, scenario.n_points)
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)

    def residuals(rows) -> dict[str, np.ndarray]:
        state = build_metric(frame, scenario.profile, xs[rows])
        closed = curvature_closed(state)
        oracle = curvature_fd_oracle(state)
        ric_decomposed, _ = ricci_closed(state)
        n = scenario.n_dim
        # lowered[n, i, k, m] = a_is a_n^s_km, one stacked matmul over (k, m)
        lowered = (state.a_low[:, None] @ closed.reshape(-1, n, n, n * n)).reshape(closed.shape)
        ric_traced = ricci_from_curvature(closed)
        return {
            "closed_vs_fd_oracle": rel_frobenius(closed, oracle, 4),
            "block_form_equivalence": max_abs(closed - curvature_presubstitution(state), 4),
            "ricci_decomposition_consistency": _scaled(
                max_abs(ric_traced - ric_decomposed, 2), ric_traced, ric_decomposed
            ),
            "antisymmetry_last_pair": max_abs(closed + np.swapaxes(closed, -1, -2), 4),
            "antisymmetry_first_pair_lowered": _scaled(
                max_abs(lowered + np.swapaxes(lowered, -4, -3), 4), lowered
            ),
        }

    rows = _per_sample(scenario.n_points, 4 * scenario.n_dim**4, residuals)
    check_plan = [
        ("closed_vs_fd_oracle", "finite_difference", 1.0),
        ("block_form_equivalence", "exact", 1.0),
        ("ricci_decomposition_consistency", "algebraic", 10.0),
        ("antisymmetry_last_pair", "exact", 1.0),
        ("antisymmetry_first_pair_lowered", "exact", 10.0),
    ]
    checks = _planned(rows, check_plan, scenario.tolerances)
    dumps = {}
    if scenario.dump_dir:
        dumps["curvature_closed_sample"] = curvature_closed(
            build_metric(frame, scenario.profile, xs[0])
        )
    return _verdict("curvature-xcheck", checks, dumps)


def suite_vacuum(scenario: Scenario):
    if scenario.profile.kind != "schwarzschild_isotropic":
        return _skipped("vacuum", "requires the schwarzschild_isotropic profile")
    n = scenario.n_dim
    frame = Frame.standard(n, scenario.epsilon)
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

    def residuals(rows) -> dict[str, np.ndarray]:
        state = build_metric(frame, scenario.profile, xs[rows])
        return verify_vacuum(state, ys[rows], radii[rows])

    rows = _per_sample(len(radii), 4 * n**4, residuals)
    check_plan = [
        ("ricci_scaled", "algebraic", 10.0),  # 1e-9 in 1/r^2 units
        ("ricci_coefficients_scaled", "algebraic", 1.0),
        ("closed_vs_oracle", "finite_difference", 1.0),
        ("reduced_vs_closed", "closed_form", 1.0),
        ("axis_contractions", "algebraic", 10.0),
    ]
    dumps = {}
    if scenario.dump_dir:
        for r in radii.tolist():
            x = np.zeros(n)
            x[1] = r
            state = build_metric(frame, scenario.profile, x)
            dumps[f"vacuum_curvature_r{r!r}"] = curvature_closed(state)
    return _verdict("vacuum", _planned(rows, check_plan, scenario.tolerances), dumps)


def suite_schwarzschild_reductions(scenario: Scenario):
    if scenario.profile.kind != "schwarzschild_isotropic":
        return _skipped("schwarzschild-reductions", "requires the schwarzschild_isotropic profile")
    rng = _suite_rng(scenario, "schwarzschild-reductions")
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    xi = float(scenario.profile.params["xi"])
    xs, ys = np.empty((2, len(scenario.radii), scenario.n_dim))
    for i, r in enumerate(scenario.radii):
        xs[i] = _sample_point(rng, scenario.n_dim, r, r)
        ys[i] = rng.normal(size=scenario.n_dim)

    def residuals(rows) -> dict[str, np.ndarray]:
        x = xs[rows]
        state = build_metric(frame, scenario.profile, x)
        closed = curvature_closed(state)
        # Scaling xi -> lam*xi, x -> lam*x leaves (c, m) invariant and scales
        # curvature components by 1/lam^2; both scalings of a radius in turn.
        scaling = []
        for lam in (0.5, 2.0):
            scaled = build_metric(frame, ProfilePair.schwarzschild_isotropic(lam * xi), lam * x)
            scaling.append(max_abs(lam**2 * curvature_closed(scaled) - closed, 4))
        return reduction_residuals(state, ys[rows], closed) | {
            "scaling_covariance": np.stack(scaling, axis=-1).reshape(-1),
        }

    rows = _per_sample(len(xs), 4 * scenario.n_dim**4, residuals)
    check_plan = [
        ("reduced_vs_closed", "closed_form", 1.0),
        ("axis_contractions", "algebraic", 10.0),
        ("scaling_covariance", "algebraic", 1.0),
    ]
    return _verdict("schwarzschild-reductions", _planned(rows, check_plan, scenario.tolerances))


def suite_finsler_identities(scenario: Scenario):
    rng = _suite_rng(scenario, "finsler-identities")
    # The identity set involves the charge through nu; if the scenario runs
    # charge 0 the suite still validates the charged formulas at 0.3.
    charge = scenario.charge if scenario.charge != 0.0 else 0.3
    xs, ys = _sample_blocks(scenario, rng, scenario.n_fibers, charge=charge)
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)

    def residuals(rows) -> dict[str, np.ndarray]:
        fib = kinematics(build_metric(frame, scenario.profile, xs[rows]), ys[rows], charge)
        res = kinematic_identity_residuals(fib)
        # Kept for bench/workloads.json only; a bench-only change drops it (ROADMAP item 10).
        res["e_fiber_derivative_fd"] = res["e_fiber_derivative"]
        return res

    rows = _per_sample(scenario.n_fibers, 8 * scenario.n_dim**3, residuals)
    check_plan = [
        (name, "closed_form" if name == "e_fiber_derivative_fd" else "algebraic", 1.0)
        for name in rows
    ]
    return _verdict("finsler-identities", _planned(rows, check_plan, scenario.tolerances))


def suite_finsler_curvature(scenario: Scenario):
    rng = _suite_rng(scenario, "finsler-curvature")
    charge = scenario.charge
    # At charge 0 (the Riemannian limit) no cone bounds the fibers.
    xs, ys = _sample_blocks(
        scenario, rng, scenario.n_fibers, fiber=True, charge=charge if charge != 0.0 else None
    )
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)

    def evaluate(rows) -> dict[str, np.ndarray]:
        state, y = build_metric(frame, scenario.profile, xs[rows]), ys[rows]
        derivs = spray_derivatives(state, y, charge)
        g1 = derivs.spray
        g2 = spray_coefficients(state, 2.0 * y, charge)
        curvature = hh_curvature(derivs)
        out = {
            "spray_homogeneity": max_abs(g2 - 4.0 * g1, 1),
            "euler_identity": max_abs(matvec(derivs.first_closed, y) - 2.0 * g1, 1),
            "spray_first_derivative_gap": derivs.first_gap,
            "bundle_y_contraction": max_abs(matvec(curvature, y), 1),
            "bundle_magnitude": max_abs(curvature, 2),
            "bundle": curvature,
        }
        if charge == 0.0:
            out["riemann_limit"] = rel_frobenius(curvature, curvature_dot(state, y), 2)
        return out

    # The spray derivatives hold two N x N arrays at each of a sample's N
    # complex rows (the factor counts the 4N real rows of central
    # differences); riemann_limit contracts the closed curvature with y, so
    # no sample holds an N^4 array at either charge.
    rows = _per_sample(scenario.n_fibers, 8 * scenario.n_dim**3, evaluate)
    check_plan = [
        ("spray_homogeneity", "exact", 1.0),
        ("euler_identity", "algebraic", 10.0),
        ("spray_first_derivative_gap", "finite_difference", 0.1),
        ("bundle_y_contraction", "finite_difference", 1.0),
    ]
    if charge == 0.0:
        check_plan.append(("riemann_limit", "bundle", 1.0))
    check_plan.append(("bundle_magnitude", None, 1.0))
    checks = _planned(rows, check_plan, scenario.tolerances)
    dumps = {}
    if scenario.dump_dir:
        dumps["finsler_bundle_sample"] = rows["bundle"][0]
    return _verdict("finsler-curvature", checks, dumps)


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
    nothing).  The output directories are created before the first suite
    runs, so an unwritable path raises OSError before any work is done.
    """
    report_path = Path(scenario.report_path) if scenario.report_path else None
    dump_root = Path(scenario.dump_dir) if scenario.dump_dir else None
    if report_path:
        report_path.parent.mkdir(parents=True, exist_ok=True)
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
        suite_results.append(dataclasses.replace(result, wall_time_s=time.perf_counter() - started))
        dumps_all.update(dumps)

    report = RunReport(scenario=scenario.echo(), suites=tuple(suite_results))

    if report_path:
        report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    for name, array in dumps_all.items():
        write_tensor_csv(dump_root / f"{name}.csv", array)
    return report
