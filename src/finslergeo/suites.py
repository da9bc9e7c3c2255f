"""Verification suites driven by a Scenario.

Each suite samples deterministically from a seed derived from the scenario
seed and the suite's fixed position, evaluates its residuals on stacked
chunks of samples (one residual per sample, in draw order), and returns
per-check statistics.  A suite whose preconditions fail is marked skipped
with the reason, and the run continues.
"""

from __future__ import annotations

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
from .report import CheckResult, RunReport, SuiteResult
from .riemann import (
    Frame,
    build_metric,
    christoffel_definitional,
    curvature_closed,
    curvature_fd_oracle,
    curvature_presubstitution,
    ricci_closed,
    ricci_from_curvature,
    take,
    _combine,
)
from .scenario import SUITES, Scenario
from .tensors import (
    DiffConfig,
    _per_sample,
    dot,
    fd_partials,
    matvec,
    max_abs,
    outer,
    rel_frobenius,
)
from .vacuum import contraction_identities, reduced_curvature, verify_vacuum


def _config(scenario: Scenario) -> DiffConfig:
    return DiffConfig(tolerances=dict(scenario.tolerances))


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


_IN_DOMAIN = "points fell in the profile's domain"
_REJECTIONS = {
    DomainError: "outside the domain",
    DegenerateFiberError: "with q^2 <= 0",
    OutsideConeError: "with nu <= 0",
}


def _sampling_failure(what: str, accepted: int, count: int, tries: int, rejected: dict):
    causes = ", ".join(f"{n} {cause}" for cause, n in rejected.items())
    return SamplingError(
        f"only {accepted} of {count} {what} in {tries} tries (rejected: {causes}); "
        "nothing was verified"
    )


def _survivors(evaluate, size: int, rejected: dict):
    """``evaluate(keep)`` on the rows ``keep`` of a stack of ``size`` that it
    accepts, and that mask: each DomainError or AdmissibilityError drops
    the rows it marks, counted in ``rejected`` by cause."""
    keep = np.ones(size, dtype=bool)
    while True:
        try:
            return evaluate(keep), keep
        except (DomainError, AdmissibilityError) as exc:
            rejected[_REJECTIONS[type(exc)]] += int(np.sum(exc.rows))
            keep[np.flatnonzero(keep)[exc.rows]] = False


def _sample_blocks(scenario: Scenario, rng: np.random.Generator, count: int, cone=None):
    """``count`` samples in draw order, for at most 60 tries per sample: one
    stacked MetricState, or given ``cone`` = (charge, relativistic, margin)
    one FinsleroidState whose fibers lie that margin inside the cone.

    Each try draws a point (and a fiber vector, given ``cone``).  A block
    of tries is drawn in try order and judged by one build_metric (and one
    kinematics) call; it never holds more tries than could still be
    accepted, so the generator stops where a try-by-try loop would."""
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    lo, hi = _sampling_range(scenario.profile)
    causes = [*_REJECTIONS.values(), "inside the margin"] if cone else ["outside the domain"]
    rejected = dict.fromkeys(causes, 0)
    parts = []
    tries = accepted = 0
    while accepted < count and tries < 60 * count:
        block = min(count - accepted, 60 * count - tries)
        xs, ys = np.empty((2, block, scenario.n_dim))
        for i in range(block):
            xs[i] = _sample_point(rng, scenario.n_dim, lo, hi)
            if cone:
                ys[i] = rng.normal(size=scenario.n_dim)
        tries += block
        state, kept = _survivors(
            lambda keep: build_metric(frame, scenario.profile, xs[keep]), block, rejected
        )
        if cone:
            charge, relativistic, margin = cone
            metric, ys = state, ys[kept]
            state, _ = _survivors(
                lambda keep: kinematics(take(metric, keep), ys[keep], charge, relativistic),
                len(ys),
                rejected,
            )
            kept = (state.q >= margin * (np.sqrt(np.abs(state.s2)) + np.abs(state.b))) & (
                state.nu >= margin * np.maximum(state.q, 1e-300)
            )
            rejected["inside the margin"] += int(np.sum(~kept))
            state = take(state, kept)
        parts.append(state)
        accepted += int(np.sum(kept))
    if accepted < count:
        what = "fiber vectors fell well inside the admissible cone" if cone else _IN_DOMAIN
        raise _sampling_failure(what, accepted, count, tries, rejected)
    return _combine(parts, np.concatenate)


def _sample_states(
    scenario: Scenario, rng: np.random.Generator, count: int, with_fiber: bool = False
):
    """``count`` points where the profile is defined, for at most 60 tries
    per point, as one stacked MetricState in draw order; ``with_fiber``
    pairs each with a normal fiber vector drawn right after it and returns
    (metric, ys)."""
    if not with_fiber:
        return _sample_blocks(scenario, rng, count)
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    lo, hi = _sampling_range(scenario.profile)
    # Draw as if every try were accepted; if one is not, the draws after it
    # differ, so the generator rewinds and the tries are redrawn one by one.
    start = rng.bit_generator.state
    xs, ys = np.empty((2, count, scenario.n_dim))
    for i in range(count):
        xs[i] = _sample_point(rng, scenario.n_dim, lo, hi)
        ys[i] = rng.normal(size=scenario.n_dim)
    try:
        return build_metric(frame, scenario.profile, xs), ys
    except DomainError:
        rng.bit_generator.state = start
    # A fiber is drawn only after an accepted point, so each radius is
    # tested as it is drawn, and the metric is built once at the end.
    xs, ys = [], []
    tries = 0
    while len(xs) < count and tries < 60 * count:
        tries += 1
        x = _sample_point(rng, scenario.n_dim, lo, hi)
        try:
            scenario.profile.jets(frame.radius(x))
        except DomainError:
            continue
        xs.append(x)
        ys.append(rng.normal(size=scenario.n_dim))
    if len(xs) < count:
        rejected = {"outside the domain": tries - len(xs)}
        raise _sampling_failure(_IN_DOMAIN, len(xs), count, tries, rejected)
    return build_metric(frame, scenario.profile, np.stack(xs)), np.stack(ys)


def _sample_admissible(
    scenario: Scenario,
    rng: np.random.Generator,
    count: int,
    relativistic: bool,
    charge: float | None = None,
    margin: float = 0.05,
):
    """Finsleroid states inside the admissible cone, with margins so
    derivative stencils stay inside too, for at most 60 tries per state,
    as one stacked FinsleroidState in draw order."""
    charge = scenario.charge if charge is None else charge
    return _sample_blocks(scenario, rng, count, (charge, relativistic, margin))


# ---------------------------------------------------------------------------
# Individual suites
# ---------------------------------------------------------------------------


def _skipped(name: str, reason: str):
    return SuiteResult(name, "skipped", reason=reason), {}


def _planned(rows: dict, plan: list, cfg: DiffConfig) -> list:
    """One check per (name, tolerance class, scale) of ``plan``."""
    return [
        CheckResult.from_residuals(name, rows[name], cfg.tolerance(klass, scale), klass)
        for name, klass, scale in plan
    ]


def _verdict(name: str, checks, dumps=None):
    """The suite's result, a pass iff every check passed, and its dumps."""
    status = "pass" if all(c.passed for c in checks) else "fail"
    return SuiteResult(name, status, tuple(checks)), dumps or {}


def suite_frame_identities(scenario: Scenario, cfg: DiffConfig):
    rng = _suite_rng(scenario, "frame-identities")
    states = _sample_states(scenario, rng, scenario.n_points)
    frame = states.frame
    eye = np.eye(scenario.n_dim)
    e, e_up = frame.e_low, frame.e_up
    u, u_up, u_mix = frame.u_low, frame.u_up, frame.u_mix
    # Frame identities do not depend on the point: the same value per sample.
    frame_rows = {
        "axis_normalisation": abs(e @ e_up - 1.0),
        "axis_transversality": max_abs(e_up @ u),
        "transverse_inverse": max_abs(u_up @ u - (eye - np.outer(e_up, e))),
        "transverse_mixed": max_abs(u_mix - (eye - np.outer(e, e_up))),
    }

    def residuals(rows) -> dict[str, np.ndarray]:
        state = take(states, rows)
        c2 = state.c**2
        return {name: np.full(c2.shape, value) for name, value in frame_rows.items()} | {
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

    rows = _per_sample(scenario.n_points, scenario.n_dim, residuals)
    checks = [
        CheckResult.from_residuals(name, values, cfg.tolerance("exact"), "exact")
        for name, values in rows.items()
    ]
    return _verdict("frame-identities", checks)


def suite_christoffel_xcheck(scenario: Scenario, cfg: DiffConfig):
    rng = _suite_rng(scenario, "christoffel-xcheck")
    states = _sample_states(scenario, rng, scenario.n_points)

    def residuals(rows) -> dict[str, np.ndarray]:
        state = take(states, rows)
        closed = state.gamma
        return {
            "closed_vs_definitional": max_abs(closed - christoffel_definitional(state, cfg), 3),
            "lower_symmetry": max_abs(closed - np.swapaxes(closed, -1, -2), 3),
        }

    rows = _per_sample(scenario.n_points, scenario.n_dim, residuals)
    check_plan = [("closed_vs_definitional", "closed_form", 1.0), ("lower_symmetry", "exact", 1.0)]
    checks = _planned(rows, check_plan, cfg)
    return _verdict("christoffel-xcheck", checks)


def suite_curvature_xcheck(scenario: Scenario, cfg: DiffConfig):
    rng = _suite_rng(scenario, "curvature-xcheck")
    states = _sample_states(scenario, rng, scenario.n_points)

    def residuals(rows) -> dict[str, np.ndarray]:
        state = take(states, rows)
        closed = curvature_closed(state)
        oracle = curvature_fd_oracle(state, cfg)
        ric_decomposed, _ = ricci_closed(state)
        lowered = np.einsum("...is,...nskm->...nikm", state.a_low, closed)
        return {
            "closed_vs_fd_oracle": rel_frobenius(closed, oracle, 4),
            "block_form_equivalence": max_abs(closed - curvature_presubstitution(state), 4),
            "ricci_decomposition_consistency": max_abs(
                ricci_from_curvature(closed) - ric_decomposed, 2
            ),
            "antisymmetry_last_pair": max_abs(closed + np.swapaxes(closed, -1, -2), 4),
            "antisymmetry_first_pair_lowered": max_abs(
                lowered + np.swapaxes(lowered, -4, -3), 4
            ),
        }

    rows = _per_sample(scenario.n_points, scenario.n_dim, residuals)
    check_plan = [
        ("closed_vs_fd_oracle", "finite_difference", 1.0),
        ("block_form_equivalence", "exact", 1.0),
        ("ricci_decomposition_consistency", "algebraic", 10.0),
        ("antisymmetry_last_pair", "exact", 1.0),
        ("antisymmetry_first_pair_lowered", "exact", 10.0),
    ]
    checks = _planned(rows, check_plan, cfg)
    dumps = {}
    if scenario.dump_dir:
        dumps["curvature_closed_sample"] = curvature_closed(take(states, 0))
    return _verdict("curvature-xcheck", checks, dumps)


def suite_vacuum(scenario: Scenario, cfg: DiffConfig):
    if scenario.profile.kind != "schwarzschild_isotropic":
        return _skipped("vacuum", "requires the schwarzschild_isotropic profile")
    xi = float(scenario.profile.params["xi"])
    checks = verify_vacuum(xi, scenario.radii, scenario.n_dim, seed=scenario.seed, config=cfg)
    dumps = {}
    if scenario.dump_dir:
        frame = Frame.standard(scenario.n_dim, scenario.epsilon)
        for r in scenario.radii:
            x = np.zeros(scenario.n_dim)
            x[1] = r
            state = build_metric(frame, scenario.profile, x)
            dumps[f"vacuum_curvature_r{r:g}"] = curvature_closed(state)
    return _verdict("vacuum", checks, dumps)


def suite_schwarzschild_reductions(scenario: Scenario, cfg: DiffConfig):
    if scenario.profile.kind != "schwarzschild_isotropic":
        return _skipped(
            "schwarzschild-reductions",
            "requires the schwarzschild_isotropic profile",
        )
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
        contractions = contraction_identities(state, ys[rows], closed)
        # Scaling xi -> lam*xi, x -> lam*x leaves (c, m) invariant and scales
        # curvature components by 1/lam^2; both scalings of a radius in turn.
        scaling = []
        for lam in (0.5, 2.0):
            scaled = build_metric(frame, ProfilePair.schwarzschild_isotropic(lam * xi), lam * x)
            scaling.append(max_abs(lam**2 * curvature_closed(scaled) - closed, 4))
        return {
            "reduced_vs_closed": rel_frobenius(reduced_curvature(state), closed, 4),
            "axis_contractions": np.max(list(contractions.values()), axis=0),
            "scaling_covariance": np.stack(scaling, axis=-1).reshape(-1),
        }

    rows = _per_sample(len(xs), scenario.n_dim, residuals)
    check_plan = [
        ("reduced_vs_closed", "closed_form", 1.0),
        ("axis_contractions", "algebraic", 10.0),
        ("scaling_covariance", "algebraic", 1.0),
    ]
    checks = _planned(rows, check_plan, cfg)
    return _verdict("schwarzschild-reductions", checks)


def _relativistic_mode(scenario: Scenario) -> bool:
    return scenario.allow_indefinite_finsler and scenario.epsilon == -1


def suite_finsler_identities(scenario: Scenario, cfg: DiffConfig):
    relativistic = _relativistic_mode(scenario)
    if scenario.epsilon != 1 and not scenario.allow_indefinite_finsler:
        return _skipped(
            "finsler-identities",
            "needs signature +1 (set allow_indefinite_finsler for exploratory runs)",
        )
    rng = _suite_rng(scenario, "finsler-identities")
    # The identity set involves the charge through nu; if the scenario runs
    # charge 0 the suite still validates the charged formulas at 0.3.
    charge = scenario.charge if scenario.charge != 0.0 else 0.3
    fibers = _sample_admissible(scenario, rng, scenario.n_fibers, relativistic, charge=charge)

    def residuals(rows) -> dict[str, np.ndarray]:
        fib = take(fibers, rows)
        res = kinematic_identity_residuals(fib)
        res["e_fiber_derivative_fd"] = _e_fiber_rule_fd(fib, cfg)
        return res

    rows = _per_sample(scenario.n_fibers, scenario.n_dim, residuals)
    # The printed identity suite is only claimed for the positive-definite
    # convention; exploratory indefinite runs report residuals untested.
    identity_tol = None if relativistic else cfg.tolerance("algebraic")
    fd_tol = None if relativistic else cfg.tolerance("closed_form")
    checks = []
    for name, values in rows.items():
        tol = fd_tol if name == "e_fiber_derivative_fd" else identity_tol
        klass = "closed_form" if name == "e_fiber_derivative_fd" else "algebraic"
        checks.append(CheckResult.from_residuals(name, values, tol, klass))
    return _verdict("finsler-identities", checks)


def _e_fiber_rule_fd(fib, cfg: DiffConfig) -> np.ndarray:
    """Finite-difference cross-check of the e_k derivative rule, one
    residual per sample of the stacked state ``fib``."""
    rows = fib.metric.per_row()

    def e_field(ys: np.ndarray) -> np.ndarray:
        return kinematics(rows, ys, fib.charge, fib.relativistic).e_fiber

    d_e = fd_partials(e_field, fib.y, cfg, scales=np.linalg.norm(fib.y, axis=-1)[..., None])
    q2_col = fib.q2[..., None, None]
    rhs = (fib.b / fib.q2)[..., None, None] * fib.eta - outer(fib.v_low, fib.e_fiber) / q2_col
    return max_abs(d_e - np.swapaxes(rhs, -1, -2), 2)


def suite_finsler_curvature(scenario: Scenario, cfg: DiffConfig):
    if scenario.charge != 0.0 and scenario.epsilon != 1:
        # The spray closed forms are only asserted for the positive-definite
        # convention; charge 0 collapses to the Riemannian spray and runs on
        # any signature.
        return _skipped(
            "finsler-curvature",
            "charged runs need signature +1 (charge 0 runs on any signature)",
        )
    rng = _suite_rng(scenario, "finsler-curvature")
    charge = scenario.charge
    if charge == 0.0:
        metrics, ys = _sample_states(scenario, rng, scenario.n_fibers, with_fiber=True)
    else:
        fibers = _sample_admissible(scenario, rng, scenario.n_fibers, relativistic=False)
        metrics, ys = fibers.metric, fibers.y

    def evaluate(rows) -> dict[str, np.ndarray]:
        state, y = take(metrics, rows), ys[rows]
        derivs = spray_derivatives(state, y, charge, cfg)
        g1 = derivs.spray
        g2 = spray_coefficients(state, 2.0 * y, charge)
        curvature = hh_curvature(derivs, cfg)
        out = {
            "spray_homogeneity": max_abs(g2 - 4.0 * g1, 1),
            "euler_identity": max_abs(matvec(derivs.first_closed, y) - 2.0 * g1, 1),
            "spray_first_derivative_gap": derivs.first_gap,
            "bundle_y_contraction": max_abs(matvec(curvature, y), 1),
            "bundle_magnitude": max_abs(curvature, 2),
            "bundle": curvature,
        }
        if charge == 0.0:
            riem = curvature_closed(state)
            comparison = np.einsum("...nikm,...n,...m->...ik", riem, y, y)
            out["riemann_limit"] = rel_frobenius(curvature, comparison, 2)
        return out

    rows = _per_sample(scenario.n_fibers, scenario.n_dim, evaluate)
    check_plan = [
        ("spray_homogeneity", "exact", 1.0),
        ("euler_identity", "algebraic", 10.0),
        ("spray_first_derivative_gap", "finite_difference", 0.1),
        ("bundle_y_contraction", "finite_difference", 1.0),
    ]
    if charge == 0.0:
        check_plan.append(("riemann_limit", "bundle", 1.0))
    checks = _planned(rows, check_plan, cfg)
    checks.append(
        CheckResult.from_residuals("bundle_magnitude", rows["bundle_magnitude"], None, None)
    )
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
    nothing).
    """
    cfg = _config(scenario)
    suite_results = []
    dumps_all: dict[str, np.ndarray] = {}
    for name in scenario.suites:
        func = _SUITE_FUNCS[name]
        started = time.perf_counter()
        try:
            result, dumps = func(scenario, cfg)
        except Exception as exc:  # numerical failure inside a suite
            result, dumps = (
                SuiteResult(name, "fail", reason=f"{type(exc).__name__}: {exc}"),
                {},
            )
        elapsed = time.perf_counter() - started
        suite_results.append(
            SuiteResult(result.name, result.status, result.checks, result.reason, elapsed)
        )
        dumps_all.update(dumps)

    report = RunReport(scenario=scenario.echo(), suites=tuple(suite_results))

    if scenario.report_path:
        path = Path(scenario.report_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json() + "\n", encoding="utf-8")
    if scenario.dump_dir and dumps_all:
        dump_root = Path(scenario.dump_dir)
        dump_root.mkdir(parents=True, exist_ok=True)
        for name, array in dumps_all.items():
            write_tensor_csv(dump_root / f"{name}.csv", array)
    return report
