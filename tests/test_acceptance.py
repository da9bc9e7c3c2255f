"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its pinned tolerance.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete."""

import time

import numpy as np
import pytest

from finslergeo import (
    AdmissibilityError,
    Frame,
    ProfilePair,
    Scenario,
    build_metric,
    christoffel,
    christoffel_definitional,
    curvature_closed,
    curvature_fd_oracle,
    hh_curvature,
    kinematic_identity_residuals,
    kinematics,
    nabla_b,
    parse_scenario,
    reduced_curvature,
    ricci_closed,
    ricci_from_curvature,
    run,
    spray_coefficients,
    spray_derivatives,
)
from finslergeo.cli import main
from finslergeo.suites import suite_vacuum
from finslergeo.tensors import gap, max_abs, rel_frobenius

from conftest import (
    nabla_b_definitional,
    nabla_c,
    nabla_c_definitional,
    sample_point,
    spray_first_numeric,
)

RADII = (0.5, 1.0, 2.0, 5.0, 10.0)


def _report(label: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{label}: {detail}"


def test_criterion_1_vacuum_verification():
    """N = 4 Ricci components below 1e-9 and coefficients below 1e-10 (both in
    1/r^2 units) at xi = 1 over the preset radii, in under a second."""
    started = time.perf_counter()
    schwarzschild = ProfilePair.schwarzschild_isotropic(1.0)
    result, _ = suite_vacuum(Scenario(n_dim=4, profile=schwarzschild, radii=RADII))
    checks = {check.name: check for check in result.checks}
    elapsed = time.perf_counter() - started
    worst_ricci = checks["ricci_scaled"].residual_max
    worst_coeff = checks["ricci_coefficients_scaled"].residual_max
    ok = worst_ricci < 1e-9 and worst_coeff < 1e-10 and elapsed < 1.0
    _report(
        "1 vacuum",
        ok,
        f"max|Ricci| r^2 = {worst_ricci:.2e} < 1e-9, "
        f"max coeff r^2 = {worst_coeff:.2e} < 1e-10, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_three_way_curvature_agreement():
    """Closed, reduced, and finite-difference curvature agree pairwise to
    1e-6 relative Frobenius at 5 radii, in under 10 s."""
    started = time.perf_counter()
    frame = Frame.standard(4, -1)
    pair = ProfilePair.schwarzschild_isotropic(1.0)
    rng = np.random.default_rng(2)
    worst = 0.0
    for r in RADII:
        state = build_metric(frame, pair, sample_point(rng, 4, r, r))
        closed = curvature_closed(state)
        reduced = reduced_curvature(state)
        oracle = curvature_fd_oracle(state)
        worst = max(
            worst,
            rel_frobenius(closed, oracle),
            rel_frobenius(reduced, closed),
            rel_frobenius(reduced, oracle),
        )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 10.0
    _report("2 curvature three-way", ok, f"worst gap {worst:.2e} < 1e-6, {elapsed:.2f}s < 10s")


def test_criterion_3_covariant_derivative_identities():
    """nabla b closed vs definitional to 1e-9; the double fiber contraction
    identity to 1e-10 over 100 fibers; nabla c closed vs oracle to 1e-8."""
    frame = Frame.standard(4, -1)
    pair = ProfilePair.schwarzschild_isotropic(1.0)
    rng = np.random.default_rng(3)
    worst_b = worst_fiber = worst_c = 0.0
    for _ in range(10):
        state = build_metric(frame, pair, sample_point(rng, 4, 0.5, 6.0))
        nb = nabla_b(state)
        worst_b = max(worst_b, max_abs(nb - nabla_b_definitional(state)))
        worst_c = max(worst_c, max_abs(nabla_c(state) - nabla_c_definitional(state)))
        for _ in range(10):
            y = rng.normal(size=4)
            lhs = y @ nb @ y
            rhs = (2.0 / state.c) * (state.b_low @ y) * (state.dc_low @ y)
            worst_fiber = max(worst_fiber, abs(lhs - rhs))
    ok = worst_b < 1e-9 and worst_fiber < 1e-10 and worst_c < 1e-8
    _report(
        "3 covariant derivatives",
        ok,
        f"nabla_b {worst_b:.2e} < 1e-9, fiber identity {worst_fiber:.2e} < 1e-10, "
        f"nabla_c {worst_c:.2e} < 1e-8",
    )


def test_criterion_4_christoffel_cross_check():
    """Closed Christoffel symbols vs the definitional numeric formula, all
    components, 1e-8, at 10 random points for each profile family."""
    frame = Frame.standard(4, -1)
    rng = np.random.default_rng(4)
    worst = 0.0
    for pair in (
        ProfilePair.schwarzschild_isotropic(1.0),
        ProfilePair.rational((0.8, 0.1), (1.0, 0.2)),
    ):
        for _ in range(10):
            state = build_metric(frame, pair, sample_point(rng, 4, 0.5, 6.0))
            worst = max(worst, max_abs(christoffel(state) - christoffel_definitional(state)))
    ok = worst < 1e-8
    _report("4 christoffel cross-check", ok, f"worst gap {worst:.2e} < 1e-8")


def test_criterion_5_finsleroid_identity_suite():
    """Every printed kinematic identity (gradient of nu, its ratio derivative,
    the fiber covector rule, and the contraction set) below 1e-10 at 100
    seeded admissible (x, y)."""
    frame = Frame.standard(4, 1)
    pair = ProfilePair.rational((0.8, 0.1), (1.0, 0.2))
    rng = np.random.default_rng(5)
    worst: dict[str, float] = {}
    count = 0
    for _ in range(60 * 100):  # at most 60 tries per sample
        if count == 100:
            break
        x = sample_point(rng, 4, 0.8, 5.0)
        y = rng.normal(size=4)
        state = build_metric(frame, pair, x)
        try:
            fib = kinematics(state, y, 0.3)
        except AdmissibilityError:
            continue
        count += 1
        for name, value in kinematic_identity_residuals(fib).items():
            worst[name] = max(worst.get(name, 0.0), value)
    assert count == 100, f"only {count} admissible samples in 6000 tries"
    bad = {k: v for k, v in worst.items() if v >= 1e-10}
    _report(
        "5 finsleroid identities",
        not bad,
        f"100 samples, worst residual {max(worst.values()):.2e} < 1e-10"
        + (f", failing: {bad}" if bad else ""),
    )


def test_criterion_6_spray_consistency():
    """Homogeneity y^k G^i_k = 2 G^i to 1e-9; closed first y-derivative vs
    numeric to 1e-7; charge-0 collapse to the geodesic spray to 1e-12."""
    frame_pd = Frame.standard(4, 1)
    pair_pd = ProfilePair.rational((0.8, 0.1), (1.0, 0.2))
    rng = np.random.default_rng(6)
    worst_euler = worst_gap = 0.0
    for _ in range(10):
        x = sample_point(rng, 4, 0.8, 5.0)
        y = rng.normal(size=4)
        state = build_metric(frame_pd, pair_pd, x)
        _, first, _ = spray_derivatives(state, y, 0.3)
        g1 = spray_coefficients(state, y, 0.3)
        worst_euler = max(worst_euler, max_abs(first @ y - 2.0 * g1))
        worst_gap = max(worst_gap, gap(first, spray_first_numeric(state, y, 0.3), 2))

    frame = Frame.standard(4, -1)
    pair = ProfilePair.schwarzschild_isotropic(1.0)
    worst_collapse = 0.0
    for _ in range(10):
        x = sample_point(rng, 4, 0.5, 5.0)
        y = rng.normal(size=4)
        state = build_metric(frame, pair, x)
        want = np.einsum("ikm,k,m->i", christoffel(state), y, y)
        worst_collapse = max(worst_collapse, max_abs(spray_coefficients(state, y, 0.0) - want))

    ok = worst_euler < 1e-9 and worst_gap < 1e-7 and worst_collapse < 1e-12
    _report(
        "6 spray consistency",
        ok,
        f"euler {worst_euler:.2e} < 1e-9, closed-vs-numeric {worst_gap:.2e} < 1e-7, "
        f"charge-0 collapse {worst_collapse:.2e} < 1e-12",
    )


def test_criterion_7_curvature_bundle_riemannian_limit():
    """With charge 0 the hh-curvature bundle reproduces the Riemann curvature
    contracted with y^n y^m (sign fixed at the first probe then held) to 1e-5
    at 5 seeded (x, y), in under 30 s."""
    started = time.perf_counter()
    frame = Frame.standard(4, -1)
    pair = ProfilePair.schwarzschild_isotropic(1.0)
    rng = np.random.default_rng(7)
    sign = 0.0
    worst = 0.0
    for k in range(5):
        x = sample_point(rng, 4, 0.6, 4.0)
        y = rng.normal(size=4)
        state = build_metric(frame, pair, x)
        curvature = hh_curvature(state, y, 0.0)[0]
        comparison = np.einsum("nikm,n,m->ik", curvature_closed(state), y, y)
        if k == 0:
            sign = 1.0 if max_abs(curvature - comparison) < max_abs(
                curvature + comparison
            ) else -1.0
        worst = max(worst, rel_frobenius(curvature, sign * comparison))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 30.0
    _report(
        "7 bundle riemannian limit",
        ok,
        f"sign {sign:+.0f}, worst gap {worst:.2e} < 1e-5, {elapsed:.2f}s < 30s",
    )


def test_criterion_8_flat_space_zeros():
    """Constant profiles matching the signature: Christoffels, curvature,
    Ricci, spray correction, and the bundle all vanish below 1e-10."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for eps, m0, charge in ((1, 1.0, 0.3), (-1, -1.0, 0.0)):
        frame = Frame.standard(4, eps)
        pair = ProfilePair.constant(1.0, m0)
        x = sample_point(rng, 4, 1.0, 3.0)
        y = rng.normal(size=4)
        if eps == 1:
            y[1:] += 1.0
        state = build_metric(frame, pair, x)
        ric, _ = ricci_closed(state)
        # The geodesic part of the spray is zero here too.
        bundle, spray_correction, _ = hh_curvature(state, y, charge)
        worst = max(
            worst,
            max_abs(christoffel(state)),
            max_abs(curvature_closed(state)),
            max_abs(curvature_fd_oracle(state)),
            max_abs(ric),
            max_abs(ricci_from_curvature(curvature_closed(state))),
            max_abs(spray_correction),
            max_abs(bundle),
        )
    ok = worst < 1e-10
    _report("8 flat-space zeros", ok, f"worst magnitude {worst:.2e} < 1e-10")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, capsys):
    """Identical seeded runs produce identical report bodies; the N = 5
    vacuum scenario exits 1."""
    scenario_text = (
        "[scenario]\n"
        "signature = 1\n"
        "charge = 0.3\n"
        "seed = 42\n"
        "suites = finsler-identities, finsler-curvature\n"
        "[profile]\n"
        "kind = rational\n"
        "c_coeffs = 0.8, 0.1\n"
        "m_coeffs = 1.0, 0.2\n"
        "[samples]\n"
        "fibers = 10\n"
    )
    body1 = run(parse_scenario(scenario_text)).body_json()
    body2 = run(parse_scenario(scenario_text)).body_json()

    bad = tmp_path / "vacuum5.ini"
    bad.write_text("[scenario]\ndimension = 5\nsuites = vacuum\n", encoding="utf-8")
    good = tmp_path / "vacuum4.ini"
    good.write_text("[scenario]\nsuites = vacuum\n", encoding="utf-8")
    code_bad = main(["run", str(bad)])
    code_good = main(["run", str(good)])
    capsys.readouterr()  # CLI summaries are not part of this test's output

    ok = body1 == body2 and code_bad == 1 and code_good == 0
    _report(
        "9 cli determinism + exit codes",
        ok,
        f"bodies identical: {body1 == body2}, N=5 exit {code_bad} == 1, N=4 exit {code_good} == 0",
    )
