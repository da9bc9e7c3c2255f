"""The complex-step engine against the geometry: every admissibility test
reads the real part of a complex point, every oracle agrees with order-4
central differences (conftest.fd_reference) within the tolerance class of
the check that reads it, and the verdicts that central-difference noise
decided."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from finslergeo import (
    DegenerateFiberError,
    DomainError,
    Frame,
    OutsideConeError,
    ProfilePair,
    RadialSingularityError,
    build_metric,
    christoffel_definitional,
    curvature_fd_oracle,
    hh_curvature,
    kinematics,
    load_scenario,
    parse_scenario,
    spray_derivatives,
)
from finslergeo import finsler, riemann, suites
from finslergeo.suites import (
    _sample_blocks,
    _suite_rng,
    suite_christoffel_xcheck,
    suite_finsler_curvature,
)
from finslergeo.tensors import (
    COMPLEX_STEP,
    TOLERANCE_CLASSES,
    matvec,
    max_abs,
    rel_frobenius,
)

from conftest import fd_reference

ROOT = Path(__file__).resolve().parents[1]
STEP = 1j * COMPLEX_STEP
TOL = TOLERANCE_CLASSES

# The paper's shape: the pseudo-Finsleroid over signature -1 Schwarzschild.
PAPER_SHAPE = """
[scenario]
dimension = 7
signature = -1
charge = 0.3
seed = 2
suites = finsler-identities, finsler-curvature
[profile]
kind = schwarzschild_isotropic
xi = 1.0
[samples]
fibers = 100
"""
# c = 0.8 - 3/r goes to 0 at r = 3.75, inside the sampled range.
C_TO_ZERO = """
[scenario]
dimension = 4
signature = 1
seed = 0
suites = frame-identities, christoffel-xcheck, curvature-xcheck
[profile]
kind = rational
c_coeffs = 0.8, -3.0
m_coeffs = 1.0, 0.2
[samples]
points = 25
"""
# The two curvature-xcheck checks whose residuals are divided by their operands.
RESCALED_CHECKS = ("antisymmetry_first_pair_lowered", "ricci_decomposition_consistency")


class TestRejectionsReadTheRealPart:
    """numpy orders complex numbers lexicographically without raising, so a
    test left on a complex value would pass a point whose real part is out,
    whenever the real parts tie and the imaginary part leans inside."""

    def test_axis_point(self, frame4, schwarzschild):
        x = np.array([0.4, 0.0, 0.0, 0.0]) + STEP * np.eye(4)[1]
        with pytest.raises(RadialSingularityError):
            build_metric(frame4, schwarzschild, x)

    def test_radius_on_the_pole(self, frame4, schwarzschild):
        """r = xi/4 exactly, moved by +ih: 0.25 < 0.25 + ih as complex numbers."""
        with pytest.raises(DomainError, match="pole"):
            schwarzschild.jets(np.array(0.25 + COMPLEX_STEP * 1j))
        x = np.array([0.0, 0.25, 0.0, 0.0]) + STEP * np.eye(4)[1]
        with pytest.raises(DomainError, match=r"r=0\.25 outside") as err:
            build_metric(frame4, schwarzschild, x)
        assert err.value.rows.tolist() is True

    def test_c_zero(self, frame4):
        """c = 0.8 - 3/r is exactly 0 at r = 3.75 and grows with r, so c at
        3.75 + ih is 0 + i(3/r^2) h: positive as a complex number."""
        half = ProfilePair.rational((0.8, -3.0), (1.0, 0.2))
        x = np.array([0.0, 3.75, 0.0, 0.0]) + STEP * np.eye(4)[1]
        with pytest.raises(DomainError, match=r"not positive at r=3\.75") as err:
            build_metric(frame4, half, x)
        assert err.value.rows.tolist() is True

    def test_no_transverse_norm(self, frame4, pd_rational):
        """The positive-definite pair on signature -1 has q^2 < 0 for every
        fiber: complex fiber rows are rejected with every row marked."""
        metric = build_metric(frame4, pd_rational, np.array([0.1, 1.0, 0.5, 0.0]))
        y = np.array([0.3, 1.0, -0.2, 0.4]) + STEP * np.eye(4)
        with pytest.raises(DegenerateFiberError) as err:
            kinematics(metric, y, 0.3)
        assert err.value.rows.tolist() == [True] * 4

    def test_nu_on_the_cone(self, frame4_pd):
        """nu = q + g (1 - c^2) b is exactly 0 at y = (1, 1, 0, 0) with c = 1/2
        and g = -8/3; moving y^1 by +ih makes nu = ih/2."""
        metric = build_metric(frame4_pd, ProfilePair.constant(0.5, 1.0), np.eye(4)[1])
        y, charge = np.array([1.0, 1.0, 0.0, 0.0]), -2.0 / 0.75
        for move in (STEP, -STEP):
            with pytest.raises(OutsideConeError) as err:
                kinematics(metric, y + move * np.eye(4)[1], charge)
            assert err.value.rows.tolist() is True


def _bench_scenario(tmp_path, name, index):
    """Scenario ``index`` of workload ``name`` at seed 1, as bench/run.py
    writes it."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    workloads = json.loads((ROOT / "bench" / "workloads.json").read_text())
    return load_scenario(bench.generate(workloads, name, 1, tmp_path / name)[index]["path"])


def _bench_scenarios(tmp_path):
    """One bench file per workload: the N = 8 charged and charge-0 files and
    the Schwarzschild sweep file."""
    picks = {"fiber_charged": 1, "fiber_limit": 1, "riemann_sweep": 0}
    return [_bench_scenario(tmp_path, name, index) for name, index in picks.items()]


def _central(f, x):
    """fd_reference at each sample's |x|, the step scale of r or |y|."""
    return fd_reference(f, x, np.linalg.norm(x, axis=-1, keepdims=True))


def _oracles(scenario) -> dict:
    """Every numeric oracle that a check of the scenario's suites reads, on
    the samples those suites draw: name -> (value, per-sample residual
    function, tolerance).  The numeric second y-derivative is left out:
    no check reads it."""
    out = {}
    run = set(scenario.suites)
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    if run & {"christoffel-xcheck", "curvature-xcheck"}:
        xs, _ = _sample_blocks(
            scenario, _suite_rng(scenario, "christoffel-xcheck"), scenario.n_points
        )
        states = build_metric(frame, scenario.profile, xs)
        out["christoffel_definitional"] = (
            christoffel_definitional(states),
            lambda a, b: max_abs(a - b, 3),
            TOL["closed_form"],
        )
        out["curvature_fd_oracle"] = (
            curvature_fd_oracle(states),
            lambda a, b: rel_frobenius(a, b, 4),
            TOL["finite_difference"],
        )
    if "finsler-identities" in run:
        xs, ys = _sample_blocks(
            scenario, _suite_rng(scenario, "finsler-identities"), scenario.n_fibers,
            charge=scenario.charge,
        )
        fib = kinematics(build_metric(frame, scenario.profile, xs), ys, scenario.charge)
        d_e = finsler._fiber_partials(fib)[2]  # e_k rebuilt from the fiber vectors
        out["e_fiber_derivative"] = (d_e, lambda a, b: max_abs(a - b, 2), TOL["closed_form"])
    if "finsler-curvature" in run:
        rng = _suite_rng(scenario, "finsler-curvature")
        cone = scenario.charge if scenario.charge != 0.0 else None
        xs, y = _sample_blocks(scenario, rng, scenario.n_fibers, fiber=True, charge=cone)
        metric = build_metric(frame, scenario.profile, xs)
        derivs = spray_derivatives(metric, y, scenario.charge)
        bundle = hh_curvature(derivs)
        fd = TOL["finite_difference"]
        out["spray_first"] = (derivs.first_numeric, lambda a, b: max_abs(a - b, 2), 0.1 * fd)
        out["bundle"] = (bundle, lambda a, b: rel_frobenius(a, b, 2), TOL["bundle"])
        out["bundle_y"] = (matvec(bundle, y), lambda a, b: max_abs(a - b, 1), fd)
    return out


def _assert_oracles_agree(scenario, monkeypatch):
    complex_step = _oracles(scenario)
    with monkeypatch.context() as patch:
        for module in (riemann, finsler):
            patch.setattr(module, "fd_partials", _central)
        central = _oracles(scenario)
    assert complex_step.keys() == central.keys() and complex_step
    for name, (value, residual, tol) in complex_step.items():
        gap = residual(value, central[name][0])
        assert np.all(gap <= tol), (name, float(np.max(gap)), tol)


def test_bench_oracles_agree_with_central_differences(tmp_path, monkeypatch):
    scenarios = _bench_scenarios(tmp_path)
    assert [s.n_dim for s in scenarios] == [8, 8, 4]
    for scenario in scenarios:
        _assert_oracles_agree(scenario, monkeypatch)


def test_paper_shape_oracles_agree_with_central_differences(monkeypatch):
    _assert_oracles_agree(parse_scenario(PAPER_SHAPE), monkeypatch)


class TestVerdicts:
    """Verdicts that central-difference noise or an absolute residual on
    large tensors decided, on correct closed forms."""

    def test_c_to_zero_christoffel_passes(self):
        """Near c = 0, max|Gamma| reaches 1.4e3 and the central-difference
        oracle missed the closed form by 1.5e-8 (tolerance 1e-8)."""
        result, _ = suite_christoffel_xcheck(parse_scenario(C_TO_ZERO))
        assert result.status == "pass"
        (check,) = [c for c in result.checks if c.name == "closed_vs_definitional"]
        assert check.n_samples == 25 and check.residual_max < 1e-12

    def test_paper_shape_bundle_contracts_with_y(self):
        """At a bundle magnitude of 2.6e7, K^2 R^i_k y^k read 5.6e-7 with
        central differences; it is now below 5e-8."""
        result, _ = suite_finsler_curvature(parse_scenario(PAPER_SHAPE))
        assert result.status == "pass"
        checks = {c.name: c for c in result.checks}
        assert checks["bundle_magnitude"].residual_max > 1e7
        assert checks["bundle_y_contraction"].residual_max < 5e-8

    def test_c_to_zero_curvature_passes(self):
        """Near c = 0 the curvature grows like 1/c^2 (its lowered form and the
        Ricci tensor reach about 1e11), and the absolute residuals of two
        closed-vs-closed checks read 7.6e-6 and 3.1e-5 at roundoff; divided
        by max(1, max|operand|) they read about 1e-15, and the run exits 0."""
        report = suites.run(parse_scenario(C_TO_ZERO))
        assert report.exit_code == 0
        (curvature,) = [s for s in report.suites if s.name == "curvature-xcheck"]
        checks = {c.name: c for c in curvature.checks}
        for name in RESCALED_CHECKS:
            assert checks[name].n_samples == 25 and checks[name].residual_max < 1e-14, name



@pytest.mark.parametrize("scenario_name", ["c_to_zero", "riemann_sweep"])
@pytest.mark.parametrize("pair", range(5))
def test_a_scaled_curvature_pair_fails_the_rescaled_checks(pair, scenario_name, tmp_path,
                                                           monkeypatch):
    """Mutation check: one pair's M in curvature_closed's pair table scaled
    by (1 + 1e-6) still fails both rescaled checks, on the c -> 0 scenario
    and on the N = 4 Schwarzschild file of the riemann_sweep workload."""
    scenario = (
        parse_scenario(C_TO_ZERO)
        if scenario_name == "c_to_zero"
        else _bench_scenario(tmp_path, "riemann_sweep", 0)
    )
    original = riemann._curvature_pairs

    def mutated(state, substituted=True):
        pairs = list(original(state, substituted))
        if substituted:
            left, right = pairs[pair]
            pairs[pair] = (left, right * (1 + 1e-6))
        return tuple(pairs)

    monkeypatch.setattr(riemann, "_curvature_pairs", mutated)
    result, _ = suites.suite_curvature_xcheck(scenario)
    checks = {c.name: c for c in result.checks}
    for name in RESCALED_CHECKS:
        assert not checks[name].passed, (name, checks[name].residual_max)
