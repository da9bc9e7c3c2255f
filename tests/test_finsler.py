"""Finsleroid kinematics, spray coefficients, their y-derivatives, and the
hh-curvature bundle."""

import inspect

import numpy as np
import pytest

from finslergeo import (
    DegenerateFiberError,
    Frame,
    OutsideConeError,
    ProfilePair,
    build_metric,
    curvature_closed,
    curvature_dot,
    hh_curvature,
    kinematic_identity_residuals,
    kinematics,
    parse_scenario,
    spray_coefficients,
    spray_derivatives,
)
from finslergeo import finsler, suites
from finslergeo.finsler import (
    AdmissibilityError,
    _spray_stack,
    fiber_vectors,
    spray_y_second,
)
from finslergeo.riemann import christoffel, christoffel_dot, nabla_b
from finslergeo.suites import _sample_blocks, _suite_rng
from finslergeo.tensors import TOLERANCE_CLASSES, fd_partials, max_abs, rel_frobenius

from conftest import riemann_spray, sample_point, spray_y_derivative


def admissible_sample(rng, frame, pair, charge, count, lo=0.8, hi=5.0, margin=0.05):
    """Seeded (state, y) pairs with cone margins (PD profiles accept nearly
    all), for at most 60 tries per pair."""
    out = []
    for _ in range(60 * count):
        if len(out) == count:
            break
        x = sample_point(rng, frame.n_dim, lo, hi)
        y = rng.normal(size=frame.n_dim)
        state = build_metric(frame, pair, x)
        try:
            fib = kinematics(state, y, charge)
        except AdmissibilityError:
            continue
        if fib.q < margin * (abs(fib.b) + np.sqrt(abs(fib.s2))):
            continue
        out.append((state, y))
    assert len(out) == count, f"only {len(out)} of {count} admissible pairs in {60 * count} tries"
    return out


class TestKinematics:
    def test_identity_suite_on_positive_definite_profiles(self, frame4_pd, pd_rational, rng):
        """All printed kinematic identities hold to 1e-10 at 100 seeded
        admissible (x, y); this pins the reconstructed definitions of
        q, v, nu, the projector, and eta."""
        pairs = admissible_sample(rng, frame4_pd, pd_rational, 0.3, 100)
        for state, y in pairs:
            fib = kinematics(state, y, 0.3)
            res = kinematic_identity_residuals(fib)
            assert max(res.values()) < 1e-10, res

    def test_identity_suite_on_constant_profile(self, frame4_pd, rng):
        pair = ProfilePair.constant(0.9, 1.0)
        for state, y in admissible_sample(rng, frame4_pd, pair, -0.4, 40):
            res = kinematic_identity_residuals(kinematics(state, y, -0.4))
            assert max(res.values()) < 1e-10, res

    def test_unit_norm_axis_reductions(self, rng):
        """At c = 1 all (1 - c^2) factors vanish: nu = q, nu_k = v_k / q, and
        the projector acts as the identity on v."""
        frame = Frame.standard(4, 1)
        pair = ProfilePair.constant(1.0, 1.0)
        state = build_metric(frame, pair, np.array([0.3, 1.0, 0.4, -0.2]))
        y = rng.normal(size=4)
        fib = kinematics(state, y, 0.7)
        assert fib.nu == pytest.approx(fib.q, rel=1e-15)
        np.testing.assert_allclose(fib.nu_low, fib.v_low / fib.q, atol=1e-14)
        np.testing.assert_allclose(fib.r_mix @ fib.v_up, fib.v_up, atol=1e-14)

    def test_zero_charge_keeps_nu_equal_q(self, frame4_pd, pd_rational, rng):
        state = build_metric(frame4_pd, pd_rational, sample_point(rng, 4, 1.0, 4.0))
        fib = kinematics(state, rng.normal(size=4), 0.0)
        assert fib.nu == fib.q

    def test_degenerate_fiber_error(self):
        """y parallel to the axis at c = 1 has q = 0."""
        frame = Frame.standard(4, 1)
        state = build_metric(frame, ProfilePair.constant(1.0, 1.0), np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateFiberError):
            kinematics(state, np.array([2.0, 0.0, 0.0, 0.0]), 0.3)

    def test_outside_cone_error(self):
        """A strongly negative charge pushes nu below zero for axis-heavy fibers."""
        frame = Frame.standard(4, 1)
        state = build_metric(frame, ProfilePair.constant(0.9, 1.0), np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(OutsideConeError):
            kinematics(state, np.array([1.0, 0.05, 0.0, 0.0]), -5.0)

    def test_schwarzschild_admits_pseudo_finsleroid_fibers(self, frame4, schwarzschild, rng):
        """With c > 1 and m < 0, S^2 - b^2 is negative for every nonzero fiber
        vector; the signature -1 convention takes q^2 = b^2 - S^2 > 0, so
        kinematics admits the fibers and nu_k carries dq/dy^k = -v_k / q."""
        state = build_metric(frame4, schwarzschild, np.array([0.2, 0.6, 0.8, 0.0]))
        ys = rng.normal(size=(50, 4))
        transverse = fiber_vectors(state, ys)[3]
        assert np.all(transverse < 0.0)
        fib = kinematics(state, ys, 0.3)
        np.testing.assert_array_equal(fib.q2, fib.b**2 - fib.s2)
        assert np.all(fib.q > 0.0)
        g_term = 0.3 * (1.0 - state.c**2) * state.b_low
        np.testing.assert_allclose(fib.nu_low, -fib.v_low / fib.q[:, None] + g_term, rtol=1e-15)

    def test_positive_definite_profile_at_signature_minus_one_admits_no_fiber(
        self, frame4, pd_rational, rng
    ):
        """0 < c < 1 and m > 0 give S^2 - b^2 > 0, so the signature -1
        convention q^2 = b^2 - S^2 is negative for every fiber vector."""
        state = build_metric(frame4, pd_rational, np.array([0.2, 0.6, 0.8, 0.0]))
        with pytest.raises(DegenerateFiberError) as err:
            kinematics(state, rng.normal(size=(50, 4)), 0.3)
        assert np.all(err.value.rows)

    def test_q2_level_identities_hold_even_indefinite(self, frame4, schwarzschild, rng):
        """The identities that involve only q^2 (never q itself) hold with the
        signed transverse square on the indefinite Schwarzschild metric."""
        state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.5, 4.0))
        one_minus_c2 = 1.0 - state.c**2
        nb = nabla_b(state)
        r_mix = np.eye(4) - np.outer(state.b_up, state.b_low)
        for _ in range(25):
            y = rng.normal(size=4)
            y_low, b, s2, q2, v_low, v_up = fiber_vectors(state, y)
            s_low = nb @ y
            ys = float(y @ s_low)
            sigma = float(state.b_up @ s_low)
            assert float(v_low @ v_up) == pytest.approx(q2 - one_minus_c2 * b**2, rel=1e-12)
            assert float(state.b_low @ v_up) == pytest.approx(one_minus_c2 * b, rel=1e-12)
            assert float(v_up @ s_low) == pytest.approx(ys - b * sigma, rel=1e-10, abs=1e-13)
            np.testing.assert_allclose(
                r_mix @ v_up, v_up - one_minus_c2 * b * state.b_up, atol=1e-12
            )

    def test_e_fiber_rule_by_finite_differences(self, frame4_pd, pd_rational, rng):
        """The covector e_k = (b/q^2) v_k - b_k obeys
        d(e_k)/dy^j = (b/q^2) eta_kj - v_k e_j / q^2 at eps = +1, re-checked
        here by the complex step of e_k typed from fiber_vectors; the identity
        suite's own complex step of the rebuilt e_k agrees with it."""
        for state, y in admissible_sample(rng, frame4_pd, pd_rational, 0.3, 10):
            fib = kinematics(state, y, 0.3)

            def e_field(yv):
                _, b, _, q2, v_low, _ = fiber_vectors(state, yv)
                return (b / q2)[..., None] * v_low - state.b_low

            d_e = fd_partials(e_field, y)
            rhs = (fib.b / fib.q2) * fib.eta - np.outer(fib.v_low, e_field(y)) / fib.q2
            assert max_abs(d_e - rhs.T) < 1e-8
            assert max_abs(finsler._fiber_partials(fib)[2] - d_e) <= 1e-14 * max_abs(d_e)


# kinematics' charge term scaled by (1 + 1e-6), consistently in nu and nu_k.
NU_CHARGE_MUTATION = (
    ("nu = q + charge * one_minus_c2 * b", "nu = q + charge * one_minus_c2 * b * (1 + 1e-6)"),
    ("(one_minus_c2 * charge)[..., None]", "(one_minus_c2 * charge * (1 + 1e-6))[..., None]"),
)
MUTATION_SCENARIOS = {
    "schwarzschild_n4": "dimension = 4\nsignature = -1\nseed = 3\n"
    "[profile]\nkind = schwarzschild_isotropic\nxi = 1.0\n",
    "pd_rational_n8": "dimension = 8\nsignature = 1\nseed = 1\n"
    "[profile]\nkind = rational\nc_coeffs = 0.8, 0.1\nm_coeffs = 1.0, 0.2\n",
}


def _identity_scenario(name):
    return parse_scenario(
        "[scenario]\ncharge = 0.3\nsuites = finsler-identities\n"
        f"{MUTATION_SCENARIOS[name]}[samples]\nfibers = 20\n"
    )


@pytest.mark.parametrize("name", sorted(MUTATION_SCENARIOS))
def test_a_scaled_charge_term_in_kinematics_fails_nu_gradient(name, monkeypatch):
    """Mutation check: with nu's charge term scaled by (1 + 1e-6) in
    kinematics, in nu and nu_k alike, finsler-identities fails nu_gradient,
    because its derivative rebuilds nu from the fiber vectors and never
    calls kinematics (patched here in finsler as well as in suites)."""
    source = inspect.getsource(finsler.kinematics)
    for before, after in NU_CHARGE_MUTATION:
        assert source.count(before) == 1
        source = source.replace(before, after)
    namespace = dict(vars(finsler))
    exec(source, namespace)
    scenario = _identity_scenario(name)
    result, _ = suites.suite_finsler_identities(scenario)
    assert result.status == "pass"
    monkeypatch.setattr(finsler, "kinematics", namespace["kinematics"])
    monkeypatch.setattr(suites, "kinematics", namespace["kinematics"])
    result, _ = suites.suite_finsler_identities(scenario)
    checks = {check.name: check for check in result.checks}
    assert result.status == "fail" and not checks["nu_gradient"].passed
    assert checks["nu_gradient"].residual_max > 1e2 * checks["nu_gradient"].tolerance


@pytest.mark.parametrize("name", sorted(MUTATION_SCENARIOS))
def test_both_e_fiber_checks_report_one_residual(name):
    """e_fiber_derivative_fd is e_fiber_derivative under a second name (and
    the closed_form class): both report the same statistics."""
    result, _ = suites.suite_finsler_identities(_identity_scenario(name))
    checks = {check.name: check for check in result.checks}
    one, alias = checks["e_fiber_derivative"], checks["e_fiber_derivative_fd"]
    assert (one.tolerance, alias.tolerance) == (TOLERANCE_CLASSES["algebraic"],
                                                TOLERANCE_CLASSES["closed_form"])
    for field in ("residual_max", "residual_median", "worst_index", "n_samples"):
        assert getattr(one, field) == getattr(alias, field), field


@pytest.mark.parametrize("name", sorted(MUTATION_SCENARIOS))
def test_a_scaled_eta_term_in_the_e_fiber_rule_fails_both_checks(name, monkeypatch):
    """Mutation check: _e_fiber_rule's eta term scaled by (1 + 1e-6) fails
    e_fiber_derivative and its alias, and no other check."""
    source = inspect.getsource(finsler._e_fiber_rule)
    before = "[..., None, None] * state.eta"
    assert source.count(before) == 1
    namespace = dict(vars(finsler))
    exec(source.replace(before, before + " * (1 + 1e-6)"), namespace)
    monkeypatch.setattr(finsler, "_e_fiber_rule", namespace["_e_fiber_rule"])
    result, _ = suites.suite_finsler_identities(_identity_scenario(name))
    failed = {check.name for check in result.checks if not check.passed}
    assert failed == {"e_fiber_derivative", "e_fiber_derivative_fd"}


STATE_FIELDS = ("y_low", "b", "s2", "q2", "q", "v_low", "v_up", "nu", "nu_low", "r_mix",
                "r_low", "eta", "s_low", "ys", "sigma")


def _assert_row_matches(stacked, row, want):
    """Row ``row`` of a stacked result equals the one-point result to 1e-15
    relative; a field of the unstacked partner has no row axis."""
    got = stacked if np.shape(stacked) == np.shape(want) else stacked[row]
    assert max_abs(got - want) <= 1e-15 * max(max_abs(want), 1e-300)


class TestStacks:
    """A stack of fiber vectors (y-stencils) or of metrics (x-stencils) gives
    each row what that row gives alone, to 1e-15 relative."""

    def test_kinematics_over_fiber_and_metric_stacks(self, frame4_pd, pd_rational, rng):
        pairs = admissible_sample(rng, frame4_pd, pd_rational, 0.3, 6)
        state, _ = pairs[0]
        ys = np.array([y for _, y in pairs])
        by_y = kinematics(state, ys, 0.3)
        xs = np.array([ms.x for ms, _ in pairs])
        y0 = pairs[0][1]
        by_x = kinematics(build_metric(frame4_pd, pd_rational, xs), y0, 0.3)
        for row, (ms, y) in enumerate(pairs):
            alone_y = kinematics(state, y, 0.3)
            alone_x = kinematics(ms, y0, 0.3)
            for name in STATE_FIELDS:
                _assert_row_matches(getattr(by_y, name), row, getattr(alone_y, name))
                _assert_row_matches(getattr(by_x, name), row, getattr(alone_x, name))

    @pytest.mark.parametrize("charge", [0.3, 0.0])
    def test_spray_stack_over_fiber_and_metric_stacks(self, charge, frame4_pd, pd_rational, rng):
        pairs = admissible_sample(rng, frame4_pd, pd_rational, 0.3, 6)
        state, y0 = pairs[0]
        ys = np.array([y for _, y in pairs])
        xs = np.array([ms.x for ms, _ in pairs])
        by_y = _spray_stack(state, ys, charge)
        by_x = _spray_stack(build_metric(frame4_pd, pd_rational, xs), y0, charge)
        assert by_y.shape == by_x.shape == (6, 4 + 16)
        for row, (ms, y) in enumerate(pairs):
            _assert_row_matches(by_y, row, _spray_stack(state, y, charge))
            _assert_row_matches(by_x, row, _spray_stack(ms, y0, charge))

    def test_one_inadmissible_row_rejects_the_stack(self):
        """The outside-cone fiber of test_outside_cone_error, stacked among
        admissible ones, makes the whole stack an AdmissibilityError."""
        frame = Frame.standard(4, 1)
        state = build_metric(frame, ProfilePair.constant(0.9, 1.0), np.array([0.0, 1.0, 0.0, 0.0]))
        ys = np.array([[0.1, 1.0, 0.0, 0.0], [1.0, 0.05, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]])
        kinematics(state, ys[[0, 2]], -5.0)
        with pytest.raises(AdmissibilityError):
            kinematics(state, ys, -5.0)


class TestSpray:
    def test_zero_charge_is_geodesic_spray(self, frame4, schwarzschild, rng):
        """g = 0 collapses exactly to the geodesic spray a^i_km y^k y^m, even
        on the indefinite metric (no cone needed).  christoffel_dot's tie to
        the full Christoffel array is in tests/test_batches.py."""
        state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.5, 4.0))
        y = rng.normal(size=4)
        got = spray_coefficients(state, y, 0.0)
        assert max_abs(got - riemann_spray(state, y)) == 0.0

    def test_constant_norm_keeps_riemannian_spray(self, frame4_pd, rng):
        """With c constant the slope (ys) vanishes, so the charged spray equals
        the geodesic spray even for g != 0."""
        pair = ProfilePair.constant(0.9, 1.0)
        state = build_metric(frame4_pd, pair, sample_point(rng, 4, 1.0, 4.0))
        y = rng.normal(size=4)
        fib = kinematics(state, y, 0.8)
        assert fib.ys == 0.0
        assert max_abs(spray_coefficients(state, y, 0.8) - riemann_spray(state, y)) == 0.0

    def test_positive_homogeneity_is_exact(self, frame4_pd, pd_rational, rng):
        """G^i(x, 2y) = 4 G^i(x, y) bitwise (powers of two are exact in floats)."""
        for state, y in admissible_sample(rng, frame4_pd, pd_rational, 0.3, 10):
            g1 = spray_coefficients(state, y, 0.3)
            g2 = spray_coefficients(state, 2.0 * y, 0.3)
            assert max_abs(g2 - 4.0 * g1) == 0.0

    def test_euler_identity(self, frame4_pd, pd_rational, rng):
        """y^k G^i_k = 2 G^i to 1e-9 (degree-2 homogeneity differentiated)."""
        for state, y in admissible_sample(rng, frame4_pd, pd_rational, 0.3, 20):
            fib = kinematics(state, y, 0.3)
            assert max_abs(spray_y_derivative(fib) @ y - 2.0 * spray_coefficients(state, y, 0.3)) < 1e-9


class TestSprayDerivatives:
    def test_zero_charge_first_derivative(self, frame4, schwarzschild, rng):
        state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.5, 4.0))
        y = rng.normal(size=4)
        derivs = spray_derivatives(state, y, 0.0)
        assert max_abs(derivs.first_closed - 2.0 * christoffel_dot(state, y)) == 0.0
        assert max_abs(derivs.second_closed - 2.0 * christoffel(state)) == 0.0

    def test_closed_first_matches_numeric(self, frame4_pd, pd_rational, rng):
        """Closed G^i_k vs the numeric y-derivative of the spray, 1e-7."""
        for state, y in admissible_sample(rng, frame4_pd, pd_rational, 0.3, 10):
            derivs = spray_derivatives(state, y, 0.3)
            assert derivs.first_gap < 1e-7

    def test_closed_second_matches_numeric(self, frame4_pd, pd_rational, rng):
        """The closed G^i_km (second y-derivative) is exact: differentiating
        the verified closed G^i_k numerically reproduces it, and so does a
        pure double-stencil of the spray itself (coarser tolerance)."""
        for state, y in admissible_sample(rng, frame4_pd, pd_rational, 0.3, 5):
            derivs = spray_derivatives(state, y, 0.3)
            assert derivs.second_gap < 1e-7
            fib = kinematics(state, y, 0.3)
            second = spray_y_second(fib)
            assert max_abs(second - np.transpose(second, (0, 2, 1))) < 1e-14
            # double stencil straight on G^i
            h = 1e-3 * float(np.linalg.norm(y))
            for k in range(4):
                for m in range(4):
                    ypp, ypm, ymp, ymm = (y.copy() for _ in range(4))
                    ypp[k] += h; ypp[m] += h
                    ypm[k] += h; ypm[m] -= h
                    ymp[k] -= h; ymp[m] += h
                    ymm[k] -= h; ymm[m] -= h
                    num = (
                        spray_coefficients(state, ypp, 0.3)
                        - spray_coefficients(state, ypm, 0.3)
                        - spray_coefficients(state, ymp, 0.3)
                        + spray_coefficients(state, ymm, 0.3)
                    ) / (4.0 * h * h)
                    assert max_abs(second[:, k, m] - num) < 1e-6

    def test_a_fiber_on_the_cone_edge_is_differentiated(self):
        """A fiber vector 1e-9 inside the cone boundary, where an order-4
        stencil crossed nu = 0 at both its full and its tenfold-shrunk step:
        the complex rows keep its real part, so both numeric derivatives
        exist and match the closed ones to roundoff."""
        frame = Frame.standard(4, 1)
        pair = ProfilePair.constant(0.9, 1.0)
        state = build_metric(frame, pair, np.array([0.0, 1.0, 0.0, 0.0]))
        # Asymmetric fiber: nu has a nonzero transverse slope.
        y = np.array([1.0, 1.0, 0.0, 0.0])
        _, b, _, q2, _, _ = fiber_vectors(state, y)
        q = np.sqrt(q2)
        charge = -(q - 1e-9) / ((1.0 - 0.9**2) * b)  # nu barely positive at y
        assert 0.0 < kinematics(state, y, charge).nu < 2e-9
        derivs = spray_derivatives(state, y, charge)
        assert derivs.first_gap <= 1e-13 * max_abs(derivs.first_closed)
        assert derivs.second_gap <= 1e-13 * max(max_abs(derivs.second_closed), 1.0)


def transverse_slope_residuals(metric, y, charge):
    """Gaps of the printed shorthand dq/dx^k = -(b/q) b_{j,k} y^j for the
    x-slope of the transverse norm, with b_{j,k} y^j taken as coordinate
    partials of b_j and as s_k.  The shorthand drops the metric derivative
    term (1/2q) (d_k a_ij) y^i y^j, so both gaps vanish only for constant
    profiles."""
    state = kinematics(metric, y, charge)
    frame, profiles, x = metric.frame, metric.profiles, metric.x

    def q_field(pts):
        return np.sqrt(fiber_vectors(build_metric(frame, profiles, pts), y)[3])

    dq = fd_partials(q_field, x)
    db = fd_partials(lambda pts: build_metric(frame, profiles, pts).b_low, x)
    slope = -state.b / state.q
    return {
        "coordinate_form": max_abs(dq - slope * (db @ y)),
        "covariant_form": max_abs(dq - slope * state.s_low),
    }


class TestTransverseSlopeDiagnostic:
    def test_exact_for_constant_profiles(self, rng):
        """Flat background: all three expressions vanish identically."""
        frame = Frame.standard(4, 1)
        pair = ProfilePair.constant(0.9, 1.0)
        x = sample_point(rng, 4, 1.0, 3.0)
        y = rng.normal(size=4)
        res = transverse_slope_residuals(build_metric(frame, pair, x), y, 0.3)
        assert res["coordinate_form"] < 1e-10
        assert res["covariant_form"] < 1e-10

    def test_metric_derivative_term_is_dropped(self, frame4_pd, pd_rational, rng):
        """On a curved profile the printed shorthand misses the metric
        derivative term; the residual equals it, confirming the dropped
        bookkeeping is real rather than a sign slip."""
        x = sample_point(rng, 4, 1.0, 3.0)
        y = rng.normal(size=4)
        state = build_metric(frame4_pd, pd_rational, x)
        res = transverse_slope_residuals(state, y, 0.3)
        fib = kinematics(state, y, 0.3)
        da = fd_partials(lambda p: build_metric(frame4_pd, pd_rational, p).a_low, x)
        dropped = np.einsum("kij,i,j->k", da, y, y) / (2.0 * fib.q)
        assert res["coordinate_form"] == pytest.approx(max_abs(dropped), rel=1e-4)
        assert res["coordinate_form"] > 1e-6


class TestBundle:
    def test_flat_background_gives_zero_bundle(self, rng):
        """Constant c = 1 with m matching the signature: the spray vanishes
        identically, so the whole bundle is zero."""
        for eps, m0, charge in ((1, 1.0, 0.3), (-1, -1.0, 0.0)):
            frame = Frame.standard(4, eps)
            pair = ProfilePair.constant(1.0, m0)
            x = sample_point(rng, 4, 1.0, 3.0)
            y = rng.normal(size=4)
            if eps == 1:
                y[1:] += 1.0  # keep q away from zero
            derivs = spray_derivatives(build_metric(frame, pair, x), y, charge)
            assert max_abs(derivs.spray) == 0.0
            assert max_abs(hh_curvature(derivs)) < 1e-10

    def test_riemannian_limit_matches_curvature(self, frame4, schwarzschild, rng):
        """g = 0: the bundle equals y^n y^m a_n^i_km (sign +1, fixed at the
        first probe and held) to 1e-5 at 5 seeded (x, y)."""
        sign = 0.0
        for k in range(5):
            x = sample_point(rng, 4, 0.6, 4.0)
            y = rng.normal(size=4)
            state = build_metric(frame4, schwarzschild, x)
            curvature = hh_curvature(spray_derivatives(state, y, 0.0))
            comparison = np.einsum("nikm,n,m->ik", curvature_closed(state), y, y)
            if k == 0:
                plus = max_abs(curvature - comparison)
                minus = max_abs(curvature + comparison)
                sign = 1.0 if plus < minus else -1.0
                assert sign == 1.0
            assert rel_frobenius(curvature, sign * comparison) < 1e-5

    @pytest.mark.parametrize(
        "signature, profile",
        [
            (1, "kind = rational\nc_coeffs = 0.8, 0.1\nm_coeffs = 1.0, 0.2\n"),
            (-1, "kind = schwarzschild_isotropic\nxi = 1\n"),
        ],
        ids=["positive-definite", "pseudo"],
    )
    @pytest.mark.parametrize("n_dim", [4, 8])
    def test_small_charge_continuity(self, signature, profile, n_dim):
        """At g = 1e-8 the bundle matches the Riemannian curvature_dot within
        the bundle class, in either convention, and the gap is a first-order
        term in g rather than stencil noise: it grows 100-fold, within 10 %,
        from g = 1e-8 to 1e-6 (at g = 1e-6 the pseudo-Finsleroid gap
        itself reaches 1e-4)."""
        tol = TOLERANCE_CLASSES["bundle"]
        for seed in (0, 1, 2):
            scenario = parse_scenario(
                f"[scenario]\ndimension = {n_dim}\nsignature = {signature}\n"
                f"charge = 1e-8\nseed = {seed}\n[profile]\n{profile}"
            )
            rng = _suite_rng(scenario, "finsler-curvature")
            xs, ys = _sample_blocks(scenario, rng, 20, charge=scenario.charge)
            metric = build_metric(Frame.standard(n_dim, signature), scenario.profile, xs)
            riemannian = curvature_dot(metric, ys)
            gap = {}
            for g in (1e-8, 1e-6):
                bundle = hh_curvature(spray_derivatives(metric, ys, g))
                gap[g] = np.max(rel_frobenius(bundle, riemannian, 2))
            assert gap[1e-8] <= tol, (seed, gap)
            assert 90.0 <= gap[1e-6] / gap[1e-8] <= 110.0, (seed, gap)

    def test_charged_bundle_regression(self):
        """Self-regression for g = 0.3 on the positive-definite rational pair:
        frozen probe values (no external reference exists) plus the exact
        y-contraction identity y^k K^2 R^i_k = 0, which any spray satisfies
        by homogeneity and here doubles as a stencil-noise gauge."""
        frame = Frame.standard(4, 1)
        pair = ProfilePair.rational((0.8, 0.1), (1.0, 0.2))
        probes = [
            (
                [-0.5189021124178954, -2.517365548945849, -1.778722450994507, 0.5786332403887594],
                [0.8817397837044753, 0.02424519493729997, -0.6639941433448656, -0.1447436490984641],
                0.00012246991069448081,
            ),
            (
                [0.15272538924759904, 1.5518155674045386, -1.0220464889806091, -0.5084647012365655],
                [-1.1510250565985787, -1.2488862283730489, 0.09607491088596115, -0.42940567702453253],
                0.007760178160033632,
            ),
            (
                [-0.8814105958786416, -2.2948541174797934, -2.40628259305636, -0.6566314390394845],
                [0.12140084429379844, -1.2300598341927549, -1.0233575924201508, -0.8283236968177251],
                0.003153417273869033,
            ),
        ]
        for x, y, trace in probes:
            state = build_metric(frame, pair, np.array(x))
            curvature = hh_curvature(spray_derivatives(state, np.array(y), 0.3))
            assert float(np.trace(curvature)) == pytest.approx(trace, rel=1e-6)
            assert max_abs(curvature @ np.array(y)) < 1e-9

    def test_lowered_bundle_symmetry_diagnostic(self, frame4_pd, pd_rational, rng):
        """Diagnostic record: the a_ij-lowered bundle splits into symmetric and
        antisymmetric parts; no identity is claimed, only that the numbers
        are finite and reproducible."""
        x = sample_point(rng, 4, 1.0, 3.0)
        y = rng.normal(size=4)
        state = build_metric(frame4_pd, pd_rational, x)
        lowered = state.a_low @ hh_curvature(spray_derivatives(state, y, 0.3))
        sym = max_abs(lowered + lowered.T) / 2.0
        antisym = max_abs(lowered - lowered.T) / 2.0
        assert np.isfinite(sym) and np.isfinite(antisym)
