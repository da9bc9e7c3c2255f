"""Vacuum verification: Ricci flatness at N = 4, the compact curvature form,
its axis contractions, and the scaling covariance of the family."""

import numpy as np
import pytest

from finslergeo import (
    Frame,
    ProfilePair,
    Scenario,
    build_metric,
    contraction_identities,
    curvature_closed,
    curvature_fd_oracle,
    reduced_curvature,
    ricci_closed,
    verify_vacuum,
)
from finslergeo.suites import suite_vacuum
from finslergeo.tensors import TOLERANCE_CLASSES, max_abs, rel_frobenius
from finslergeo.vacuum import reduced_prefactor, reduction_residuals

from conftest import sample_point

RADII = (0.5, 1.0, 2.0, 5.0, 10.0)


def _checks(xi, radii, n_dim=4, **fields):
    """The vacuum suite's checks by name, on the Schwarzschild profile of
    ``xi`` over ``radii``; ``fields`` set the scenario's other fields."""
    scenario = Scenario(
        n_dim=n_dim,
        profile=ProfilePair.schwarzschild_isotropic(xi),
        radii=tuple(radii),
        **fields,
    )
    result, _ = suite_vacuum(scenario)
    return {check.name: check for check in result.checks}


class TestVerifyVacuum:
    def test_vacuum_at_dimension_four(self):
        """Every Ricci component stays below 1e-9 (in 1/r^2 units) and the
        decomposition coefficients below 1e-10 across the radius sweep."""
        checks = _checks(1.0, RADII, n_dim=4)
        assert all(check.passed for check in checks.values())
        assert checks["ricci_scaled"].residual_max < 1e-9
        assert checks["ricci_coefficients_scaled"].residual_max < 1e-10

    def test_dimension_five_fails_by_design(self):
        checks = _checks(1.0, (1.0, 2.0), n_dim=5)
        assert not all(check.passed for check in checks.values())
        assert checks["ricci_scaled"].residual_max > 0.1
        assert not checks["ricci_scaled"].passed

    def test_tolerance_map_judges_the_checks(self):
        """The residuals do not depend on the tolerance map; each check's
        tolerance is its class's value in the map times the check's fixed
        scale, so a map that tightens the finite_difference class below
        the oracle gap fails only that check."""
        default = _checks(1.0, RADII, n_dim=4)
        gap = default["closed_vs_oracle"].residual_max
        tight = {**TOLERANCE_CLASSES, "finite_difference": 0.5 * gap}
        judged = _checks(1.0, RADII, n_dim=4, tolerances=tight)
        assert judged.keys() == default.keys()
        for name, check in judged.items():
            assert check.residual_max == default[name].residual_max
            klass = check.tolerance_class
            scale = default[name].tolerance / TOLERANCE_CLASSES[klass]
            assert check.tolerance == pytest.approx(tight[klass] * scale, rel=1e-12)
            assert check.passed == (name != "closed_vs_oracle")

    def test_frames_take_the_scenario_signature(self, monkeypatch):
        """A signature +1 scenario builds every vacuum state on the +1
        standard frame, and its checks equal those of its -1 twin: in the
        standard frame eps enters the vacuum residuals only as eps^2."""
        signatures = []
        standard = Frame.standard

        def recorded(n_dim, epsilon=-1):
            signatures.append(epsilon)
            return standard(n_dim, epsilon)

        monkeypatch.setattr(Frame, "standard", staticmethod(recorded))
        plus = _checks(1.0, RADII, epsilon=1)
        assert signatures and set(signatures) == {1}
        assert plus == _checks(1.0, RADII, epsilon=-1)

    def test_residuals_are_per_sample_of_a_stacked_state(self, frame4, schwarzschild, rng):
        """verify_vacuum returns the five residuals by check name, one per
        sample, each sample's the same in a stack of three as alone; two of
        them are reduction_residuals of the same closed curvature."""
        radii = np.array([0.7, 2.0, 6.0])
        xs = np.stack([sample_point(rng, 4, r, r) for r in radii])
        ys = rng.normal(size=(3, 4))
        stacked = verify_vacuum(build_metric(frame4, schwarzschild, xs), ys)
        assert list(stacked) == [
            "ricci_scaled", "ricci_coefficients_scaled", "closed_vs_oracle",
            "reduced_vs_closed", "axis_contractions",
        ]
        for i in range(3):
            rows = slice(i, i + 1)
            state = build_metric(frame4, schwarzschild, xs[rows])
            alone = verify_vacuum(state, ys[rows])
            reductions = reduction_residuals(state, ys[rows], curvature_closed(state))
            for name, values in stacked.items():
                assert values.shape == (3,)
                assert values[i] == alone[name][0]
            for name, values in reductions.items():
                assert values == alone[name]

    def test_flat_limit_of_small_xi(self, frame4):
        """As xi -> 0 the curvature scale collapses (overall factor ~ xi)."""
        state = build_metric(
            frame4,
            ProfilePair.schwarzschild_isotropic(1e-8),
            np.array([0.2, 0.6, 0.8, 0.0]),
        )
        assert max_abs(curvature_closed(state)) < 1e-7


class TestReducedCurvature:
    def test_prefactor_value(self, frame4, schwarzschild):
        """(2/r^2)(xi/4r)/(1 + xi/4r)^2 = 2 * 0.25 / 1.5625 = 0.32 at r = 1, xi = 1."""
        state = build_metric(frame4, schwarzschild, np.array([0.2, 0.6, 0.8, 0.0]))
        assert reduced_prefactor(state) == pytest.approx(0.32, rel=1e-14)

    def test_reduced_equals_closed(self, frame4, schwarzschild, rng):
        for r in (0.5, 1.0, 3.0, 8.0):
            state = build_metric(frame4, schwarzschild, sample_point(rng, 4, r, r))
            gap = rel_frobenius(reduced_curvature(state), curvature_closed(state))
            assert gap < 1e-8

    def test_three_way_agreement(self, frame4, schwarzschild, rng):
        """Closed form, compact form and the finite-difference oracle agree
        pairwise to 1e-6 relative Frobenius."""
        for r in RADII:
            state = build_metric(frame4, schwarzschild, sample_point(rng, 4, r, r))
            closed = curvature_closed(state)
            reduced = reduced_curvature(state)
            oracle = curvature_fd_oracle(state)
            assert rel_frobenius(closed, oracle) < 1e-6
            assert rel_frobenius(reduced, closed) < 1e-6
            assert rel_frobenius(reduced, oracle) < 1e-6

    def test_requires_schwarzschild_profiles(self, frame4, pd_rational):
        state = build_metric(frame4, pd_rational, np.array([0.0, 1.0, 0.5, 0.0]))
        with pytest.raises(ValueError, match="isotropic"):
            reduced_curvature(state)


class TestContractionIdentities:
    def test_residuals_at_unit_radius(self, frame4, schwarzschild, rng):
        """Both single-axis contractions hold below 1e-9 at r = 1, xi = 1."""
        state = build_metric(frame4, schwarzschild, np.array([0.2, 0.6, 0.8, 0.0]))
        res = contraction_identities(state, rng.normal(size=4), curvature_closed(state))
        assert res["axis_contraction_last"] < 1e-9
        assert res["axis_contraction_first"] < 1e-9
        assert res["axis_contraction_mixed"] < 1e-9

    def test_residuals_at_other_parameters(self, rng):
        """The same identities at r = 3, xi = 0.5."""
        frame = Frame.standard(4, -1)
        pair = ProfilePair.schwarzschild_isotropic(0.5)
        state = build_metric(frame, pair, np.array([-0.4, 0.0, 1.8, 2.4]))
        res = contraction_identities(state, rng.normal(size=4), curvature_closed(state))
        assert max(res.values()) < 1e-9

    def test_axis_fiber_degenerates_consistently(self, frame4, schwarzschild):
        """With y proportional to b^i the mixed contraction reduces to the
        two single contractions: the residual still vanishes."""
        state = build_metric(frame4, schwarzschild, np.array([0.2, 0.6, 0.8, 0.0]))
        res = contraction_identities(state, 2.0 * state.b_up, curvature_closed(state))
        assert res["axis_contraction_mixed"] < 1e-12


class TestScalingCovariance:
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_curvature_scales_inversely_squared(self, lam, frame4, rng):
        """xi -> lam xi with x -> lam x leaves (c, m) invariant and scales all
        curvature components by 1/lam^2."""
        xi = 1.0
        x = sample_point(rng, 4, 0.8, 3.0)
        base = build_metric(frame4, ProfilePair.schwarzschild_isotropic(xi), x)
        scaled = build_metric(frame4, ProfilePair.schwarzschild_isotropic(lam * xi), lam * x)
        assert scaled.c == pytest.approx(base.c, rel=1e-14)
        assert scaled.m == pytest.approx(base.m, rel=1e-14)
        gap = max_abs(lam**2 * curvature_closed(scaled) - curvature_closed(base))
        assert gap < 1e-12

    def test_ricci_zero_scales_too(self):
        for lam in (0.5, 2.0):
            checks = _checks(lam, lam * np.asarray(RADII))
            assert all(check.passed for check in checks.values())
