"""Radial profile catalog: values, derivatives, domains, and the scalar
combinations feeding the Ricci decomposition, read from a metric state."""

import numpy as np
import pytest

from finslergeo import (
    DomainError,
    Frame,
    ProfilePair,
    build_metric,
    combo_scalars,
    ricci_closed,
)

from conftest import fd_reference


def state_at(pair, r, n_dim=4):
    """The metric state of ``pair`` at radius r (a float or an array of
    radii), on the standard frame at the points r e_1."""
    r = np.asarray(r, dtype=float)
    x = np.zeros(r.shape + (n_dim,))
    x[..., 1] = r
    return build_metric(Frame.standard(n_dim), pair, x)


class TestSchwarzschildPair:
    def test_values_at_unit_radius(self):
        """c(1) = 1.25/0.75 = 5/3 and m(1) = -(1.25)^4 = -2.44140625 for xi = 1."""
        (c, _, _), (m, _, _) = ProfilePair.schwarzschild_isotropic(1.0).jets(1.0)
        assert c == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert m == pytest.approx(-2.44140625, rel=1e-15)

    def test_first_derivatives_match_chain_rule(self):
        """c' = -(xi/4r^2) * 2/(1 - xi/4r)^2 and m' = (xi/r^2)(1 + xi/4r)^3."""
        xi = 1.0
        pair = ProfilePair.schwarzschild_isotropic(xi)
        for r in (0.4, 1.0, 2.5, 7.0):
            t = xi / (4.0 * r)
            (_, c1, _), (_, m1, _) = pair.jets(r)
            assert c1 == pytest.approx(-(xi / (4 * r**2)) * 2.0 / (1 - t) ** 2, rel=1e-13)
            assert m1 == pytest.approx((xi / r**2) * (1 + t) ** 3, rel=1e-13)

    def test_second_derivatives_match_substitution_rule(self):
        """c'' = (xi/2r^3) y' + (xi^2/16r^4) y'' with y' = 2/(1-t)^2, y'' = 4/(1-t)^3."""
        xi = 1.0
        pair = ProfilePair.schwarzschild_isotropic(xi)
        for r in (0.5, 1.0, 3.0):
            t = xi / (4.0 * r)
            yp = 2.0 / (1 - t) ** 2
            ypp = 4.0 / (1 - t) ** 3
            (_, _, c2), _ = pair.jets(r)
            assert c2 == pytest.approx(
                (xi / (2 * r**3)) * yp + (xi**2 / (16 * r**4)) * ypp, rel=1e-13
            )

    def test_domain_error_names_pole(self):
        pair = ProfilePair.schwarzschild_isotropic(1.0)
        with pytest.raises(DomainError, match="pole"):
            pair.jets(0.25)
        with pytest.raises(DomainError, match="pole"):
            pair.jets(0.1)

    def test_xi_must_be_positive(self):
        with pytest.raises(ValueError):
            ProfilePair.schwarzschild_isotropic(0.0)
        with pytest.raises(ValueError):
            ProfilePair.schwarzschild_isotropic(-2.0)


class TestConstantAndRational:
    def test_constant_pair_is_flat(self):
        (c, c1, c2), (m, m1, m2) = ProfilePair.constant(1.0, -1.0).jets(3.7)
        assert (c, m) == (1.0, -1.0)
        assert c1 == c2 == m1 == m2 == 0.0

    def test_rational_values_and_derivatives(self):
        # c = 0.8 + 0.1/r: c' = -0.1/r^2, c'' = 0.2/r^3
        pair = ProfilePair.rational((0.8, 0.1), (1.0, 0.2))
        (c, c1, c2), (m, _, _) = pair.jets(2.0)
        assert c == pytest.approx(0.85, rel=1e-15)
        assert c1 == pytest.approx(-0.1 / 4.0, rel=1e-14)
        assert c2 == pytest.approx(0.2 / 8.0, rel=1e-14)
        assert m == pytest.approx(1.1, rel=1e-15)

    def test_positivity_enforced_at_eval(self):
        # c = 1 - 1/r turns non-positive at r <= 1
        pair = ProfilePair.rational((1.0, -1.0), (1.0,))
        pair.jets(5.0)
        with pytest.raises(DomainError):
            pair.jets(0.9)

    def test_m_zero_rejected(self):
        pair = ProfilePair.rational((1.0,), (1.0, -1.0))
        with pytest.raises(DomainError):
            pair.jets(1.0)
        with pytest.raises(ValueError):
            ProfilePair.constant(1.0, 0.0)


class TestDerivativeOracle:
    @pytest.mark.parametrize(
        "pair",
        [
            ProfilePair.constant(0.9, 1.1),
            ProfilePair.schwarzschild_isotropic(1.0),
            ProfilePair.rational((0.8, 0.1), (1.0, 0.2)),
            ProfilePair.rational((0.9,), (1.2,)),
            ProfilePair.rational((0.8, 0.1, -0.05, 0.02), (1.0, 0.2, 0.03, -0.01)),
        ],
        ids=["constant", "schwarzschild", "rational", "rational_1", "rational_4"],
    )
    def test_jets_match_order4_differences(self, pair, rng):
        """The closed c', c'', m', m'' equal order-4 FD of the value and of
        the closed first derivative to 1e-8 relative at 200 random domain
        points; the rational pairs with 1, 2 and 4 coefficients run the
        Horner accumulators at their short and long lengths."""
        for _ in range(200):
            r = rng.uniform(0.4, 12.0)

            for pos, (_, got1, got2) in enumerate(pair.jets(r)):
                d1, d2 = (
                    fd_reference(lambda p: pair.jets(p[..., 0])[pos][part], [r], r)[0]
                    for part in (0, 1)
                )
                assert abs(got1 - d1) <= 1e-8 * max(abs(got1), 1.0)
                assert abs(got2 - d2) <= 1e-8 * max(abs(got2), 1.0)


class TestStackedEvaluation:
    @pytest.mark.parametrize(
        "pair",
        [
            ProfilePair.schwarzschild_isotropic(1.0),
            ProfilePair.rational((0.8, 0.1), (1.0, 0.2)),
            ProfilePair.rational((0.8, 0.1, -0.05, 0.02), (1.0, 0.2, 0.03, -0.01)),
            ProfilePair.constant(0.9, 1.1),
        ],
        ids=["schwarzschild", "rational_2", "rational_4", "constant"],
    )
    def test_each_radius_of_a_stack_gets_its_own_bits(self, pair, rng):
        """jets at one radius equals the same radius's row of a stacked call
        bit for bit, in all six parts, over 200 radii (stacked as (200,)
        and as (8, 25))."""
        r = rng.uniform(0.4, 12.0, size=200)
        stacked = pair.jets(r)
        grid = pair.jets(r.reshape(8, 25))
        for i, ri in enumerate(r):
            for triple, flat, grid_triple in zip(pair.jets(float(ri)), stacked, grid):
                for one, row, cell in zip(triple, flat, grid_triple):
                    assert np.shape(one) == () and row.shape == (200,)
                    assert one == row[i] == cell.reshape(-1)[i]


class TestComboScalars:
    def test_constant_profiles_vanish(self):
        state = state_at(ProfilePair.constant(1.4, -2.0), 2.2)
        s = combo_scalars(state)
        assert s.c_curv == s.m_curv == s.m_slope == s.cross == 0.0
        _, n = ricci_closed(state)
        assert n.as_tuple() == (0.0, 0.0, 0.0)

    def test_schwarzschild_vacuum_coefficients(self, rng):
        """All three Ricci coefficients vanish (below 1e-10 in 1/r^2 units)
        for the isotropic pair at N = 4, across 50 radii in (xi/4, 20 xi]."""
        xi = 1.0
        pair = ProfilePair.schwarzschild_isotropic(xi)
        r = rng.uniform(xi / 4 * 1.01 + 1e-9, 20 * xi, size=50)
        _, n = ricci_closed(state_at(pair, r))
        assert np.all(np.max(np.abs(n.as_tuple()), axis=0) * r**2 < 1e-10)

    def test_mixed_combination_value(self):
        """The mixed scalar c''/c - 2(c'/c)^2 - c'/(rc) - (c'/c)(m'/m) equals
        6 (1/r^2) t/(1+t)^2; at r = 1, xi = 1 that is 6 * 0.25/1.5625 = 0.96."""
        pair = ProfilePair.schwarzschild_isotropic(1.0)
        state = state_at(pair, 1.0)
        s = combo_scalars(state)
        mixed = s.c_curv - (state.c1 / state.c) * (state.m1 / state.m)
        assert mixed == pytest.approx(0.96, rel=1e-12)

    def test_pure_c_combination_identity(self, rng):
        """c''/c - 2(c'/c)^2 - c'/(rc) equals
        6 (t / r^2) [1 - (2/3) t/(1+t)] / ((1+t)(1-t)) for the isotropic pair."""
        xi = 1.0
        pair = ProfilePair.schwarzschild_isotropic(xi)
        for _ in range(25):
            r = rng.uniform(0.3, 15.0)
            t = xi / (4.0 * r)
            s = combo_scalars(state_at(pair, r))
            want = (
                (t / r**2)
                / ((1 + t) * (1 - t))
                * (6.0 - 4.0 * t / (1 + t))
            )
            assert s.c_curv == pytest.approx(want, rel=1e-10)
