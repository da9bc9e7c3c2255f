"""Metric family assembly, covariant derivatives, connection and curvature,
each closed form against its definitional oracle."""

import numpy as np
import pytest

from finslergeo import (
    DomainError,
    Frame,
    FrameError,
    ProfilePair,
    RadialSingularityError,
    build_metric,
    christoffel,
    christoffel_definitional,
    curvature_closed,
    curvature_fd_oracle,
    curvature_presubstitution,
    nabla_b,
    ricci_closed,
    ricci_from_curvature,
)
from finslergeo.tensors import max_abs, rel_frobenius

from conftest import (
    in_chart,
    nabla_b_definitional,
    nabla_c,
    nabla_c_definitional,
    sample_point,
    transform_components,
)


def spatial_rotation(rng, n_dim):
    block = np.linalg.qr(rng.normal(size=(n_dim - 1, n_dim - 1)))[0]
    rot = np.eye(n_dim)
    rot[1:, 1:] = block
    return rot


class TestFrame:
    def test_standard_frame_identities(self):
        for eps in (1, -1):
            frame = Frame.standard(4, eps)
            assert frame.e_low @ frame.e_up == pytest.approx(1.0, abs=1e-15)
            assert max_abs(frame.e_up @ frame.u_low) == 0.0
            want = np.eye(4) - np.outer(frame.e_up, frame.e_low)
            np.testing.assert_allclose(frame.u_up @ frame.u_low, want, atol=1e-15)
            np.testing.assert_allclose(
                frame.u_mix, np.eye(4) - np.outer(frame.e_low, frame.e_up), atol=1e-15
            )

    def test_transformed_frame_keeps_identities(self, rng):
        frame = in_chart(Frame.standard(4, -1), spatial_rotation(rng, 4))
        assert frame.e_low @ frame.e_up == pytest.approx(1.0, abs=1e-12)
        assert max_abs(frame.e_up @ frame.u_low) < 1e-12

    def test_invalid_frames_rejected(self):
        with pytest.raises(FrameError):  # bad signature flag
            Frame(4, 0, np.array([1.0, 0, 0, 0]), np.diag([0.0, 1, 1, 1]))
        with pytest.raises(FrameError):  # u not transverse to the axis
            Frame(4, 1, np.array([1.0, 0, 0, 0]), np.eye(4))
        with pytest.raises(FrameError):  # rank of u too low
            Frame(4, 1, np.array([1.0, 0, 0, 0]), np.diag([0.0, 1, 1, 0]))
        with pytest.raises(FrameError):  # u not positive semidefinite
            Frame(4, 1, np.array([1.0, 0, 0, 0]), np.diag([0.0, 1, 1, -1]))

    @pytest.mark.parametrize("name", ["e_low", "u_low", "background", "background_inv", "e_up", "u_up", "u_mix"])
    def test_frame_arrays_are_read_only(self, name, rng):
        """A validated frame cannot be changed through its arrays, in the
        standard chart or a transformed one."""
        for frame in (Frame.standard(4, -1), in_chart(Frame.standard(4, 1), rng.normal(size=(4, 4)))):
            arr = getattr(frame, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    def test_standard_frame_is_shared(self):
        """One standard frame per (n_dim, epsilon), however it is asked for."""
        assert Frame.standard(4, -1) is Frame.standard(4, -1)
        assert Frame.standard(4) is Frame.standard(4, epsilon=-1)
        assert Frame.standard(4, 1) is not Frame.standard(4, -1)
        assert Frame.standard(5, 1).n_dim == 5

    def test_frames_compare_and_hash_by_identity(self):
        """Two distinct frames compare unequal without comparing their
        arrays (which raised ValueError), and the shared standard frame
        equals itself; a frame can key a dict."""
        standard = Frame.standard(4)
        assert (standard == in_chart(standard, np.eye(4))) is False
        assert standard == Frame.standard(4)
        assert {standard: 1}[Frame.standard(4)] == 1

    def test_radius_and_direction(self, frame4, schwarzschild):
        """x with spatial part (3, 4, 0) has r = 5 and n = (0, 0.6, 0.8, 0)."""
        state = build_metric(frame4, schwarzschild, np.array([0.7, 3.0, 4.0, 0.0]))
        assert state.r == pytest.approx(5.0, rel=1e-15)
        np.testing.assert_allclose(state.n_low, [0.0, 0.6, 0.8, 0.0], atol=1e-15)

    def test_axis_point_rejected(self, frame4, schwarzschild):
        with pytest.raises(RadialSingularityError):
            build_metric(frame4, schwarzschild, np.array([1.0, 0.0, 0.0, 0.0]))


class TestMetricAssembly:
    def test_euclidean_background(self):
        """c = 1, m = 1, eps = +1 reproduces the Euclidean background metric."""
        frame = Frame.standard(4, 1)
        state = build_metric(frame, ProfilePair.constant(1.0, 1.0), np.array([0.3, 1.0, 2.0, -1.0]))
        np.testing.assert_allclose(state.a_low, np.eye(4), atol=1e-15)

    def test_minkowski_background(self):
        """c = 1, m = -1, eps = -1 reproduces the Minkowski background metric."""
        frame = Frame.standard(4, -1)
        state = build_metric(frame, ProfilePair.constant(1.0, -1.0), np.array([0.3, 1.0, 2.0, -1.0]))
        np.testing.assert_allclose(state.a_low, np.diag([1.0, -1.0, -1.0, -1.0]), atol=1e-15)
        np.testing.assert_allclose(frame.background, state.a_low, atol=1e-15)

    def test_closed_inverse_is_the_inverse(self, frame4, schwarzschild, rng):
        """a^ij = b^i b^j / c^2 + u^ij / m satisfies a_ij a^jn = delta exactly;
        the delta identity is the arbiter for the inverse's c-power."""
        for _ in range(10):
            state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.3, 8.0))
            np.testing.assert_allclose(state.a_low @ state.a_up, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(state.a_up, np.linalg.inv(state.a_low), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("profile_name", ["schwarzschild", "pd_rational", "constant"])
    @pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
    def test_stack_equals_per_row(self, profile_name, rotated, request, rng):
        """build_metric, christoffel and nabla_b on a (P, N) stack of points
        equal their per-row results to 1e-15 relative."""
        pair = (
            ProfilePair.constant(0.9, 1.3)
            if profile_name == "constant"
            else request.getfixturevalue(profile_name)
        )
        frame = Frame.standard(4, 1)
        if rotated:
            frame = in_chart(frame, spatial_rotation(rng, 4))
        pts = np.array([sample_point(rng, 4, 0.5, 5.0) for _ in range(6)])
        stack = build_metric(frame, pair, pts)
        for row, pt in enumerate(pts):
            one = build_metric(frame, pair, pt)
            for name in ("r", "n_low", "n_up", "b_low", "b_up", "a_low", "a_up", "c", "c1", "m2"):
                want = np.asarray(getattr(one, name))
                got = np.asarray(getattr(stack, name))[row]
                assert max_abs(got - want) <= 1e-15 * max(max_abs(want), 1e-300), name
            for func in (christoffel, nabla_b):
                want = func(one)
                assert max_abs(func(stack)[row] - want) <= 1e-15 * max_abs(want)

    def test_stack_domain_check_covers_every_row(self, frame4, schwarzschild):
        """One point inside the pole r = xi/4 makes the whole stack a DomainError."""
        pts = np.array([[0.1, 1.0, 0.5, 0.0], [0.1, 0.1, 0.1, 0.0], [0.2, 2.0, 0.0, 1.0]])
        with pytest.raises(DomainError, match="pole"):
            build_metric(frame4, schwarzschild, pts)
        pts[1, 1:] = 0.0
        with pytest.raises(RadialSingularityError):
            build_metric(frame4, schwarzschild, pts)

    def test_stack_domain_error_marks_the_failing_rows(self, frame4, schwarzschild):
        """The DomainError of a stack marks exactly the points that failed its
        check: the one point inside the pole, or the points where c <= 0."""
        pts = np.array([[0.1, 1.0, 0.5, 0.0], [0.1, 0.1, 0.1, 0.0], [0.2, 2.0, 0.0, 1.0]])
        with pytest.raises(DomainError, match="pole") as err:
            build_metric(frame4, schwarzschild, pts)
        assert err.value.rows.tolist() == [False, True, False]
        # c = 0.8 - 3/r is positive only beyond r = 3.75.
        half = ProfilePair.rational((0.8, -3.0), (1.0, 0.2))
        pts = np.array([[0.0, 5.0, 0.0, 0.0], [0.3, 1.0, 2.0, 0.0], [0.0, 0.0, 4.0, 1.0]])
        with pytest.raises(DomainError, match="not positive") as err:
            build_metric(frame4, half, pts)
        assert err.value.rows.tolist() == [False, True, False]

    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    def test_axis_covector_is_the_frames_own_array(self, complex_rows, frame4, schwarzschild, rng):
        """b_i is a read-only view of frame.e_low broadcast over the points,
        on a real batch and on complex rows in front of it, not a copy per
        point; the points themselves are copied."""
        pts = np.array([sample_point(rng, 4, 0.5, 5.0) for _ in range(3)])
        if complex_rows:
            pts = pts + 1j * 1e-30 * np.eye(4)[:, None]
        state = build_metric(frame4, schwarzschild, pts)
        assert state.b_low.shape == pts.shape
        assert not state.b_low.flags.writeable
        assert np.shares_memory(state.b_low, frame4.e_low)
        assert np.array_equal(state.b_low, np.broadcast_to(frame4.e_low, pts.shape))
        assert not np.shares_memory(state.x, pts)

    def test_axis_vector_identities(self, frame4, schwarzschild, rng):
        state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.5, 5.0))
        assert state.b_up @ state.b_low == pytest.approx(state.c**2, rel=1e-14)
        assert max_abs(state.b_up @ frame4.u_low) < 1e-14
        np.testing.assert_allclose(state.b_up, state.c**2 * frame4.e_up, atol=1e-14)
        assert state.n_low @ state.b_up == pytest.approx(0.0, abs=1e-14)
        assert state.b_up @ state.dc_low == pytest.approx(0.0, abs=1e-14)


class TestNablaB:
    def test_constant_profile_gives_zero(self, frame4):
        """With c constant the axis covector is parallel (the flat/Berwald case)."""
        state = build_metric(frame4, ProfilePair.constant(1.0, -1.0), np.array([0.1, 1.0, 0.5, 0.2]))
        np.testing.assert_allclose(nabla_b(state), np.zeros((4, 4)), atol=1e-15)

    def test_closed_vs_definitional(self, frame4, schwarzschild):
        """Closed form (c_i b_j + c_j b_i)/c equals the definitional covariant
        derivative built from numeric partials and definitional Christoffels."""
        state = build_metric(frame4, schwarzschild, np.array([0.2, 0.6, 0.8, 0.0]))
        assert max_abs(nabla_b(state) - nabla_b_definitional(state)) < 1e-9

    def test_symmetry_exact(self, frame4, schwarzschild, rng):
        state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.4, 6.0))
        nb = nabla_b(state)
        assert max_abs(nb - nb.T) == 0.0

    def test_double_fiber_contraction_identity(self, frame4, schwarzschild, rng):
        """y^i y^j nabla_i b_j = (2/c) (b_h y^h) (y^h c_h) at 10 points x 10 fibers."""
        for _ in range(10):
            state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.4, 6.0))
            nb = nabla_b(state)
            for _ in range(10):
                y = rng.normal(size=4)
                lhs = y @ nb @ y
                rhs = (2.0 / state.c) * (state.b_low @ y) * (state.dc_low @ y)
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_berwald_obstruction(self, frame4, schwarzschild, pd_rational):
        """Wherever c' != 0 the axis covector is not parallel: max |nabla b| > 0."""
        for pair in (schwarzschild, pd_rational):
            state = build_metric(frame4, pair, np.array([0.0, 1.0, 0.3, -0.4]))
            assert state.c1 != 0.0
            assert max_abs(nabla_b(state)) > 1e-3 * abs(state.c1)


class TestNablaC:
    def test_constant_profile_gives_zero(self, frame4):
        state = build_metric(frame4, ProfilePair.constant(1.2, -1.0), np.array([0.1, 1.0, 0.5, 0.2]))
        np.testing.assert_allclose(nabla_c(state), np.zeros((4, 4)), atol=1e-15)

    def test_closed_vs_definitional(self, frame4, schwarzschild, rng):
        """Closed form against the all-numeric oracle at r = 2, xi = 1."""
        x = 2.0 * np.array([0.0, 0.6, 0.8, 0.0])
        x[0] = 0.3
        state = build_metric(frame4, schwarzschild, x)
        assert max_abs(nabla_c(state) - nabla_c_definitional(state)) < 1e-8

    def test_axis_double_contraction(self, frame4, schwarzschild):
        """b^i b^j nabla_i c_j = -c c'^2 / m; at r = 1, xi = 1 this is 81920/151875."""
        state = build_metric(frame4, schwarzschild, np.array([0.2, 0.6, 0.8, 0.0]))
        lhs = state.b_up @ nabla_c(state) @ state.b_up
        assert lhs == pytest.approx(-state.c * state.c1**2 / state.m, rel=1e-12)
        assert lhs == pytest.approx(81920.0 / 151875.0, rel=1e-12)


class TestChristoffel:
    def test_flat_profiles_give_zero(self, frame4):
        state = build_metric(frame4, ProfilePair.constant(1.0, -1.0), np.array([0.1, 1.0, 0.5, 0.2]))
        np.testing.assert_allclose(christoffel(state), np.zeros((4, 4, 4)), atol=1e-15)

    @pytest.mark.parametrize("profile_name", ["schwarzschild", "pd_rational"])
    def test_closed_vs_definitional_at_random_points(self, profile_name, frame4, schwarzschild, pd_rational, rng):
        """Closed symbols match (1/2) a^kn (d_i a_nj + d_j a_ni - d_n a_ij)
        with numeric metric derivatives, at 10 random points, to 1e-8."""
        pair = {"schwarzschild": schwarzschild, "pd_rational": pd_rational}[profile_name]
        for _ in range(10):
            state = build_metric(frame4, pair, sample_point(rng, 4, 0.5, 6.0))
            gap = max_abs(christoffel(state) - christoffel_definitional(state))
            assert gap < 1e-8

    def test_lower_symmetry_exact(self, frame4, schwarzschild, rng):
        state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.4, 6.0))
        gamma = christoffel(state)
        assert max_abs(gamma - np.transpose(gamma, (0, 2, 1))) == 0.0


class TestCurvature:
    def test_flat_profiles_give_zero(self, frame4):
        state = build_metric(frame4, ProfilePair.constant(1.0, -1.0), np.array([0.1, 1.0, 0.5, 0.2]))
        assert max_abs(curvature_closed(state)) == 0.0
        assert max_abs(curvature_fd_oracle(state)) < 1e-10

    def test_closed_matches_oracle(self, frame4, schwarzschild):
        """Closed form vs the definitional finite-difference oracle at
        r in {0.5, 1, 3}, relative Frobenius 1e-6."""
        for r in (0.5, 1.0, 3.0):
            x = np.array([0.2, 0.6 * r, 0.8 * r, 0.0])
            state = build_metric(frame4, schwarzschild, x)
            gap = rel_frobenius(curvature_closed(state), curvature_fd_oracle(state))
            assert gap < 1e-6

    def test_block_forms_agree(self, frame4, schwarzschild, pd_rational, rng):
        """The substituted five-block form equals the four-block u/n/b form."""
        for pair in (schwarzschild, pd_rational):
            state = build_metric(frame4, pair, sample_point(rng, 4, 0.5, 5.0))
            assert max_abs(curvature_closed(state) - curvature_presubstitution(state)) < 1e-13

    def test_antisymmetries(self, frame4, schwarzschild, rng):
        state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.4, 4.0))
        riem = curvature_closed(state)
        assert max_abs(riem + np.transpose(riem, (0, 1, 3, 2))) < 1e-14
        lowered = np.einsum("is,nskm->nikm", state.a_low, riem)
        assert max_abs(lowered + np.transpose(lowered, (1, 0, 2, 3))) < 1e-13

    def test_ricci_consistency(self, frame4, schwarzschild, pd_rational, rng):
        """Tracing the closed curvature reproduces the decomposed Ricci to 1e-9,
        and the oracle curvature's trace agrees to 1e-6."""
        for pair in (schwarzschild, pd_rational):
            state = build_metric(frame4, pair, sample_point(rng, 4, 0.5, 5.0))
            ric, _ = ricci_closed(state)
            assert max_abs(ricci_from_curvature(curvature_closed(state)) - ric) < 1e-9
            assert max_abs(ricci_from_curvature(curvature_fd_oracle(state)) - ric) < 1e-6

    def test_dimension_five_ricci_nonzero(self, rng):
        """The vacuum property is specific to N = 4: at N = 5 the same profiles
        give coefficients (0.64, -0.32, -0.96) at r = 1 and a nonzero tensor."""
        frame = Frame.standard(5, -1)
        pair = ProfilePair.schwarzschild_isotropic(1.0)
        x = np.zeros(5)
        x[1:3] = [0.6, 0.8]
        x[0] = 0.1
        state = build_metric(frame, pair, x)
        ric, (u_term, bb_term, nn_term) = ricci_closed(state)
        assert u_term == pytest.approx(0.64, rel=1e-12)
        assert bb_term == pytest.approx(-0.32, rel=1e-12)
        assert nn_term == pytest.approx(-0.96, rel=1e-12)
        assert max_abs(ric) > 0.1
        assert max_abs(ricci_from_curvature(curvature_closed(state)) - ric) < 1e-9

    def test_chart_covariance(self, schwarzschild, rng):
        """All closed forms are chart-covariant: computing in a rotated chart
        equals pushing the standard-chart tensors through the rotation."""
        rot = spatial_rotation(rng, 4)
        frame_std = Frame.standard(4, -1)
        frame_rot = in_chart(frame_std, rot)
        x = sample_point(rng, 4, 0.6, 4.0)
        state_std = build_metric(frame_std, schwarzschild, x)
        state_rot = build_metric(frame_rot, schwarzschild, rot @ x)
        assert state_rot.r == pytest.approx(state_std.r, rel=1e-13)

        np.testing.assert_allclose(
            state_rot.a_low,
            transform_components(state_std.a_low, "dd", rot),
            rtol=1e-11,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            christoffel(state_rot),
            transform_components(christoffel(state_std), "udd", rot),
            rtol=1e-11,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            curvature_closed(state_rot),
            transform_components(curvature_closed(state_std), "dudd", rot),
            rtol=1e-10,
            atol=1e-12,
        )
