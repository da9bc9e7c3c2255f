"""Index contractions on the frame and metric arrays, and the two
differentiation engines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslergeo import (
    ConeStencilError,
    Frame,
    Jet2,
    ProfilePair,
    StencilError,
    StencilMissError,
    build_metric,
    fd_partials,
    hh_curvature,
    spray_derivatives,
)
from finslergeo import tensors
from finslergeo.report import _planned
from finslergeo.tensors import TOLERANCE_CLASSES, transform_components

from conftest import fd_scalar, sample_point


class TestTensorBasics:
    def test_metric_inverse_contraction(self, frame4, schwarzschild, rng):
        """a^ij a_jk = delta^i_k for any metric the geometry builds."""
        for _ in range(5):
            state = build_metric(frame4, schwarzschild, sample_point(rng, 4, 0.4, 6.0))
            delta = np.einsum("ij,jk->ik", state.a_up, state.a_low)
            np.testing.assert_allclose(delta, np.eye(4), atol=1e-12)

    def test_transverse_contraction_from_explicit_frame(self, rng):
        """u^ij u_jn = delta^i_n - e^i e_n, checked componentwise in a rotated chart."""
        rot = _spatial_rotation(rng, 4)
        frame = Frame.standard(4, epsilon=1).transformed(rot)
        got = np.einsum("ij,jn->in", frame.u_up, frame.u_low)
        want = np.eye(4) - np.outer(frame.e_up, frame.e_low)
        np.testing.assert_allclose(got, want, atol=1e-12)


def _spatial_rotation(rng, n_dim):
    """Orthogonal chart map fixing the axis direction."""
    block = np.linalg.qr(rng.normal(size=(n_dim - 1, n_dim - 1)))[0]
    rot = np.eye(n_dim)
    rot[1:, 1:] = block
    return rot


class TestContractionAlgebra:
    def test_chart_transform_roundtrip(self, rng):
        lin = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        comp = rng.normal(size=(4, 4, 4))
        pushed = transform_components(comp, "udd", lin)
        back = transform_components(pushed, "udd", np.linalg.inv(lin))
        np.testing.assert_allclose(back, comp, rtol=1e-10, atol=1e-12)


class TestJet2:
    @given(
        t=st.floats(0.3, 3.0),
        a=st.floats(0.2, 2.0),
        b=st.floats(0.5, 2.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_composite_against_finite_differences(self, t, a, b):
        """Jets and finite differences agree on a composite rational-sqrt map."""

        def f(s):
            return (s * s + a) / (s + b) ** 2 + (s * s + b) ** 0.5

        jet = f(Jet2.variable(t))
        d1 = fd_scalar(f, t, 1.0)
        d2 = fd_scalar(lambda s: f(Jet2.variable(s)).d1, t, 1.0)
        assert jet.d1 == pytest.approx(d1, rel=1e-8, abs=1e-10)
        assert jet.d2 == pytest.approx(d2, rel=1e-6, abs=1e-8)

    def test_arithmetic_identities(self):
        x = Jet2.variable(1.7)
        y = (x * x - 2.0) / x
        # d/dx (x - 2/x) = 1 + 2/x^2; second derivative -4/x^3
        assert y.d1 == pytest.approx(1.0 + 2.0 / 1.7**2, rel=1e-14)
        assert y.d2 == pytest.approx(-4.0 / 1.7**3, rel=1e-14)
        z = (2.0 - x) + 3.0 / x
        assert z.value == pytest.approx(2.0 - 1.7 + 3.0 / 1.7, rel=1e-15)

    def test_sqrt_matches_half_power(self):
        x = Jet2.variable(2.3) * Jet2.variable(2.3) + 1.0
        s1, s2 = x.sqrt(), x**0.5
        assert s1.value == pytest.approx(s2.value, rel=1e-15)
        assert s1.d1 == pytest.approx(s2.d1, rel=1e-14)
        assert s1.d2 == pytest.approx(s2.d2, rel=1e-13)

    def test_fractional_power_of_negative_rejected(self):
        with pytest.raises(ValueError):
            Jet2.variable(-2.0) ** 0.5
        with pytest.raises(ValueError):
            Jet2.variable(-2.0).sqrt()

    def test_array_jets_match_scalar_jets_and_reject_any_negative_base(self):
        """Array parts evaluate every element as the scalar jet would, to
        roundoff (numpy's array and scalar powers may round differently, and
        the d2 combination cancels); one negative element rejects the whole
        array."""

        def f(t):
            return (Jet2.variable(t) * Jet2.variable(t) + 1.0).sqrt() / (Jet2.variable(t) + 2.0) ** 3

        t = np.array([0.4, 1.3, 2.2])
        jet = f(t)
        for k, tk in enumerate(t):
            one = f(tk)
            np.testing.assert_allclose(
                [jet.value[k], jet.d1[k], jet.d2[k]],
                [one.value, one.d1, one.d2],
                rtol=1e-13,
            )
        with pytest.raises(ValueError):
            Jet2(np.array([1.0, -1.0]), 1.0, 0.0).sqrt()
        with pytest.raises(ValueError):
            Jet2(np.array([1.0, -1.0]), 1.0, 0.0) ** 1.5

    @pytest.mark.parametrize(
        "profile",
        [
            ProfilePair.constant(1.3, -0.7),
            ProfilePair.schwarzschild_isotropic(1.0),
            ProfilePair.rational((0.8, 0.1, 0.05), (1.0, 0.2)),
        ],
        ids=["constant", "schwarzschild", "rational"],
    )
    def test_catalog_profiles_vs_finite_differences(self, profile, rng):
        """Jet derivatives of every catalog profile match FD to 1e-6 relative
        at 100 random radii away from poles."""
        for _ in range(100):
            r = rng.uniform(0.5, 10.0)
            cj, mj = profile.jets(r)
            for pos, jet in enumerate((cj, mj)):
                d1 = fd_scalar(lambda rr, _p=pos: profile.jets(rr)[_p].value, r, r)
                d2 = fd_scalar(lambda rr, _p=pos: profile.jets(rr)[_p].d1, r, r)
                scale1 = max(abs(jet.d1), 1e-3)
                scale2 = max(abs(jet.d2), 1e-3)
                assert abs(jet.d1 - d1) / scale1 < 1e-6
                assert abs(jet.d2 - d2) / scale2 < 1e-6


class TestFdGradient:
    """fd_partials on scalar fields: one value per stencil row gives the
    gradient covector, shaped like the point."""

    def test_radius_gradient_is_radial_covector(self, frame4, rng):
        """The gradient of r = sqrt(u_ij x^i x^j) is the unit radial covector n_i."""
        x = sample_point(rng, 4, 0.5, 5.0)
        grad = fd_partials(lambda p: frame4.radius(p), x, scales=np.maximum(1.0, np.abs(x)))
        n_low = (frame4.u_low @ x) / frame4.radius(x)
        np.testing.assert_allclose(grad, n_low, atol=1e-9)

    def test_constant_field_gives_zero(self, rng):
        # roundoff in the stencil sum is amplified by 1/h; zero at FD accuracy
        x = rng.normal(size=4)
        grad = fd_partials(lambda pts: np.full(len(pts), 4.25), x, scales=np.maximum(1.0, np.abs(x)))
        np.testing.assert_allclose(grad, np.zeros(4), atol=1e-9)

    def test_schwarzschild_c_gradient(self, frame4, schwarzschild):
        """grad c at r = 1, xi = 1 equals c' n_i with c' = -8/9."""
        x = np.array([0.2, 0.6, 0.8, 0.0])

        def c_field(p):
            return schwarzschild.jets(frame4.radius(p))[0].value

        grad = fd_partials(c_field, x, scales=np.maximum(1.0, np.abs(x)))
        n_low = (frame4.u_low @ x) / 1.0
        np.testing.assert_allclose(grad, (-8.0 / 9.0) * n_low, atol=1e-9)
        # Cross-check the same derivative through the jet engine.
        state = build_metric(frame4, schwarzschild, x)
        assert state.c1 == pytest.approx(-8.0 / 9.0, rel=1e-14)

    def test_non_finite_stencil_raises(self):
        with pytest.raises(StencilError):
            fd_partials(lambda pts: np.full(len(pts), np.nan), np.ones(3), scales=1.0)

    def test_non_finite_message_names_axis_and_offset(self):
        """Only the point at axis 1, offset -1 is NaN: the error names it."""
        x = np.ones(3)

        def field(pts):
            out = pts.sum(axis=1)
            out[(pts[:, 1] < 1.0) & (pts[:, 1] > 1.0 - 1.5 * tensors.FD_STEP)] = np.nan
            return out

        with pytest.raises(StencilError, match=r"axis 1, offset -1\)"):
            fd_partials(field, x, scales=1.0)

    def test_single_point_field_is_rejected(self):
        with pytest.raises(ValueError, match="one value per row"):
            fd_partials(lambda pts: 4.25, np.ones(3), scales=1.0)

    @pytest.mark.parametrize("route", ["y-stencil", "x-stencil"])
    def test_non_finite_spray_stencil_raises(self, route):
        """m = nan makes every spray evaluation NaN: the spray's y- and
        x-stencils run through fd_partials, so they reject it too."""
        frame = Frame.standard(4, 1)
        pair = ProfilePair.rational((0.8,), (float("nan"),))
        x = np.array([0.1, 1.0, 0.5, -0.3])
        y = np.array([1.0, 0.2, -0.4, 0.3])
        nan_metric = build_metric(frame, pair, x)
        with pytest.raises(StencilError):
            if route == "y-stencil":
                spray_derivatives(nan_metric, y, 0.0)
            else:
                # Closed data from a finite profile, so only the x-stencil sees the NaN.
                finite = build_metric(frame, ProfilePair.constant(0.8, 1.0), x)
                derivs = spray_derivatives(finite, y, 0.0)
                hh_curvature(dataclasses.replace(derivs, metric=nan_metric))

    def test_miss_at_full_step_retries_at_tenth(self, rng, monkeypatch):
        """A field undefined beyond 1.5e-5 of x misses the order-4 stencil
        (reach 2e-5) but not the tenfold-shrunk one: the result is exactly
        the derivative taken at step/10.  The field sees each step's whole
        stencil as one (4 N, N) stack, so it is called twice."""
        x = rng.normal(size=3)
        shapes = []

        def field(pts):
            return np.stack([np.sin(pts[:, 0]) * pts[:, 1], np.sum(pts * pts, axis=1)], axis=1)

        def ball_field(pts):
            shapes.append(pts.shape)
            if np.max(np.abs(pts - x)) > 1.5e-5:
                raise StencilMissError("outside the ball")
            return field(pts)

        got = fd_partials(ball_field, x, scales=1.0)
        monkeypatch.setattr(tensors, "FD_STEP", 0.1 * tensors.FD_STEP)
        want = fd_partials(field, x, scales=1.0)
        assert np.array_equal(got, want)
        assert shapes == [(12, 3), (12, 3)]

    def test_one_call_per_step_in_axis_major_order(self, rng):
        """Without a miss the field is called once, with rows axis-major and
        then in stencil order, each row x moved along one axis."""
        x = rng.normal(size=4)
        width = 4  # points in the order-4 first-derivative stencil
        stacks = []

        def field(pts):
            stacks.append(pts.copy())
            return pts @ np.arange(1.0, 5.0)

        grad = fd_partials(field, x, scales=1.0)
        np.testing.assert_allclose(grad, np.arange(1.0, 5.0), rtol=1e-9)
        assert len(stacks) == 1 and stacks[0].shape == (4 * width, 4)
        moved = (stacks[0] - x).reshape(4, width, 4)
        for axis in range(4):
            others = np.delete(moved[axis], axis, axis=1)
            assert np.all(others == 0.0)
            assert np.all(np.diff(moved[axis, :, axis]) < 0.0)  # offsets descend

    def test_exact_through_degree_four(self, rng, monkeypatch):
        """The order-4 stencil differentiates a quartic exactly: even at a
        step of 0.1 the gradient matches to roundoff."""
        monkeypatch.setattr(tensors, "FD_STEP", 0.1)
        x = rng.normal(size=3)

        def quartic(pts):
            a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
            return a**4 - 2.0 * a**2 * b + 3.0 * b * c**3 + c - 7.0

        a, b, c = x
        want = np.array([4 * a**3 - 4 * a * b, -2 * a**2 + 3 * c**3, 9 * b * c**2 + 1])
        np.testing.assert_allclose(fd_partials(quartic, x, scales=1.0), want, rtol=0, atol=1e-12)

    def test_quintic_error_is_fourth_order_in_the_step(self, rng, monkeypatch):
        """On f = t^5 the stencil's error is exactly -(h^4 / 30) f^(5) =
        -4 h^4 at every point: halving the step divides it by 16."""
        t = rng.uniform(-2.0, 2.0)
        errors = []
        for step in (0.1, 0.05):
            monkeypatch.setattr(tensors, "FD_STEP", step)
            got = fd_scalar(lambda pts: pts**5, t, 1.0)
            errors.append(got - 5.0 * t**4)
            assert errors[-1] == pytest.approx(-4.0 * step**4, rel=1e-6)
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=1e-6)

    def test_stencil_rows_sit_at_one_and_two_steps_of_the_scale(self):
        """Along axis k the rows sit at x + (2, 1, -1, -2) h_k e_k with
        h_k = FD_STEP * scale_k, here with scale max(1, |x_k|)."""
        x = np.array([0.3, -4.0, 2.5])
        values, _, h = tensors.fd_stencil(lambda pts: pts, x, scales=np.maximum(1.0, np.abs(x)))
        np.testing.assert_array_equal(h, tensors.FD_STEP * np.array([1.0, 4.0, 2.5]))
        for axis in range(3):
            moved = values[axis] - x
            assert np.all(np.delete(moved, axis, axis=1) == 0.0)
            np.testing.assert_allclose(moved[:, axis] / h[axis], [2.0, 1.0, -1.0, -2.0], rtol=1e-9)

    def test_miss_at_both_steps_raises(self):
        x = np.ones(3)

        def point_field(p):
            if not np.array_equal(p, x):
                raise StencilMissError("defined only at x")
            return 1.0

        with pytest.raises(ConeStencilError):
            fd_partials(point_field, x, scales=np.maximum(1.0, np.abs(x)))


class TestPlanned:
    def test_tolerance_is_class_value_times_scale(self):
        """A check's tolerance is its class's value times the plan's scale;
        a None class is an informational check with no tolerance."""
        rows = {"a": np.array([2e-10, 5e-10]), "b": np.array([5e-10]), "c": np.array([3.0])}
        plan = [("a", "algebraic", 1.0), ("b", "algebraic", 10.0), ("c", None, 1.0)]
        a, b, c = _planned(rows, plan, TOLERANCE_CLASSES)
        assert a.tolerance == 1e-10 and not a.passed
        assert b.tolerance == 1e-9 and b.passed
        assert c.tolerance is None and c.tolerance_class is None and c.passed
        (tight,) = _planned(rows, plan[1:2], {"algebraic": 1e-11})
        assert tight.tolerance == pytest.approx(1e-10) and not tight.passed
