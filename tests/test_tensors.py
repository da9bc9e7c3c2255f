"""Index contractions on the frame and metric arrays, and the two
differentiation engines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslergeo import (
    Frame,
    Jet2,
    OutsideConeError,
    ProfilePair,
    StencilError,
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
    def test_composite_against_the_complex_step(self, t, a, b):
        """Jets and the complex step agree on a composite rational-sqrt map."""

        def f(s):
            return (s * s + a) / (s + b) ** 2 + (s * s + b) ** 0.5

        jet = f(Jet2.variable(t))
        d1 = fd_scalar(f, t)
        d2 = fd_scalar(lambda s: f(Jet2.variable(s)).d1, t)
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
    def test_catalog_profiles_vs_the_complex_step(self, profile, rng):
        """Jet derivatives of every catalog profile match the complex step
        to 1e-6 relative at 100 random radii away from poles."""
        for _ in range(100):
            r = rng.uniform(0.5, 10.0)
            cj, mj = profile.jets(r)
            for pos, jet in enumerate((cj, mj)):
                d1 = fd_scalar(lambda rr, _p=pos: profile.jets(rr)[_p].value, r)
                d2 = fd_scalar(lambda rr, _p=pos: profile.jets(rr)[_p].d1, r)
                scale1 = max(abs(jet.d1), 1e-3)
                scale2 = max(abs(jet.d2), 1e-3)
                assert abs(jet.d1 - d1) / scale1 < 1e-6
                assert abs(jet.d2 - d2) / scale2 < 1e-6


class TestFdGradient:
    """fd_partials on scalar fields: one value per complex row gives the
    gradient covector, shaped like the point."""

    def test_radius_gradient_is_radial_covector(self, frame4, rng):
        """The gradient of r = sqrt(u_ij x^i x^j) is the unit radial covector n_i."""
        x = sample_point(rng, 4, 0.5, 5.0)
        grad = fd_partials(lambda p: frame4.radius(p), x)
        n_low = (frame4.u_low @ x) / frame4.radius(x)
        np.testing.assert_allclose(grad, n_low, atol=1e-15)

    def test_constant_field_gives_zero(self, rng):
        """The complex step sums nothing, so a constant's gradient is exactly 0."""
        x = rng.normal(size=4)
        grad = fd_partials(lambda pts: np.full(len(pts), 4.25 + 0j), x)
        assert np.array_equal(grad, np.zeros(4))

    def test_schwarzschild_c_gradient(self, frame4, schwarzschild):
        """grad c at r = 1, xi = 1 equals c' n_i with c' = -8/9."""
        x = np.array([0.2, 0.6, 0.8, 0.0])

        def c_field(p):
            return schwarzschild.jets(frame4.radius(p))[0].value

        grad = fd_partials(c_field, x)
        n_low = (frame4.u_low @ x) / 1.0
        np.testing.assert_allclose(grad, (-8.0 / 9.0) * n_low, atol=1e-14)
        # Cross-check the same derivative through the jet engine.
        state = build_metric(frame4, schwarzschild, x)
        assert state.c1 == pytest.approx(-8.0 / 9.0, rel=1e-14)

    def test_non_finite_stencil_raises(self):
        with pytest.raises(StencilError):
            fd_partials(lambda pts: np.full(len(pts), np.nan), np.ones(3))

    def test_non_finite_message_names_the_axis(self):
        """Only the row moved along axis 1 is NaN: the error names its axis."""
        x = np.ones(3)

        def field(pts):
            out = pts.sum(axis=1)
            out[pts[:, 1].imag != 0.0] = np.nan
            return out

        with pytest.raises(StencilError, match=r"\(axis 1\)"):
            fd_partials(field, x)

    def test_single_point_field_is_rejected(self):
        with pytest.raises(ValueError, match="one value per row"):
            fd_partials(lambda pts: 4.25, np.ones(3))

    @pytest.mark.parametrize("route", ["y-stencil", "x-stencil"])
    def test_non_finite_spray_stencil_raises(self, route):
        """m = nan makes every spray evaluation NaN: the spray's y- and
        x-derivatives run through fd_partials, so they reject it too."""
        frame = Frame.standard(4, 1)
        pair = ProfilePair.rational((0.8,), (float("nan"),))
        x = np.array([0.1, 1.0, 0.5, -0.3])
        y = np.array([1.0, 0.2, -0.4, 0.3])
        nan_metric = build_metric(frame, pair, x)
        # Complex division flags the NaN it propagates; the StencilError is the point.
        with pytest.raises(StencilError), np.errstate(invalid="ignore"):
            if route == "y-stencil":
                spray_derivatives(nan_metric, y, 0.0)
            else:
                # Closed data from a finite profile, so only the x-derivative sees the NaN.
                finite = build_metric(frame, ProfilePair.constant(0.8, 1.0), x)
                derivs = spray_derivatives(finite, y, 0.0)
                hh_curvature(dataclasses.replace(derivs, metric=nan_metric))

    def test_rows_keep_the_real_part_of_the_point(self, rng):
        """A field defined only where the real part is exactly x is
        differentiated as if it were defined everywhere: no complex row
        leaves the base point, so nothing misses and nothing retries."""
        x = rng.normal(size=3)

        def field(pts):
            return np.stack([np.sin(pts[:, 0]) * pts[:, 1], np.sum(pts * pts, axis=1)], axis=1)

        def point_field(pts):
            if not np.array_equal(pts.real, np.broadcast_to(x, pts.shape)):
                raise ValueError("defined only at x")
            return field(pts)

        got = fd_partials(point_field, x)
        assert np.array_equal(got, fd_partials(field, x))
        want = np.array(
            [[np.cos(x[0]) * x[1], 2 * x[0]], [np.sin(x[0]), 2 * x[1]], [0.0, 2 * x[2]]]
        )
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    def test_one_call_with_one_complex_row_per_axis(self, rng):
        """The field is called once, on N rows in axis order, row k being
        x + i h e_k with h = COMPLEX_STEP whatever |x| is."""
        x = np.array([0.3, -4.0, 2.5, 1e3])
        stacks = []

        def field(pts):
            stacks.append(pts.copy())
            return pts @ np.arange(1.0, 5.0)

        grad = fd_partials(field, x)
        np.testing.assert_allclose(grad, np.arange(1.0, 5.0), rtol=1e-15)
        assert len(stacks) == 1 and stacks[0].shape == (4, 4)
        assert np.array_equal(stacks[0].real, np.broadcast_to(x, (4, 4)))
        assert np.array_equal(stacks[0].imag, tensors.COMPLEX_STEP * np.eye(4))

    def test_exact_on_polynomials(self, rng):
        """The complex step differentiates a polynomial to roundoff: its
        truncation error is O(h^2) = 1e-60 relative."""
        x = rng.normal(size=3)

        def quartic(pts):
            a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
            return a**4 - 2.0 * a**2 * b + 3.0 * b * c**3 + c - 7.0

        a, b, c = x
        want = np.array([4 * a**3 - 4 * a * b, -2 * a**2 + 3 * c**3, 9 * b * c**2 + 1])
        np.testing.assert_allclose(fd_partials(quartic, x), want, rtol=0, atol=1e-12)

    def test_quintic_error_is_second_order_in_the_step(self, rng, monkeypatch):
        """On f = t^5, Im f(t + ih)/h = 5t^4 - 10 t^2 h^2 + h^4: at a
        large step the error is that second-order term, with no
        cancellation, and at any step below 1e-20 it is gone."""
        t = rng.uniform(0.5, 2.0)
        for step in (1e-3, 5e-4):
            monkeypatch.setattr(tensors, "COMPLEX_STEP", step)
            error = fd_scalar(lambda pts: pts**5, t) - 5.0 * t**4
            assert error == pytest.approx(-10.0 * t**2 * step**2 + step**4, rel=1e-6)
        for step in (1e-20, 1e-30, 1e-200):
            monkeypatch.setattr(tensors, "COMPLEX_STEP", step)
            assert fd_scalar(lambda pts: pts**5, t) == pytest.approx(5.0 * t**4, rel=1e-14)

    def test_a_field_error_propagates_without_retry(self):
        """An error the field raises (here an admissibility test) leaves
        fd_partials unchanged after one call: there is no second step."""
        calls = []

        def refusing(pts):
            calls.append(pts.shape)
            raise OutsideConeError("refused", rows=np.ones(len(pts), dtype=bool))

        with pytest.raises(OutsideConeError, match="refused"):
            fd_partials(refusing, np.ones(3))
        assert calls == [(3, 3)]


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
