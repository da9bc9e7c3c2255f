"""Index contractions on the frame and metric arrays, the profiles' own
derivatives, the complex-step engine, and the tolerances of the suite
skeleton's check plan."""

import numpy as np
import pytest

from finslergeo import (
    Frame,
    OutsideConeError,
    ProfilePair,
    StencilError,
    build_metric,
    fd_partials,
    hh_curvature,
    spray_derivatives,
)
from finslergeo import tensors
from finslergeo.scenario import parse_scenario
from finslergeo.suites import STENCIL_FLOAT_BUDGET, _judged
from finslergeo.tensors import TOLERANCE_CLASSES

from conftest import (
    fd_scalar,
    in_chart,
    sample_point,
    spray_first_numeric,
    transform_components,
)


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
        frame = in_chart(Frame.standard(4, epsilon=1), rot)
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


class TestProfileDerivatives:
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
        """The closed derivatives of every catalog profile match the complex
        step of its value and of its closed first derivative to 1e-6
        relative at 100 random radii away from poles."""
        for _ in range(100):
            r = rng.uniform(0.5, 10.0)
            for pos, (_, f1, f2) in enumerate(profile.jets(r)):
                d1 = fd_scalar(lambda rr, _p=pos: profile.jets(rr)[_p][0], r)
                d2 = fd_scalar(lambda rr, _p=pos: profile.jets(rr)[_p][1], r)
                assert abs(f1 - d1) / max(abs(f1), 1e-3) < 1e-6
                assert abs(f2 - d2) / max(abs(f2), 1e-3) < 1e-6


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
            return schwarzschild.jets(frame4.radius(p))[0][0]

        grad = fd_partials(c_field, x)
        n_low = (frame4.u_low @ x) / 1.0
        np.testing.assert_allclose(grad, (-8.0 / 9.0) * n_low, atol=1e-14)
        # Cross-check the same derivative against the profile's closed c'.
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
        """m = nan makes every spray evaluation NaN: the spray's y-step (the
        one finsler-curvature takes) and hh_curvature's x-steps run through
        fd_partials, so they reject it too."""
        frame = Frame.standard(4, 1)
        pair = ProfilePair.rational((0.8,), (float("nan"),))
        x = np.array([0.1, 1.0, 0.5, -0.3])
        y = np.array([1.0, 0.2, -0.4, 0.3])
        nan_metric = build_metric(frame, pair, x)
        # Complex division flags the NaN it propagates; the StencilError is the point.
        with pytest.raises(StencilError), np.errstate(invalid="ignore"):
            if route == "y-stencil":
                spray_first_numeric(nan_metric, y, 0.0)
            else:
                hh_curvature(nan_metric, y, 0.0)
        # The closed spray data take no stencil: they come back NaN, unchecked.
        with np.errstate(invalid="ignore"):
            assert np.isnan(spray_derivatives(nan_metric, y, 0.0)[0]).all()

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


class TestDirectionalStep:
    """fd_partials along given directions: a row d gives d^j d f / d x^j,
    the Jacobian (the identity's rows) contracted with d."""

    @staticmethod
    def field(pts):
        a, b, c = pts[..., 0], pts[..., 1], pts[..., 2]
        return np.stack([np.sin(a) * b, a * b * c + c**3, np.exp(b) - a**2], axis=-1)

    def test_one_point(self, rng):
        x, d = rng.normal(size=3), rng.normal(size=(2, 3))
        jacobian = fd_partials(self.field, x)  # [k, f]
        got = fd_partials(self.field, x, d)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, d @ jacobian, rtol=1e-14, atol=1e-14)

    def test_batch_with_one_direction_per_sample(self, rng):
        """Directions (1, B, N): one row along each sample's own vector,
        as hh_curvature steps along its fiber vectors."""
        x, d = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        jacobian = fd_partials(self.field, x)  # [b, k, f]
        got = fd_partials(self.field, x, d[None])
        assert got.shape == (5, 1, 3)
        want = np.einsum("bk,bkf->bf", d, jacobian)
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-14, atol=1e-14)
        shared = fd_partials(self.field, x, d[:2])  # (R, N) rows shared by every sample
        np.testing.assert_allclose(shared, np.einsum("rk,bkf->brf", d[:2], jacobian), rtol=1e-14)

    def test_non_finite_direction_row_names_its_sample(self, rng):
        """A NaN in sample 3's direction makes its row non-finite: one
        StencilError, naming that sample and row."""
        x, d = rng.normal(size=(4, 3)), rng.normal(size=(1, 4, 3))
        d[0, 3, 1] = np.nan
        with pytest.raises(StencilError, match=r"sample \(3,\), row 0\)"), np.errstate(
            invalid="ignore"
        ):
            fd_partials(self.field, x, d)


class TestPlanned:
    def test_tolerance_is_class_value_times_scale(self):
        """A check's tolerance is the scenario's value of its class times the
        plan's scale; a None class is an informational check with no
        tolerance.  Chunks of one sample each are joined in draw order."""
        rows = {"a": [2e-10, 5e-10], "b": [5e-10, 0.0], "c": [3.0, 1.0]}
        plan = {"a": ("algebraic", 1.0), "b": ("algebraic", 10.0), "c": (None, 1.0)}
        xs = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 2.0]])

        def judged(tolerances=""):
            text = "[scenario]\ndimension = 3\n[profile]\nkind = constant\n" + tolerances
            return _judged(
                "s",
                parse_scenario(text),
                xs,
                STENCIL_FLOAT_BUDGET,
                lambda state, r: {name: np.array(v)[r] for name, v in rows.items()},
                plan,
            )

        result = judged()
        a, b, c = result.checks
        assert result.status == "fail" and a.worst_index == 1 and a.n_samples == 2
        assert a.tolerance == TOLERANCE_CLASSES["algebraic"] == 1e-10 and not a.passed
        assert b.tolerance == 1e-9 and b.passed
        assert c.tolerance is None and c.tolerance_class is None and c.passed
        (_, tight, _) = judged("[tolerances]\nalgebraic = 1e-11\n").checks
        assert tight.tolerance == pytest.approx(1e-10) and not tight.passed


def test_max_abs_is_the_largest_magnitude_bit_for_bit(rng):
    """max_abs reduces |arr| in one ufunc pass: over the whole array (a
    float, 0.0 for an empty one) and per sample over the trailing axes, it
    gives np.max of |arr| bit for bit, signed zeros and NaN included."""
    a = rng.normal(size=(6, 4, 4)) * 10.0 ** rng.integers(-300, 300, size=(6, 1, 1))
    a[0] = -0.0
    a[1, 2, 3] = np.nan
    for arr in (a, a[2:], a[3, 1], -2.5, np.zeros((0, 3))):
        got = tensors.max_abs(arr)
        want = float(np.max(np.abs(np.asarray(arr, dtype=float)), initial=0.0))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    for ndim in (1, 2):
        got = tensors.max_abs(a, ndim)
        want = np.max(np.abs(a), axis=tuple(range(3 - ndim, 3)), initial=0.0)
        assert got.tobytes() == want.tobytes()


class TestGap:
    """tensors.gap, the one residual rule: max|lhs - rhs| per sample over
    max(1, scale, max|lhs|, max|rhs|)."""

    def test_operands_within_one_read_the_absolute_residual(self, rng):
        lhs = rng.uniform(-1.0, 1.0, (5, 3, 3))
        rhs = lhs + rng.uniform(-1e-12, 1e-12, lhs.shape)
        want = tensors.max_abs(lhs - rhs, 2)
        assert np.array_equal(tensors.gap(lhs, rhs, 2), want)

    def test_large_operands_divide(self):
        lhs = np.array([[3e8, 1.0], [0.5, 0.25]])
        rhs = np.array([[3e8 + 64.0, 1.0], [0.5, 0.25 + 1e-3]])
        got = tensors.gap(lhs, rhs, 1)
        assert got[0] == 64.0 / (3e8 + 64.0)
        assert got[1] == tensors.max_abs(lhs[1] - rhs[1])

    def test_scale_raises_the_divisor_and_never_lowers_it_below_one(self):
        lhs, rhs = np.array([[0.5, 0.0]]), np.array([[0.25, 0.0]])
        assert tensors.gap(lhs, rhs, 1, scale=1e4).tolist() == [0.25 / 1e4]
        assert tensors.gap(lhs, rhs, 1, scale=1e-3).tolist() == [0.25]
        per_sample = tensors.gap(np.vstack([lhs, lhs]), 0.0, 1, np.array([4.0, 0.5]))
        assert per_sample.tolist() == [0.125, 0.5]

    def test_scalar_rhs_broadcasts(self, rng):
        lhs = rng.normal(size=(4, 3)) * np.array([[1e-3], [1.0], [1e2], [1e6]])
        got = tensors.gap(lhs, 0.0, 1)
        size = np.maximum(1.0, tensors.max_abs(lhs, 1))
        assert np.array_equal(got, tensors.max_abs(lhs, 1) / size)
        assert got[0] == tensors.max_abs(lhs[0])
        assert np.array_equal(tensors.gap(np.eye(3)[None] * 2.0, np.eye(3), 2), [1.0 / 2.0])

    def test_zero_component_axes_compare_scalars_per_sample(self):
        lhs, rhs = np.array([0.5, 3e6, -2.0]), np.array([0.5 + 2**-40, 3e6 + 1.0, -2.5])
        got = tensors.gap(lhs, rhs, 0)
        assert got.tolist() == [2**-40, 1.0 / (3e6 + 1.0), 0.5 / 2.5]

    def test_a_stacked_row_equals_its_point_alone(self, rng):
        """Per-sample reductions: a sample's reading does not depend on the
        other samples of the stack, bit for bit."""
        lhs = rng.normal(size=(6, 4, 4)) * np.logspace(-2, 8, 6)[:, None, None]
        rhs = lhs * (1.0 + rng.uniform(-1e-15, 1e-15, lhs.shape))
        stacked = tensors.gap(lhs, rhs, 2, scale=np.arange(6.0))
        for i in range(6):
            assert tensors.gap(lhs[i], rhs[i], 2, scale=float(i)) == stacked[i]
