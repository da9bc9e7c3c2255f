"""The batch path: fd_partials over a (B, N) batch of base points, the
geometry and Finsler closed forms over a leading sample axis, the block
Christoffel, nabla b and curvature kernels against the full arrays,
fibers at the cone's edge, the block samplers against the try-by-try loops,
the calls each stage makes, the fields a complex row computes, the suites'
chunk counts, chunk-size invariance and chunk memory, and the worst-sample
index and residual median of each check."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from finslergeo import (
    AdmissibilityError,
    DomainError,
    Frame,
    ProfilePair,
    Scenario,
    StencilError,
    build_metric,
    christoffel,
    christoffel_dot,
    contraction_identities,
    curvature_closed,
    curvature_dot,
    curvature_fd_oracle,
    curvature_presubstitution,
    fd_partials,
    hh_curvature,
    kinematic_identity_residuals,
    kinematics,
    nabla_b,
    nabla_b_dot,
    parse_scenario,
    reduced_curvature,
    ricci_closed,
    spray_derivatives,
)
from finslergeo.finsler import fiber_vectors
from finslergeo.report import CheckResult, SuiteResult
from finslergeo import finsler, riemann, suites, tensors
from finslergeo.riemann import christoffel_definitional, christoffel_quadratic
from finslergeo.suites import (
    SamplingError,
    _draw_tries,
    _per_sample,
    _sample_blocks,
    _sampling_range,
    _suite_rng,
    suite_christoffel_xcheck,
    suite_curvature_xcheck,
    suite_finsler_curvature,
    suite_finsler_identities,
    suite_frame_identities,
    suite_vacuum,
)
from finslergeo.tensors import max_abs
from finslergeo.vacuum import reduced_prefactor

from conftest import (
    in_chart,
    nabla_b_definitional,
    nabla_c,
    nabla_c_definitional,
    sample_point,
    spray_first_numeric,
    spray_second_closed,
    spray_second_numeric,
)

# name -> (profile, signature, charge): the Finsleroid convention follows the
# signature, so Schwarzschild runs the pseudo-Finsleroid (q^2 = b^2 - S^2)
# and the rational pairs the positive-definite one.
PROFILES = {
    "schwarzschild": (ProfilePair.schwarzschild_isotropic(1.0), -1, 0.3),
    "pd_rational": (ProfilePair.rational((0.8, 0.1), (1.0, 0.2)), 1, 0.3),
    "pd_rational_b": (ProfilePair.rational((0.7, 0.15), (1.2, -0.1)), 1, -0.2),
}
CLOSED, FD = 1e-13, 1e-9
ROTATION = np.array(
    [[1.0, 0.1, 0.0, -0.2], [0.05, 0.9, 0.2, 0.0], [0.0, -0.15, 1.1, 0.1], [0.1, 0.0, 0.05, 0.95]]
)


def _frame(signature: int, rotated: bool) -> tuple[Frame, np.ndarray]:
    lin = ROTATION if rotated else np.eye(4)
    return in_chart(Frame.standard(4, signature), lin), lin


def _samples(rng, name, rotated, count=5):
    """(metric, y, state) per sample in the chosen chart, each a batch of
    one, admissible for the profile's charge, for at most 60 tries per
    sample."""
    pair, signature, charge = PROFILES[name]
    frame, lin = _frame(signature, rotated)
    out = []
    for _ in range(60 * count):
        if len(out) == count:
            break
        x = (lin @ sample_point(rng, 4, 0.8, 4.0))[None]
        y = (lin @ rng.normal(size=4))[None]
        metric = build_metric(frame, pair, x)
        try:
            fib = kinematics(metric, y, charge)
        except AdmissibilityError:
            continue
        if fib.q < 0.05 * (abs(fib.b) + np.sqrt(abs(fib.s2))):
            continue
        out.append((metric, y, fib))
    assert len(out) == count, f"only {len(out)} of {count} {name} samples in {60 * count} tries"
    return out


def _batch(samples):
    """The samples' metric built at their stacked points, and their stacked
    fiber vectors: leading axes (B, 1), so that each sample's arithmetic is
    that of its batch of one."""
    first = samples[0][0]
    xs = np.stack([metric.x for metric, _, _ in samples])
    return build_metric(first.frame, first.profiles, xs), np.stack([y for _, y, _ in samples])


def _agree(batched, singles, rel):
    """Each row of ``batched`` equals its sample's result alone to ``rel`` of
    the array's largest component."""
    want = np.stack([np.asarray(s, dtype=float) for s in singles])
    batched = np.asarray(batched, dtype=float)
    assert batched.shape == want.shape
    assert max_abs(batched - want) <= rel * max(max_abs(want), 1e-300)


CASES = [(name, rotated) for name in PROFILES for rotated in (False, True)]
IDS = [f"{name}-{'rotated' if rotated else 'standard'}" for name, rotated in CASES]


class TestFdPartialsBatch:
    @staticmethod
    def field(pts):
        return np.stack([np.sin(pts[..., 0]) * pts[..., 1], np.sum(pts * pts, axis=-1)], axis=-1)

    def test_batch_equals_per_point_calls(self, rng):
        """A (B, N) batch gives each sample the per-point result bit for
        bit; f sees the rows in front, (N, B, N)."""
        x = rng.normal(size=(5, 3))
        shapes = []

        def field(pts):
            shapes.append(pts.shape)
            return self.field(pts)

        got = fd_partials(field, x)
        assert shapes == [(3, 5, 3)]
        assert got.shape == (5, 3, 2)
        for b in range(5):
            assert np.array_equal(got[b], fd_partials(self.field, x[b]))

    def test_every_row_keeps_its_samples_real_point(self, rng):
        """Row k of sample b is x_b + i h e_k: a field that accepts only
        points whose real part is their sample's base point accepts every
        row of every sample, so no sample misses."""
        x = rng.normal(size=(4, 3))

        def strict_field(pts):
            if not np.array_equal(pts.real, np.broadcast_to(x, pts.shape)):
                raise ValueError("a row left its sample's point")
            return self.field(pts)

        got = fd_partials(strict_field, x)
        for b in range(4):
            assert np.array_equal(got[b], fd_partials(self.field, x[b]))

    def test_non_finite_value_names_its_sample_and_axis(self, rng):
        """A NaN on sample 2's axis-1 row names that sample and that axis."""
        x = rng.normal(size=(3, 3))

        def field(pts):
            out = self.field(pts)
            out[1, 2] = np.nan  # [row, sample, component]
            return out

        with pytest.raises(StencilError, match=r"sample \(2,\), axis 1\)"):
            fd_partials(field, x)


class TestClosedFormsBatch:
    @pytest.mark.parametrize("name, rotated", CASES, ids=IDS)
    def test_riemann_layer_equals_per_sample(self, name, rotated, rng):
        samples = _samples(rng, name, rotated)
        metrics = [m for m, _, _ in samples]
        batch, _ = _batch(samples)
        _agree(curvature_closed(batch), [curvature_closed(m) for m in metrics], CLOSED)
        _agree(
            curvature_presubstitution(batch),
            [curvature_presubstitution(m) for m in metrics],
            CLOSED,
        )
        ric, coeffs = ricci_closed(batch)
        _agree(ric, [ricci_closed(m)[0] for m in metrics], CLOSED)
        _agree(
            np.stack(coeffs, axis=-1),
            [np.stack(ricci_closed(m)[1], axis=-1) for m in metrics],
            CLOSED,
        )
        _agree(curvature_fd_oracle(batch), [curvature_fd_oracle(m) for m in metrics], FD)
        _agree(
            christoffel_definitional(batch), [christoffel_definitional(m) for m in metrics], FD
        )

    @pytest.mark.parametrize("name, rotated", CASES, ids=IDS)
    def test_covariant_derivative_oracles_equal_per_sample(self, name, rotated, rng):
        samples = _samples(rng, name, rotated)
        metrics = [m for m, _, _ in samples]
        batch, _ = _batch(samples)
        _agree(nabla_c(batch), [nabla_c(m) for m in metrics], CLOSED)
        _agree(nabla_b_definitional(batch), [nabla_b_definitional(m) for m in metrics], FD)
        _agree(nabla_c_definitional(batch), [nabla_c_definitional(m) for m in metrics], FD)

    @pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
    def test_vacuum_layer_equals_per_sample(self, rotated, rng):
        samples = _samples(rng, "schwarzschild", rotated)
        metrics = [m for m, _, _ in samples]
        batch, y = _batch(samples)
        _agree(reduced_prefactor(batch), [reduced_prefactor(m) for m in metrics], CLOSED)
        reduced = reduced_curvature(batch)
        _agree(reduced, [reduced_curvature(m) for m in metrics], CLOSED)
        # The contraction residuals are roundoff of curvature-sized terms:
        # they agree to CLOSED on the scale of the curvature, not their own.
        res = contraction_identities(batch, y, curvature_closed(batch))
        alone = [contraction_identities(m, yy, curvature_closed(m)) for m, yy, _ in samples]
        for key, values in res.items():
            assert values.shape == (len(samples), 1)
            gap = max_abs(values - np.array([a[key] for a in alone]))
            assert gap <= CLOSED * max_abs(reduced)

    @pytest.mark.parametrize("name, rotated", CASES, ids=IDS)
    def test_finsler_layer_equals_per_sample(self, name, rotated, rng):
        """At the profile's charge and at the Riemannian limit."""
        charge = PROFILES[name][2]
        samples = _samples(rng, name, rotated)
        metric, y = _batch(samples)
        for g in (charge, 0.0):
            singles = [spray_derivatives(m, yy, g) for m, yy, _ in samples]
            for field, closed in enumerate(spray_derivatives(metric, y, g)):
                _agree(closed, [s[field] for s in singles], CLOSED)
            _agree(
                spray_first_numeric(metric, y, g),
                [spray_first_numeric(m, yy, g) for m, yy, _ in samples],
                FD,
            )
            _agree(
                spray_second_closed(metric, y, g),
                [spray_second_closed(m, yy, g) for m, yy, _ in samples],
                CLOSED,
            )
            _agree(
                spray_second_numeric(metric, y, g),
                [spray_second_numeric(m, yy, g) for m, yy, _ in samples],
                FD,
            )
            _agree(
                hh_curvature(metric, y, g)[0],
                [hh_curvature(m, yy, g)[0] for m, yy, _ in samples],
                FD,
            )

        fib = kinematics(metric, y, charge)
        res = kinematic_identity_residuals(fib)
        alone = [kinematic_identity_residuals(f) for _, _, f in samples]
        for key, values in res.items():
            _agree(values, [a[key] for a in alone], CLOSED)


def _einsum_christoffel(state):
    """The closed Christoffel symbols as six 3-operand einsums, axes
    [k, i, j]: the form the block assembly replaced, kept as its reference."""
    n, n_up = state.n_low, state.n_up
    b, b_up = state.b_low, state.b_up
    u, u_mix = state.frame.u_low, state.frame.u_mix
    c, c1, m, m1 = (v[..., None, None, None] for v in (state.c, state.c1, state.m, state.m1))
    sym_nb = np.einsum("...k,...i,...j->...kij", b_up, n, b) + np.einsum(
        "...k,...j,...i->...kij", b_up, n, b
    )
    inner = (
        m1 * np.einsum("...i,jk->...kij", n, u_mix)
        + m1 * np.einsum("...j,ik->...kij", n, u_mix)
        + (2.0 * c1 / c**3) * np.einsum("...k,...i,...j->...kij", n_up, b, b)
        - m1 * np.einsum("...k,ij->...kij", n_up, u)
    )
    return -(c1 / c**3) * sym_nb + inner / (2.0 * m)


# (dimension, signature, transformed): every dimension on both signatures,
# in the standard chart and in a generic linear chart.
KERNEL_CASES = [
    (n_dim, signature, transformed)
    for n_dim in range(2, 9)
    for signature in (1, -1)
    for transformed in (False, True)
]
KERNEL_IDS = [f"N{n}-sig{s:+d}-{'transformed' if t else 'standard'}" for n, s, t in KERNEL_CASES]
KERNEL_TOL = 2e-15


METRIC_FIELDS = ("r", "n_low", "n_up", "b_low", "b_up", "a_low", "c", "c1", "c2", "m", "m1", "m2")


@pytest.mark.parametrize("signature", [1, -1])
@pytest.mark.parametrize("n_dim", range(2, 9))
def test_stack_rows_equal_single_points_bit_for_bit(n_dim, signature):
    """In a seeded chart L = D Q (Q from the QR of a Gaussian matrix, D
    diagonal in [0.5, 2]), each row of a metric built on a stack of 7 points
    equals, bit for bit, the metric built at that point alone: every
    product over the point's components is taken point by point."""
    rng = np.random.default_rng([n_dim, signature + 1])
    q, _ = np.linalg.qr(rng.normal(size=(n_dim, n_dim)))
    lin = np.diag(rng.uniform(0.5, 2.0, size=n_dim)) @ q
    frame = in_chart(Frame.standard(n_dim, signature), lin)
    pair = PROFILES["pd_rational" if signature == 1 else "schwarzschild"][0]
    xs = np.stack([lin @ sample_point(rng, n_dim, 0.8, 4.0) for _ in range(7)])
    stack = build_metric(frame, pair, xs)
    for row, x in enumerate(xs):
        alone = build_metric(frame, pair, x)
        for name in METRIC_FIELDS:
            assert np.array_equal(getattr(stack, name)[row], getattr(alone, name)), (row, name)


class TestChristoffelKernel:
    @staticmethod
    def _stack(rng, n_dim, signature, transformed, count):
        """A frame, a profile of the signature, ``count`` base points and
        fiber vectors in that frame's chart."""
        pair = PROFILES["pd_rational" if signature == 1 else "schwarzschild"][0]
        lin = np.eye(n_dim)
        if transformed:
            lin = lin + 0.2 * rng.normal(size=(n_dim, n_dim))
        frame = in_chart(Frame.standard(n_dim, signature), lin)
        xs = np.stack([lin @ sample_point(rng, n_dim, 0.8, 4.0) for _ in range(count)])
        ys = rng.normal(size=(count, n_dim)) @ lin.T
        return frame, pair, xs, ys

    @staticmethod
    def _assert_dot(got, gamma, y):
        """got equals a^k_ij y^j of the reference gamma to KERNEL_TOL of
        max|gamma| max|y|, sample by sample."""
        want = np.einsum("...kij,...j->...ki", gamma, y)
        assert got.shape == want.shape
        bound = KERNEL_TOL * max_abs(gamma, 3) * max_abs(y, 1)
        assert np.all(max_abs(got - want, 2) <= bound)

    @staticmethod
    def _assert_quadratic(got, gamma, y):
        """got equals a^k_ij y^i y^j of the reference gamma to KERNEL_TOL of
        max|gamma| max|y|^2, sample by sample."""
        want = np.einsum("...kij,...i,...j->...k", gamma, y, y)
        assert got.shape == want.shape
        bound = KERNEL_TOL * max_abs(gamma, 3) * max_abs(y, 1) ** 2
        assert np.all(max_abs(got - want, 1) <= bound)

    @staticmethod
    def _assert_nabla_b_dot(state, y):
        """nabla_b_dot(state, y) equals nabla_b(state) @ y to 1e-15 of
        max|nabla b| sum|y^h|, sample by sample."""
        full = nabla_b(state)
        want = np.einsum("...kh,...h->...k", full, y)
        got = nabla_b_dot(state, y)
        assert got.shape == want.shape
        bound = 1e-15 * max_abs(full, 2) * np.sum(np.abs(y), axis=-1)
        assert np.all(max_abs(got - want, 1) <= bound)

    @pytest.mark.parametrize("n_dim, signature, transformed", KERNEL_CASES, ids=KERNEL_IDS)
    def test_blocks_match_the_einsum_form(self, n_dim, signature, transformed, rng):
        """christoffel, christoffel_dot and christoffel_quadratic agree with
        the six-einsum form and its contractions with y, and nabla_b_dot with
        nabla_b contracted with y, at one point and over a batch."""
        frame, pair, xs, ys = self._stack(rng, n_dim, signature, transformed, 5)
        for x, y in [(xs[0], ys[0]), (xs, ys)]:
            state = build_metric(frame, pair, x)
            want = _einsum_christoffel(state)
            got = christoffel(state)
            assert got.shape == want.shape
            assert np.all(max_abs(got - want, 3) <= KERNEL_TOL * max_abs(want, 3))
            self._assert_dot(christoffel_dot(state, y), want, y)
            self._assert_quadratic(christoffel_quadratic(state, y), want, y)
            self._assert_nabla_b_dot(state, y)

    @pytest.mark.parametrize("signature", [1, -1])
    def test_dot_broadcasts_over_stencil_rows(self, signature, rng):
        """christoffel_dot, christoffel_quadratic, nabla_b_dot and kinematics
        broadcast a batch metric against fiber vectors on rows in front of
        it, as in the y-stencil, where nabla_b_dot and kinematics equal each sample's own
        call bit for bit (the batch (B, 1) is built at the stacked points, so
        each sample is summed as it is alone); and a stencil of metrics
        (rows, B) against one fiber vector per sample (B, N), as in the
        x-stencil."""
        frame, pair, xs, ys = self._stack(rng, 8, signature, True, 3)
        metric = build_metric(frame, pair, xs[:, None])
        y_rows = ys[:, None] + 0.01 * rng.normal(size=(6, 3, 1, 8))
        got = christoffel_dot(metric, y_rows)
        assert got.shape == (6, 3, 1, 8, 8)
        self._assert_dot(got, _einsum_christoffel(metric), y_rows)
        self._assert_quadratic(
            christoffel_quadratic(metric, y_rows), _einsum_christoffel(metric), y_rows
        )
        self._assert_nabla_b_dot(metric, y_rows)
        s_low = nabla_b_dot(metric, y_rows)
        fibers = kinematics(metric, y_rows, 0.3)
        for b in range(3):
            one, y_one = build_metric(frame, pair, xs[b : b + 1]), y_rows[:, b]
            assert np.array_equal(s_low[:, b], nabla_b_dot(one, y_one))
            want = kinematics(one, y_one, 0.3)
            for name in ("b", "s2", "q2", "q", "v_low", "v_up", "nu", "nu_low", "s_low", "ys",
                         "eta"):
                assert np.array_equal(getattr(fibers, name)[:, b], getattr(want, name)), name

        pts = xs + 0.01 * rng.normal(size=(6, 3, 8))
        stencil = build_metric(frame, pair, pts)
        got = christoffel_dot(stencil, ys)
        assert got.shape == (6, 3, 8, 8)
        y_each = np.broadcast_to(ys, pts.shape)
        self._assert_dot(got, _einsum_christoffel(stencil), y_each)
        quadratic = christoffel_quadratic(stencil, ys)
        self._assert_quadratic(quadratic, _einsum_christoffel(stencil), y_each)
        self._assert_nabla_b_dot(stencil, ys)


class TestCurvatureKernel:
    @pytest.mark.parametrize("n_dim, signature, transformed", KERNEL_CASES, ids=KERNEL_IDS)
    def test_dot_matches_the_contracted_tensor(self, n_dim, signature, transformed, rng):
        """curvature_dot equals curvature_closed contracted with y^n y^m to
        1e-13 of max|R| max|y|^2, sample by sample, at one point and over a
        batch."""
        frame, pair, xs, ys = TestChristoffelKernel._stack(rng, n_dim, signature, transformed, 5)
        for x, y in [(xs[0], ys[0]), (xs, ys)]:
            state = build_metric(frame, pair, x)
            full = curvature_closed(state)
            want = np.einsum("...nikm,...n,...m->...ik", full, y, y)
            got = curvature_dot(state, y)
            assert got.shape == want.shape
            bound = 1e-13 * max_abs(full, 4) * max_abs(y, 1) ** 2
            assert np.all(max_abs(got - want, 2) <= bound)

    @pytest.mark.parametrize("n_dim, signature, transformed", KERNEL_CASES, ids=KERNEL_IDS)
    def test_dot_keeps_the_curvature_symmetries(self, n_dim, signature, transformed, rng):
        """Without the N^4 tensor: R^i_k y^k = 0 (antisymmetry in the last
        pair) to 1e-13 of max|R| max|y|, and a_ij R^j_k is symmetric (pair
        symmetry) to 1e-13 of max|a| max|R|, sample by sample."""
        frame, pair, xs, ys = TestChristoffelKernel._stack(rng, n_dim, signature, transformed, 5)
        state = build_metric(frame, pair, xs)
        got = curvature_dot(state, ys)
        annihilated = np.einsum("...ik,...k->...i", got, ys)
        assert np.all(max_abs(annihilated, 1) <= CLOSED * max_abs(got, 2) * max_abs(ys, 1))
        lowered = np.einsum("...ij,...jk->...ik", state.a_low, got)
        gap = max_abs(lowered - np.swapaxes(lowered, -1, -2), 2)
        assert np.all(gap <= CLOSED * max_abs(state.a_low, 2) * max_abs(got, 2))


class TestConeEdgeInBatch:
    @staticmethod
    def _batch(nu_at_edge: float):
        """Three fibers at one constant-profile point; fiber 1 sits nu_at_edge
        from the cone boundary, the other two well inside it."""
        frame = Frame.standard(4, 1)
        metric = build_metric(frame, ProfilePair.constant(0.9, 1.0), np.array([0.0, 1.0, 0.0, 0.0]))
        edge = np.array([1.0, 1.0, 0.0, 0.0])
        b, _, q2, _, _ = fiber_vectors(metric, edge)
        charge = -(np.sqrt(q2) - nu_at_edge) / ((1.0 - 0.9**2) * b)
        ys = np.array([[-1.0, 0.5, 0.3, 0.0], edge, [-0.5, 0.2, -0.4, 0.7]])
        return build_metric(frame, metric.profiles, np.stack([metric.x] * 3)), ys, charge, metric

    @pytest.mark.parametrize("nu_at_edge", [2e-5, 1e-9])
    def test_a_fiber_at_the_edge_is_differentiated_with_the_rest(self, nu_at_edge):
        """Fiber 1 sits where an order-4 stencil of |y|-relative step 1e-5
        crossed nu = 0 (at 2e-5 only the full step, at 1e-9 also the tenth
        step): the complex rows keep its real part, so the batch gives every
        fiber its own single-fiber result, and the closed first derivative
        matches the numeric one to roundoff."""
        batch, ys, charge, metric = self._batch(nu_at_edge)
        got = spray_first_numeric(batch, ys, charge)
        got_second = spray_second_numeric(batch, ys, charge)
        for row, y in enumerate(ys):
            want = spray_first_numeric(metric, y, charge)
            assert max_abs(got[row] - want) <= FD * max_abs(want)
            want = spray_second_numeric(metric, y, charge)
            assert max_abs(got_second[row] - want) <= FD * max_abs(want)
        bundle, _, first = hh_curvature(batch, ys, charge)
        assert np.all(tensors.gap(first, got, 2) <= 1e-13 * max_abs(first, 2))
        assert np.all(np.isfinite(bundle))


def _loop_states(scenario, rng, count, with_fiber=False):
    """The try-by-try point sampler: one build_metric per try on the point
    of conftest's sample_point (uniform draws and np.linalg.norm), and with
    ``with_fiber`` a fiber drawn right after each try's point, the order of
    ``_loop_admissible``.  Returns the stacked points and fibers, or None
    where it gives up."""
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    lo, hi = _sampling_range(scenario.profile)
    xs, ys = [], []
    tries = 0
    while len(xs) < count and tries < 60 * count:
        tries += 1
        x = sample_point(rng, scenario.n_dim, lo, hi)
        y = rng.normal(size=scenario.n_dim) if with_fiber else None
        try:
            build_metric(frame, scenario.profile, x)
        except DomainError:
            continue
        xs.append(x)
        ys.append(y)
    if len(xs) < count:
        return None
    return np.stack(xs), np.stack(ys) if with_fiber else None


def _loop_admissible(scenario, rng, count, charge, margin=0.05):
    """The try-by-try fiber sampler: one build_metric and one kinematics per
    try.  Returns the stacked points and fibers, or None where it gives up."""
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    lo, hi = _sampling_range(scenario.profile)
    xs, ys = [], []
    tries = 0
    while len(xs) < count and tries < 60 * count:
        tries += 1
        x = sample_point(rng, scenario.n_dim, lo, hi)
        y = rng.normal(size=scenario.n_dim)
        try:
            fib = kinematics(build_metric(frame, scenario.profile, x), y, charge)
        except (AdmissibilityError, DomainError):
            continue
        scale = np.sqrt(abs(fib.s2)) + abs(fib.b)
        if fib.q < margin * scale or fib.nu < margin * max(fib.q, 1e-300):
            continue
        xs.append(x)
        ys.append(y)
    if len(xs) < count:
        return None
    return np.stack(xs), np.stack(ys)


SAMPLER_PROFILES = {
    "pd_rational": "kind = rational\nc_coeffs = 0.8, 0.1\nm_coeffs = 1.0, 0.2\n",
    "schwarzschild": "kind = schwarzschild_isotropic\nxi = 1.0\n",
    # c = 0.8 - 3/r is positive only beyond r = 3.75: about half the
    # sampled range is outside the domain.
    "half_domain": "kind = rational\nc_coeffs = 0.8, -3.0\nm_coeffs = 1.0, 0.2\n",
}
# The positive-definite pair run at signature -1: no fiber has q^2 > 0.
SAMPLER_PROFILES["no_fiber"] = SAMPLER_PROFILES["pd_rational"]
# c = 1.5 everywhere: nu = q - 0.375 b at charge 0.3, so kinematics itself
# rejects the fibers with nu <= 0 and the judge passes over a block again.
SAMPLER_PROFILES["cone_retry"] = "kind = constant\nc0 = 1.5\nm0 = 1.0\n"
# (profile, dimension, signature, sampler); "cone" samples admissible fibers
# at charge 0.3 in the signature's convention.
SAMPLER_CASES = [
    ("pd_rational", 4, 1, "cone"),
    ("pd_rational", 8, 1, "cone"),
    ("pd_rational", 4, 1, "fiber"),
    ("pd_rational", 8, 1, "fiber"),
    ("schwarzschild", 4, -1, "points"),
    ("schwarzschild", 4, -1, "fiber"),
    ("schwarzschild", 4, -1, "cone"),
    ("no_fiber", 4, -1, "cone"),
    ("half_domain", 4, 1, "points"),
    ("half_domain", 4, 1, "fiber"),
    ("half_domain", 4, 1, "cone"),
    ("cone_retry", 4, 1, "cone"),
    # At N = 2 the direction has one component.
    ("pd_rational", 2, 1, "points"),
    ("pd_rational", 2, 1, "cone"),
    ("schwarzschild", 3, -1, "fiber"),
    ("half_domain", 3, 1, "cone"),
    ("pd_rational", 5, 1, "cone"),
    ("schwarzschild", 6, -1, "cone"),
    ("half_domain", 7, 1, "fiber"),
    ("schwarzschild", 7, -1, "cone"),
]


@pytest.mark.parametrize(
    "profile, n_dim, signature, sampler",
    SAMPLER_CASES,
    ids=[f"{p}-N{n}-{s}" for p, n, _, s in SAMPLER_CASES],
)
def test_block_samplers_draw_the_try_by_try_samples(profile, n_dim, signature, sampler):
    """The block samplers accept the same points and fibers, bit for bit, as
    the try-by-try loops, give up where they give up, and leave the
    generator in the same state."""
    scenario = parse_scenario(
        f"[scenario]\ndimension = {n_dim}\nsignature = {signature}\nseed = 3\n"
        f"[profile]\n{SAMPLER_PROFILES[profile]}"
    )
    count = 20
    rng_loop, rng_block = np.random.default_rng(11), np.random.default_rng(11)
    if sampler == "cone":
        want = _loop_admissible(scenario, rng_loop, count, 0.3)
    else:
        want = _loop_states(scenario, rng_loop, count, sampler == "fiber")
    try:
        if sampler == "cone":
            got = _sample_blocks(scenario, rng_block, count, charge=0.3)
        else:
            got = _sample_blocks(scenario, rng_block, count, sampler == "fiber")
    except SamplingError:
        got = None
    if want is None:
        assert got is None
    else:
        assert got is not None
        for w, g in zip(want, got):
            assert (w is None and g is None) or (g.shape == w.shape and np.array_equal(g, w))
    assert rng_block.random() == rng_loop.random()


@pytest.mark.parametrize("n_dim", range(2, 9))
def test_reductions_draw_each_radius_as_the_try_by_try_loop(monkeypatch, n_dim):
    """schwarzschild-reductions evaluates, at each radius, the point of one
    sample_point at lo = hi = the radius and the fiber drawn right after it
    from the suite's stream, bit for bit; the block draw leaves the
    generator where that loop leaves it."""
    scenario = parse_scenario(SCHWARZSCHILD_N8.replace("dimension = 8", f"dimension = {n_dim}"))
    seen = []
    original = suites.reduction_residuals

    def recorded(state, y, closed):
        seen.append((state.x, y))
        return original(state, y, closed)

    monkeypatch.setattr(suites, "reduction_residuals", recorded)
    suites.suite_schwarzschild_reductions(scenario)
    radii = np.array(scenario.radii)
    rng_loop = _suite_rng(scenario, "schwarzschild-reductions")
    want = np.empty((2, len(radii), n_dim))
    for i, r in enumerate(radii):
        want[0, i] = sample_point(rng_loop, n_dim, r, r)
        want[1, i] = rng_loop.normal(size=n_dim)
    for got, expected in zip(map(np.concatenate, zip(*seen)), want, strict=True):
        assert got.shape == expected.shape and np.array_equal(got, expected)
    rng_block = _suite_rng(scenario, "schwarzschild-reductions")
    _draw_tries(rng_block, n_dim, len(radii), radii, radii, fiber=True)
    assert rng_block.random() == rng_loop.random()


class _CountingGenerator:
    """A numpy Generator that counts the method calls made through it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("with_fiber", [False, True])
def test_sampler_makes_only_its_generator_calls(with_fiber):
    """Each try makes at most two generator calls for its point (direction,
    then x^0 and radius together) and one for its fiber, on a profile that
    rejects no try, so 40 samples take exactly 40 tries."""
    scenario = parse_scenario(
        f"[scenario]\ndimension = 4\nsignature = 1\n[profile]\n{SAMPLER_PROFILES['pd_rational']}"
    )
    rng = _CountingGenerator(1)
    xs, _ = _sample_blocks(scenario, rng, 40, with_fiber)
    assert len(xs) == 40
    assert rng.calls <= (3 if with_fiber else 2) * 40


def _counting(monkeypatch, name):
    calls = []
    original = getattr(suites, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, name, counted)
    return calls


@pytest.mark.parametrize(
    "profile, n_dim, count, passes", [("pd_rational", 8, 100, 3), ("cone_retry", 4, 40, 6)]
)
def test_samplers_make_a_few_stacked_calls(monkeypatch, profile, n_dim, count, passes):
    """Sampling admissible fibers takes at most ``passes`` judge passes, not
    one per try (on ``cone_retry`` kinematics itself rejects fibers, so a
    block is judged again), and one build_metric call per pass: neither
    profile rejects a point, so every pass reaches kinematics.  25 points
    take at most three build_metric calls."""
    scenario = parse_scenario(
        f"[scenario]\ndimension = {n_dim}\nsignature = 1\n[profile]\n{SAMPLER_PROFILES[profile]}"
    )
    builds = _counting(monkeypatch, "build_metric")
    kins = _counting(monkeypatch, "kinematics")
    xs, ys = _sample_blocks(scenario, np.random.default_rng(1), count, charge=0.3)
    assert xs.shape == ys.shape == (count, n_dim)
    assert len(kins) <= passes and len(builds) <= len(kins)
    for with_fiber in (False, True):
        builds.clear()
        _sample_blocks(scenario, np.random.default_rng(1), 25, with_fiber)
        assert len(builds) <= 3


def _counting_everywhere(monkeypatch, func):
    """Count the calls of ``func`` through every finslergeo namespace that
    binds it, the module that defines it included."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(func.__name__)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "finslergeo" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


def _charged_fibers(count):
    """The FinsleroidState at the first ``count`` admissible samples of
    CHARGED_N8 from generator 1, built at the sampled points."""
    scenario = parse_scenario(CHARGED_N8)
    xs, ys = _sample_blocks(scenario, np.random.default_rng(1), count, charge=scenario.charge)
    metric = build_metric(Frame.standard(8, 1), scenario.profile, xs)
    return kinematics(metric, ys, scenario.charge)


def test_spray_stencils_build_no_christoffel_array(monkeypatch):
    """On a charged N = 8 batch of four fibers the spray stencils contract
    the Christoffel blocks with y, and the bundle reads G^i_km only as
    contracted with the spray: neither spray_derivatives nor hh_curvature
    builds the full array."""
    fibers = _charged_fibers(4)
    calls = _counting_everywhere(monkeypatch, riemann.christoffel)
    spray_derivatives(fibers.metric, fibers.y, fibers.charge)
    assert calls == []
    hh_curvature(fibers.metric, fibers.y, fibers.charge)
    assert calls == []


def _recording(monkeypatch, module, names) -> list:
    """Every state that ``module``'s functions ``names`` return, in order."""
    built = []
    for name in names:
        original = getattr(module, name)

        def recorded(*args, _original=original, **kwargs):
            built.append(_original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(module, name, recorded)
    return built


def test_spray_stencil_rows_compute_only_what_the_spray_reads(monkeypatch):
    """On a charged N = 8 batch, hh_curvature's x-stencil rows build no
    inverse metric, no nabla b and none of the Finsleroid fields that only
    the identities and the second derivative read; only its one
    kinematics at the real fibers, which the second derivative reads, does,
    and only the second derivative at the real fibers calls nabla_b."""
    fibers = _charged_fibers(4)
    built = _recording(monkeypatch, finsler, ("build_metric", "kinematics"))
    nabla_b_at = []
    nabla_b = finsler.nabla_b

    def recorded(ms):
        nabla_b_at.append(ms.x)
        return nabla_b(ms)

    monkeypatch.setattr(finsler, "nabla_b", recorded)
    hh_curvature(fibers.metric, fibers.y, fibers.charge)
    assert len(nabla_b_at) == 1 and nabla_b_at[0] is fibers.metric.x
    rows = [state for state in built if np.iscomplexobj(getattr(state, "metric", state).x)]
    assert len(built) - len(rows) == 1
    kinds = {type(state).__name__ for state in rows}
    assert kinds == {"MetricState", "FinsleroidState"}
    for state in rows:
        assert not {"eta", "a_up"} & vars(state).keys()


def test_spray_y_rows_compute_only_the_spray(monkeypatch):
    """On a charged N = 8 run of four fibers, finsler-curvature's complex
    y-step differentiates G^i alone: the closed G^i_k is built at the real
    fibers and on hh_curvature's complex x-row along y, never at a complex fiber."""
    scenario = parse_scenario(CHARGED_N8.replace("fibers = 100", "fibers = 4"))
    received = []
    first_derivative = finsler._first_derivative

    def recorded(state, gamma_y):
        received.append(state)
        return first_derivative(state, gamma_y)

    monkeypatch.setattr(finsler, "_first_derivative", recorded)
    result, _ = suite_finsler_curvature(scenario)
    assert result.status == "pass"
    assert [np.iscomplexobj(state.metric.x) for state in received] == [False, True]
    assert not any(np.iscomplexobj(state.y) for state in received)


def test_bundle_takes_g_k_on_one_complex_row_per_sample(monkeypatch):
    """On a charged N = 8 batch of four fibers, hh_curvature builds the
    closed G^i_k once, on one complex row along y per sample, (1, 4, 8):
    its coordinate rows differentiate G^i alone, and no row builds an
    N x N Christoffel contraction but that one."""
    fibers = _charged_fibers(4)
    received = []
    first_derivative = finsler._first_derivative

    def recorded(state, gamma_y):
        received.append(state.metric.x)
        return first_derivative(state, gamma_y)

    monkeypatch.setattr(finsler, "_first_derivative", recorded)
    dots = _counting_everywhere(monkeypatch, riemann.christoffel_dot)
    hh_curvature(fibers.metric, fibers.y, fibers.charge)
    # The first is the closed G^i_k at the real fibers, (4, 8).
    assert [x.shape for x in received] == [(4, 8), (1, 4, 8)]
    assert np.iscomplexobj(received[1])
    assert np.array_equal(received[1].imag[0], tensors.COMPLEX_STEP * fibers.y)
    # Two at the real fibers (G^i_k and G^i_km G^m), one on the row along y.
    assert len(dots) == 3


@pytest.mark.parametrize(
    "profile, count, most", [("pd_rational", 25, 3), ("half_domain", 100, 16)]
)
def test_charge_zero_sampler_evaluates_the_profile_in_a_block(monkeypatch, profile, count, most):
    """Charge-0 points with fibers are judged in blocks: 25 on a profile
    that rejects no try take at most three profile evaluations, and 100 on
    one that rejects about half the tries at most 16, not one per try."""
    scenario = parse_scenario(
        f"[scenario]\ndimension = 8\nsignature = 1\n[profile]\n{SAMPLER_PROFILES[profile]}"
    )
    calls = []
    jets = ProfilePair.jets

    def counted(self, r):
        calls.append(r)
        return jets(self, r)

    monkeypatch.setattr(ProfilePair, "jets", counted)
    xs, ys = _sample_blocks(scenario, np.random.default_rng(1), count, fiber=True)
    assert ys.shape == xs.shape == (count, 8)
    assert len(calls) <= most


CHARGED_N8 = """
[scenario]
dimension = 8
signature = 1
charge = 0.3
suites = finsler-identities, finsler-curvature
[profile]
kind = rational
c_coeffs = 0.8, 0.1
m_coeffs = 1.0, 0.2
[samples]
fibers = 100
"""


CHARGED_N4 = CHARGED_N8.replace("dimension = 8", "dimension = 4")
LIMIT_N8 = CHARGED_N8.replace("charge = 0.3", "charge = 0.0")
LIMIT_N4 = CHARGED_N4.replace("charge = 0.3", "charge = 0.0")


def _suite_calls(monkeypatch, text, suite, names):
    """Run ``suite`` on the scenario ``text`` and count the suite's calls of
    each of ``names``."""
    scenario = parse_scenario(text)
    calls = {name: _counting(monkeypatch, name) for name in names}
    result, _ = suite(scenario)
    assert result.status == "pass"
    return {name: len(made) for name, made in calls.items()}


def test_charged_chunks_are_sized_for_their_stencil_rows(monkeypatch):
    """The spray stencils hold 7 complex N-vectors at each of a fiber's N
    coordinate rows (G^i, the row metric's n_i, n^i and b^i, and
    fiber_vectors' y_i, v_i and v^i; b_i is the frame's e_i and no row
    builds the N x N a_ij) and an N x N complex array on its one row along
    y: F = 14N^2 + 2N^2 = 16N^2 floats, 1024 at N = 8, so 64 fibers a chunk
    and 100 fibers take exactly 2 chunks at either charge.  Charge 0
    contracts the closed curvature with y (curvature_dot) and never builds
    the N^4 tensor.  The identity stencil holds N-vectors per row (10N^2),
    so its 100 fibers take one."""
    spray = ("hh_curvature",)
    charged = _suite_calls(monkeypatch, CHARGED_N8, suite_finsler_curvature, spray)
    assert charged == {"hh_curvature": 2}
    identities = _suite_calls(
        monkeypatch, CHARGED_N8, suite_finsler_identities, ("kinematic_identity_residuals",)
    )
    assert identities["kinematic_identity_residuals"] == 1
    closed = _counting_everywhere(monkeypatch, riemann.curvature_closed)
    limit = _suite_calls(monkeypatch, LIMIT_N8, suite_finsler_curvature, spray)
    assert limit == {"hh_curvature": 2}
    assert closed == []


def _suite_rows(monkeypatch, text, suite_funcs, dump_dir):
    """The per-sample residual arrays, worst indices and dumps of
    ``suite_funcs`` on ``text``, with tensors dumped.  A suite whose chunks
    evaluate the bundle K^2 R^i_k (finsler-curvature) has its chunks'
    bundles joined in draw order under "bundle" in its arrays; the bundle
    its dump evaluates outside the chunks is not among them."""
    scenario = dataclasses.replace(parse_scenario(text), dump_dir=str(dump_dir))
    rows, bundles = [], []

    def recorded(*args):
        start = len(bundles)
        arrays = _per_sample(*args)
        joined = {"bundle": np.concatenate(bundles[start:])} if len(bundles) > start else {}
        rows.append(arrays | joined)
        return arrays

    def bundle(*args):
        out = hh_curvature(*args)
        bundles.append(out[0])
        return out

    monkeypatch.setattr(suites, "_per_sample", recorded)
    monkeypatch.setattr(suites, "hh_curvature", bundle)
    worst, dumps = [], {}
    for suite in suite_funcs:
        result, suite_dumps = suite(scenario)
        worst.append([check.worst_index for check in result.checks])
        dumps |= suite_dumps
    return rows, worst, dumps


FINSLER_SUITES = (suite_finsler_identities, suite_finsler_curvature)
METRIC_SUITES = (
    suite_frame_identities,
    suite_christoffel_xcheck,
    suite_curvature_xcheck,
    suite_vacuum,
)
SCHWARZSCHILD_N8 = """
[scenario]
dimension = 8
signature = -1
[profile]
kind = schwarzschild_isotropic
xi = 1.0
[samples]
points = 30
radii = 0.5, 0.7, 1, 1.5, 2, 3, 4, 5, 6, 7, 8, 10
"""
SCHWARZSCHILD_N4 = SCHWARZSCHILD_N8.replace("dimension = 8", "dimension = 4")
CHUNK_CASES = {
    "N4": (CHARGED_N4, FINSLER_SUITES, ("0.3", "0.0")),
    "N8": (CHARGED_N8, FINSLER_SUITES, ("0.3", "0.0")),
    "metric-N4": (SCHWARZSCHILD_N4, METRIC_SUITES, ("0.0",)),
    "metric-N8": (SCHWARZSCHILD_N8, METRIC_SUITES, ("0.0",)),
}


@pytest.mark.parametrize(
    "text, suite_funcs, charges", CHUNK_CASES.values(), ids=CHUNK_CASES.keys()
)
def test_residuals_do_not_depend_on_the_chunk_size(
    monkeypatch, tmp_path, text, suite_funcs, charges
):
    """A budget that gives small chunks (one or two samples each at N = 8)
    and one that gives one chunk for all give the same residuals, worst
    indices, finsler-curvature bundles and dumps, bit for bit, in every
    sampled suite (the Finsler suites at either charge).  The bundle dump
    is sample 0's bundle as its chunk evaluates it."""
    results = {}
    for budget in (2**12, 2**20):
        monkeypatch.setattr(suites, "STENCIL_FLOAT_BUDGET", budget)
        for charge in charges:
            scenario = text.replace("charge = 0.3", f"charge = {charge}")
            results[budget, charge] = _suite_rows(monkeypatch, scenario, suite_funcs, tmp_path)
    for charge in charges:
        small, large = results[2**12, charge], results[2**20, charge]
        assert small[1] == large[1]
        for got, want in zip(small[0], large[0], strict=True):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[name], want[name]) for name in want)
        assert small[2].keys() == large[2].keys()
        assert all(np.array_equal(small[2][name], large[2][name]) for name in large[2])
        bundles = [arrays["bundle"] for arrays in small[0] if "bundle" in arrays]
        if suite_finsler_curvature in suite_funcs:
            (bundle,) = bundles
            assert bundle.shape == (100, *small[2]["finsler_bundle_sample"].shape)
            assert np.array_equal(small[2]["finsler_bundle_sample"], bundle[0])
        else:
            assert bundles == []


MEMORY_CASES = {
    "suite_finsler_curvature-N4": (suite_finsler_curvature, CHARGED_N4),
    "suite_finsler_curvature-N8": (suite_finsler_curvature, CHARGED_N8),
    "suite_finsler_curvature-N4-charge0": (suite_finsler_curvature, LIMIT_N4),
    "suite_finsler_curvature-N8-charge0": (suite_finsler_curvature, LIMIT_N8),
    "suite_finsler_identities-N4": (suite_finsler_identities, CHARGED_N4),
    "suite_finsler_identities-N8": (suite_finsler_identities, CHARGED_N8),
    "suite_curvature_xcheck-N8": (suite_curvature_xcheck, CHARGED_N8),
}


@pytest.mark.parametrize("suite, text", MEMORY_CASES.values(), ids=MEMORY_CASES.keys())
def test_chunked_suites_stay_within_the_memory_guard(suite, text):
    """The suites evaluate in chunks sized for their complex rows, so the
    stacked rows of a run over 100 fibers (one chunk at N = 4; at N = 8
    two for finsler-curvature at either charge and one for the identities)
    or 100 points (N = 8 curvature-xcheck, eight
    points per chunk) peak at a few MB, not tens of MB."""
    scenario = parse_scenario(text)
    tracemalloc.start()
    try:
        result, _ = suite(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "pass"
    assert peak <= 8 * 2**20


def test_charged_bundle_holds_no_n_cubed_array_per_fiber(monkeypatch):
    """The charged N = 8 finsler-curvature suite on 100 fibers (two chunks,
    sampling included) peaks at about 1.03 MiB (tracemalloc), below the
    1.66 MiB it took while each coordinate row built its metric's N x N
    a_ij, and the 2.20 MiB it took while hh_curvature's x-step also
    differentiated the N x N G^i_k at every coordinate row and the bundle
    read the N^3 G^i_km; the guard sits at 2.0 MiB.  Per fiber of its
    largest chunk (56 fibers) that is about 19 KB, held below 30 KB: with
    the row metrics' a_ij it was 31 KB.  The suite runs once untraced
    first, so the one-time import of numpy.random (the sampler's) is not
    counted when the test runs alone."""
    chunks = []

    def bundle(metric, y, charge):
        chunks.append(len(y))
        return hh_curvature(metric, y, charge)

    scenario = parse_scenario(CHARGED_N8)
    suite_finsler_curvature(scenario)
    monkeypatch.setattr(suites, "hh_curvature", bundle)
    tracemalloc.start()
    try:
        result, _ = suite_finsler_curvature(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "pass" and sum(chunks) == 100
    assert peak < 2.0 * 2**20
    assert peak / max(chunks) < 30 * 2**10


def test_vacuum_chunks_stay_within_the_memory_guard():
    """The vacuum suite evaluates its radii in the same chunks: 200 radii
    at N = 8 peak at a few MB."""
    scenario = Scenario(
        n_dim=8,
        profile=ProfilePair.schwarzschild_isotropic(1.0),
        radii=tuple(np.linspace(0.5, 10.0, 200)),
    )
    tracemalloc.start()
    try:
        result, _ = suite_vacuum(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [check.n_samples for check in result.checks] == [200] * 5
    assert peak <= 8 * 2**20


class TestResidualMedian:
    @pytest.mark.parametrize(
        "residuals",
        [
            [3.0, 1e-16, 2.5, 7.0, 0.0],  # odd
            [4.0, 1.0, 3.0, 2.0],  # even: the mean of 2 and 3
            [0.1, 0.2, 0.7, 0.3],  # even, (a + b) / 2 rounds
            [2.0**-1074, 2.0**-1074],  # the smallest subnormal, halved in the mean
            [1e308, 1.5e308],  # the mean's sum overflows
            [6.5],
            [1.0, np.inf, 2.0],
            [np.inf, 1.0, np.inf, 2.0],
            [1.0, np.nan, 2.0],
            [np.nan, 1.0, 2.0, 3.0],
            [-0.0],
            [0.0, -0.0, -0.0],
        ],
    )
    def test_median_is_numpy_median_bit_for_bit(self, residuals):
        with np.errstate(over="ignore"):
            want = np.median(np.array(residuals))
            got = CheckResult.from_residuals("r", residuals, None).residual_median
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes() or (
            np.isnan(got) and np.isnan(want)
        )

    def test_no_samples(self):
        empty = CheckResult.from_residuals("r", [], 1.0)
        assert (empty.residual_median, empty.residual_max, empty.worst_index) == (0.0, 0.0, None)
        assert empty.n_samples == 0 and empty.passed

    def test_ties_report_the_first_maximal_sample(self):
        check = CheckResult.from_residuals("r", [2.0, 5.0, 1.0, 5.0, 5.0], 10.0)
        assert (check.worst_index, check.residual_max, check.residual_median) == (1, 5.0, 5.0)


# (suite, scenario charge, the suite's sampler arguments): every suite that
# samples, finsler-curvature at both charges.
WORST_CASES = [
    ("frame-identities", 0.3, {}),
    ("christoffel-xcheck", 0.3, {}),
    ("curvature-xcheck", 0.3, {}),
    ("finsler-identities", 0.3, {"charge": 0.3}),
    ("finsler-curvature", 0.3, {"charge": 0.3}),
    ("finsler-curvature", 0.0, {"fiber": True}),
]
WORST_IDS = [f"{suite}-charge{charge}" for suite, charge, _ in WORST_CASES]


class TestWorstIndex:
    def test_first_position_of_the_maximum(self):
        assert CheckResult.from_residuals("r", [1, 3, 2], 10.0).worst_index == 1
        assert CheckResult.from_residuals("r", [3, 1, 3], None).worst_index == 0
        empty = CheckResult.from_residuals("r", [], 1.0)
        assert empty.worst_index is None
        assert SuiteResult("s", "pass", (empty,)).to_dict()["checks"][0]["worst_index"] is None

    @pytest.mark.parametrize("suite, charge, sampler", WORST_CASES, ids=WORST_IDS)
    def test_reported_sample_reproduces_the_residual(self, suite, charge, sampler, monkeypatch):
        """Redrawing the suite's seeded samples and running the suite on the
        reported one alone, xs[worst_index] (with ys[worst_index]), gives
        each check's residual_max."""
        scenario = parse_scenario(
            f"[scenario]\nsignature = 1\ncharge = {charge}\nseed = 5\nsuites = {suite}\n"
            "[profile]\nkind = rational\nc_coeffs = 0.8, 0.1\nm_coeffs = 1.0, 0.2\n"
            "[samples]\npoints = 12\nfibers = 12\n"
        )
        run = suites._SUITE_FUNCS[suite]
        result, _ = run(scenario)
        xs, ys = _sample_blocks(scenario, _suite_rng(scenario, suite), 12, **sampler)
        one = dataclasses.replace(scenario, n_points=1, n_fibers=1)
        for check in result.checks:
            w = check.worst_index
            sample = xs[w : w + 1], None if ys is None else ys[w : w + 1]
            monkeypatch.setattr(suites, "_sample_blocks", lambda *args, **kwargs: sample)
            alone = {c.name: c.residual_max for c in run(one)[0].checks}
            assert alone[check.name] == check.residual_max, check.name
