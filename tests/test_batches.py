"""The batch path: fd_partials over a (B, N) batch of base points, the
geometry and Finsler closed forms over a leading sample axis, the block
Christoffel kernels against the einsum form, per-sample stencil misses,
the block samplers against the try-by-try loops, the calls each stage
makes, the suites' chunk memory, and the worst-sample index of each
check."""

import sys
import tracemalloc

import numpy as np
import pytest

from finslergeo import (
    AdmissibilityError,
    ConeStencilError,
    DiffConfig,
    DomainError,
    Frame,
    ProfilePair,
    StencilMissError,
    build_metric,
    christoffel,
    christoffel_dot,
    contraction_identities,
    curvature_closed,
    curvature_fd_oracle,
    curvature_presubstitution,
    fd_partials,
    hh_curvature,
    kinematic_identity_residuals,
    kinematics,
    nabla_b_definitional,
    nabla_c,
    nabla_c_definitional,
    parse_scenario,
    reduced_curvature,
    ricci_closed,
    spray_derivatives,
    verify_vacuum,
)
from finslergeo.finsler import fiber_vectors
from finslergeo.report import CheckResult
from finslergeo import riemann
from finslergeo.riemann import christoffel_definitional, take
from finslergeo import suites
from finslergeo.suites import (
    SamplingError,
    _sample_admissible,
    _sample_point,
    _sample_states,
    _sampling_range,
    _suite_rng,
    suite_finsler_curvature,
    suite_finsler_identities,
)
from finslergeo.tensors import max_abs
from finslergeo.vacuum import reduced_prefactor

from conftest import sample_point, stack_states

# name -> (profile, signature, charge, relativistic): the Finsleroid runs on
# the positive-definite profiles; Schwarzschild is indefinite, so its spray
# runs at charge 0 and its kinematics in the relativistic convention.
PROFILES = {
    "schwarzschild": (ProfilePair.schwarzschild_isotropic(1.0), -1, 0.0, True),
    "pd_rational": (ProfilePair.rational((0.8, 0.1), (1.0, 0.2)), 1, 0.3, False),
    "pd_rational_b": (ProfilePair.rational((0.7, 0.15), (1.2, -0.1)), 1, -0.2, False),
}
CLOSED, FD = 1e-13, 1e-9
ROTATION = np.array(
    [[1.0, 0.1, 0.0, -0.2], [0.05, 0.9, 0.2, 0.0], [0.0, -0.15, 1.1, 0.1], [0.1, 0.0, 0.05, 0.95]]
)


def _frame(signature: int, rotated: bool) -> tuple[Frame, np.ndarray]:
    lin = ROTATION if rotated else np.eye(4)
    return Frame.standard(4, signature).transformed(lin), lin


def _samples(rng, name, rotated, count=5):
    """(metric, y) per sample in the chosen chart, admissible for the
    profile's charge and convention."""
    pair, signature, charge, relativistic = PROFILES[name]
    frame, lin = _frame(signature, rotated)
    out = []
    while len(out) < count:
        x = lin @ sample_point(rng, 4, 0.8, 4.0)
        y = lin @ rng.normal(size=4)
        metric = build_metric(frame, pair, x)
        try:
            fib = kinematics(metric, y, 0.3 if relativistic else charge, relativistic)
        except Exception:
            continue
        if fib.q < 0.05 * (abs(fib.b) + np.sqrt(abs(fib.s2))):
            continue
        out.append((metric, y, fib))
    return out


def _agree(batched, singles, rel):
    """Each row of ``batched`` equals its single-point result to ``rel`` of
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

    def test_batch_with_per_sample_scales_equals_per_point_calls(self, rng):
        """A (B, N) batch with one scale per sample gives each sample the
        per-point result bit for bit; f sees (B, N * width, N)."""
        x = rng.normal(size=(5, 3))
        scales = rng.uniform(0.5, 3.0, size=(5, 1))
        shapes = []

        def field(pts):
            shapes.append(pts.shape)
            return self.field(pts)

        got = fd_partials(field, x, scales=scales)
        assert shapes == [(5, 12, 3)]
        assert got.shape == (5, 3, 2)
        for b in range(5):
            assert np.array_equal(got[b], fd_partials(self.field, x[b], scales=scales[b, 0]))

    def test_miss_shrinks_only_the_samples_that_missed(self, rng):
        """Rows of sample 1 beyond 1.5e-5 of its base point miss: sample 1
        gets its step/10 result, the others their full-step results."""
        x = rng.normal(size=(4, 3))
        cfg = DiffConfig(fd_step=1e-5, fd_order=4)
        tenth = DiffConfig(fd_step=0.1 * cfg.fd_step, fd_order=4)

        def ball_field(pts):
            rows = np.zeros(pts.shape[:-1], dtype=bool)
            rows[1] = np.max(np.abs(pts[1] - x[1]), axis=-1) > 1.5e-5
            if rows.any():
                raise StencilMissError("outside the ball", rows=rows)
            return self.field(pts)

        got = fd_partials(ball_field, x, cfg, scales=1.0)
        for b in range(4):
            want = fd_partials(self.field, x[b], tenth if b == 1 else cfg, scales=1.0)
            assert np.array_equal(got[b], want)

    def test_miss_without_rows_shrinks_the_whole_batch(self, rng):
        x = rng.normal(size=(3, 3))
        tenth = DiffConfig(fd_step=0.1 * DiffConfig().fd_step)
        calls = []

        def shy_field(pts):
            calls.append(pts.shape)
            if len(calls) == 1:
                raise StencilMissError("somewhere")
            return self.field(pts)

        got = fd_partials(shy_field, x, scales=1.0)
        for b in range(3):
            assert np.array_equal(got[b], fd_partials(self.field, x[b], tenth, scales=1.0))

    def test_second_miss_of_a_sample_raises(self, rng):
        x = rng.normal(size=(3, 3))

        def point_field(pts):
            rows = np.zeros(pts.shape[:-1], dtype=bool)
            rows[2] = np.any(pts[2] != x[2], axis=-1)
            raise StencilMissError("defined only at x", rows=rows)

        with pytest.raises(ConeStencilError):
            fd_partials(point_field, x)


class TestClosedFormsBatch:
    @pytest.mark.parametrize("name, rotated", CASES, ids=IDS)
    def test_riemann_layer_equals_per_sample(self, name, rotated, rng):
        samples = _samples(rng, name, rotated)
        metrics = [m for m, _, _ in samples]
        batch = stack_states(metrics)
        _agree(curvature_closed(batch), [curvature_closed(m) for m in metrics], CLOSED)
        _agree(
            curvature_presubstitution(batch),
            [curvature_presubstitution(m) for m in metrics],
            CLOSED,
        )
        ric, coeffs = ricci_closed(batch)
        _agree(ric, [ricci_closed(m)[0] for m in metrics], CLOSED)
        _agree(
            np.stack(coeffs.as_tuple(), axis=-1),
            [ricci_closed(m)[1].as_tuple() for m in metrics],
            CLOSED,
        )
        _agree(curvature_fd_oracle(batch), [curvature_fd_oracle(m) for m in metrics], FD)
        _agree(
            christoffel_definitional(batch), [christoffel_definitional(m) for m in metrics], FD
        )

    @pytest.mark.parametrize("name, rotated", CASES, ids=IDS)
    def test_covariant_derivative_oracles_equal_per_sample(self, name, rotated, rng):
        metrics = [m for m, _, _ in _samples(rng, name, rotated)]
        batch = stack_states(metrics)
        _agree(nabla_c(batch), [nabla_c(m) for m in metrics], CLOSED)
        _agree(nabla_b_definitional(batch), [nabla_b_definitional(m) for m in metrics], FD)
        _agree(nabla_c_definitional(batch), [nabla_c_definitional(m) for m in metrics], FD)

    @pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
    def test_vacuum_layer_equals_per_sample(self, rotated, rng):
        samples = _samples(rng, "schwarzschild", rotated)
        metrics = [m for m, _, _ in samples]
        batch = stack_states(metrics)
        y = np.stack([yy for _, yy, _ in samples])
        _agree(reduced_prefactor(batch), [reduced_prefactor(m) for m in metrics], CLOSED)
        reduced = reduced_curvature(batch)
        _agree(reduced, [reduced_curvature(m) for m in metrics], CLOSED)
        # The contraction residuals are roundoff of curvature-sized terms:
        # they agree to CLOSED on the scale of the curvature, not their own.
        res = contraction_identities(batch, y, curvature_closed(batch))
        alone = [contraction_identities(m, yy, curvature_closed(m)) for m, yy, _ in samples]
        for key, values in res.items():
            assert values.shape == (len(samples),)
            gap = max_abs(values - np.array([a[key] for a in alone]))
            assert gap <= CLOSED * max_abs(reduced)

    @pytest.mark.parametrize("name, rotated", CASES, ids=IDS)
    def test_finsler_layer_equals_per_sample(self, name, rotated, rng):
        _, _, charge, _ = PROFILES[name]
        samples = _samples(rng, name, rotated)
        metric = stack_states([m for m, _, _ in samples])
        y = np.stack([y for _, y, _ in samples])
        derivs = spray_derivatives(metric, y, charge)
        singles = [spray_derivatives(m, yy, charge) for m, yy, _ in samples]
        for field in ("spray", "first_closed", "second_closed"):
            _agree(getattr(derivs, field), [getattr(s, field) for s in singles], CLOSED)
        for field in ("first_numeric", "second_numeric"):
            _agree(getattr(derivs, field), [getattr(s, field) for s in singles], FD)
        _agree(
            hh_curvature(derivs), [hh_curvature(s) for s in singles], FD
        )

        fib = stack_states([f for _, _, f in samples])
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
KERNEL_TOL = 2e-15


class TestChristoffelKernel:
    @staticmethod
    def _stack(rng, n_dim, signature, transformed, count):
        """A frame, a profile of the signature, ``count`` base points and
        fiber vectors in that frame's chart."""
        pair = PROFILES["pd_rational" if signature == 1 else "schwarzschild"][0]
        lin = np.eye(n_dim)
        if transformed:
            lin = lin + 0.2 * rng.normal(size=(n_dim, n_dim))
        frame = Frame.standard(n_dim, signature).transformed(lin)
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

    @pytest.mark.parametrize(
        "n_dim, signature, transformed",
        KERNEL_CASES,
        ids=[f"N{n}-sig{s:+d}-{'transformed' if t else 'standard'}" for n, s, t in KERNEL_CASES],
    )
    def test_blocks_match_the_einsum_form(self, n_dim, signature, transformed, rng):
        """christoffel and christoffel_dot agree with the six-einsum form and
        its contraction with y, at one point and over a batch."""
        frame, pair, xs, ys = self._stack(rng, n_dim, signature, transformed, 5)
        for x, y in [(xs[0], ys[0]), (xs, ys)]:
            state = build_metric(frame, pair, x)
            want = _einsum_christoffel(state)
            got = christoffel(state)
            assert got.shape == want.shape
            assert np.all(max_abs(got - want, 3) <= KERNEL_TOL * max_abs(want, 3))
            self._assert_dot(christoffel_dot(state, y), want, y)

    @pytest.mark.parametrize("signature", [1, -1])
    def test_dot_broadcasts_over_stencil_rows(self, signature, rng):
        """A per_row() metric (B, 1) against fiber vectors (B, rows, N), as in
        the y-stencil, and a stencil of metrics (B, rows) against one fiber
        vector per sample (B, 1, N), as in the x-stencil."""
        frame, pair, xs, ys = self._stack(rng, 8, signature, True, 3)
        metric = build_metric(frame, pair, xs)
        y_rows = ys[:, None, :] + 0.01 * rng.normal(size=(3, 6, 8))
        got = christoffel_dot(metric.per_row(), y_rows)
        assert got.shape == (3, 6, 8, 8)
        self._assert_dot(got, _einsum_christoffel(metric)[:, None], y_rows)

        pts = xs[:, None, :] + 0.01 * rng.normal(size=(3, 6, 8))
        stencil = build_metric(frame, pair, pts)
        got = christoffel_dot(stencil, ys[:, None, :])
        assert got.shape == (3, 6, 8, 8)
        self._assert_dot(got, _einsum_christoffel(stencil), np.broadcast_to(ys[:, None, :], pts.shape))


class TestStencilMissInBatch:
    @staticmethod
    def _batch(nu_at_edge: float):
        """Three fibers at one constant-profile point; fiber 1 sits nu_at_edge
        from the cone boundary, the other two well inside it."""
        frame = Frame.standard(4, 1)
        metric = build_metric(frame, ProfilePair.constant(0.9, 1.0), np.array([0.0, 1.0, 0.0, 0.0]))
        edge = np.array([1.0, 1.0, 0.0, 0.0])
        _, b, _, q2, _, _ = fiber_vectors(metric, edge)
        charge = -(np.sqrt(q2) - nu_at_edge) / ((1.0 - 0.9**2) * b)
        ys = np.array([[-1.0, 0.5, 0.3, 0.0], edge, [-0.5, 0.2, -0.4, 0.7]])
        return stack_states([metric] * 3), ys, charge, metric

    def test_only_the_missing_sample_shrinks(self):
        """Fiber 1's full-step stencil crosses nu = 0 but its tenfold-shrunk
        one does not: it equals its own step/10 result, the others their
        full-step results."""
        batch, ys, charge, metric = self._batch(2e-5)
        with pytest.raises(ConeStencilError):
            spray_derivatives(metric, ys[1], charge, DiffConfig(fd_step=1e-4))
        got = spray_derivatives(batch, ys, charge)
        tenth = DiffConfig(fd_step=0.1 * DiffConfig().fd_step)
        for row, y in enumerate(ys):
            want = spray_derivatives(metric, y, charge, tenth if row == 1 else None)
            for field in ("first_numeric", "second_numeric"):
                value = getattr(want, field)
                assert max_abs(getattr(got, field)[row] - value) <= FD * max_abs(value)

    def test_second_miss_raises(self):
        batch, ys, charge, _ = self._batch(1e-9)
        with pytest.raises(ConeStencilError):
            spray_derivatives(batch, ys, charge)


def _loop_states(scenario, rng, count, with_fiber=False):
    """The try-by-try point sampler: one build_metric per try, and with
    ``with_fiber`` a fiber drawn after each accepted point.  Returns the
    stacked points and fibers, or None where it gives up."""
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    lo, hi = _sampling_range(scenario.profile)
    xs, ys = [], []
    tries = 0
    while len(xs) < count and tries < 60 * count:
        tries += 1
        x = _sample_point(rng, scenario.n_dim, lo, hi)
        try:
            build_metric(frame, scenario.profile, x)
        except DomainError:
            continue
        xs.append(x)
        if with_fiber:
            ys.append(rng.normal(size=scenario.n_dim))
    if len(xs) < count:
        return None
    return np.stack(xs), np.stack(ys) if with_fiber else None


def _loop_admissible(scenario, rng, count, relativistic, charge, margin=0.05):
    """The try-by-try fiber sampler: one build_metric and one kinematics per
    try.  Returns the stacked points and fibers, or None where it gives up."""
    frame = Frame.standard(scenario.n_dim, scenario.epsilon)
    lo, hi = _sampling_range(scenario.profile)
    xs, ys = [], []
    tries = 0
    while len(xs) < count and tries < 60 * count:
        tries += 1
        x = _sample_point(rng, scenario.n_dim, lo, hi)
        y = rng.normal(size=scenario.n_dim)
        try:
            fib = kinematics(build_metric(frame, scenario.profile, x), y, charge, relativistic)
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
# (profile, dimension, signature, sampler); "cone" samples the positive-
# definite convention and "relativistic" the other, with charge 0.3.
SAMPLER_CASES = [
    ("pd_rational", 4, 1, "cone"),
    ("pd_rational", 8, 1, "cone"),
    ("pd_rational", 4, 1, "fiber"),
    ("pd_rational", 8, 1, "fiber"),
    ("schwarzschild", 4, -1, "points"),
    ("schwarzschild", 4, -1, "fiber"),
    ("schwarzschild", 4, -1, "cone"),
    ("schwarzschild", 4, -1, "relativistic"),
    ("half_domain", 4, 1, "points"),
    ("half_domain", 4, 1, "fiber"),
    ("half_domain", 4, 1, "cone"),
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
    if sampler in ("cone", "relativistic"):
        relativistic = sampler == "relativistic"
        want = _loop_admissible(scenario, rng_loop, count, relativistic, 0.3)
        try:
            fib = _sample_admissible(scenario, rng_block, count, relativistic, charge=0.3)
            got = fib.metric.x, fib.y
        except SamplingError:
            got = None
    else:
        with_fiber = sampler == "fiber"
        want = _loop_states(scenario, rng_loop, count, with_fiber)
        try:
            out = _sample_states(scenario, rng_block, count, with_fiber)
            got = (out[0].x, out[1]) if with_fiber else (out.x, None)
        except SamplingError:
            got = None
    if want is None:
        assert got is None
    else:
        assert got is not None
        for w, g in zip(want, got):
            assert (w is None and g is None) or (g.shape == w.shape and np.array_equal(g, w))
    assert rng_block.random() == rng_loop.random()


def _counting(monkeypatch, name):
    calls = []
    original = getattr(suites, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, name, counted)
    return calls


def test_samplers_make_a_few_stacked_calls(monkeypatch):
    """Sampling 100 admissible N = 8 fibers, or 25 points, takes at most three
    build_metric and three kinematics calls, not one per try."""
    scenario = parse_scenario(CHARGED_N8)
    builds = _counting(monkeypatch, "build_metric")
    kins = _counting(monkeypatch, "kinematics")
    fibers = _sample_admissible(scenario, np.random.default_rng(1), 100, relativistic=False)
    assert fibers.y.shape == (100, 8)
    assert len(builds) <= 3 and len(kins) <= 3
    for with_fiber in (False, True):
        builds.clear()
        _sample_states(scenario, np.random.default_rng(1), 25, with_fiber)
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


def test_spray_stencils_build_no_christoffel_array(monkeypatch):
    """On a charged N = 8 batch of four fibers the spray stencils contract
    the Christoffel blocks with y: spray_derivatives builds the full array
    once (the cached gamma of spray_y_second) and hh_curvature never."""
    scenario = parse_scenario(CHARGED_N8)
    fibers = _sample_admissible(scenario, np.random.default_rng(1), 4, relativistic=False)
    calls = _counting_everywhere(monkeypatch, riemann.christoffel)
    derivs = spray_derivatives(fibers.metric, fibers.y, scenario.charge)
    assert len(calls) <= 1
    calls.clear()
    hh_curvature(derivs)
    assert calls == []


def test_charge_zero_sampler_evaluates_the_profile_in_a_block(monkeypatch):
    """25 charge-0 points with fibers on a profile that rejects no try take
    at most three profile evaluations, not one per try."""
    scenario = parse_scenario(CHARGED_N8)
    calls = []
    jets = ProfilePair.jets

    def counted(self, r):
        calls.append(r)
        return jets(self, r)

    monkeypatch.setattr(ProfilePair, "jets", counted)
    metric, ys = _sample_states(scenario, np.random.default_rng(1), 25, with_fiber=True)
    assert ys.shape == (25, 8) and metric.x.shape == (25, 8)
    assert len(calls) <= 3


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


@pytest.mark.parametrize("suite", [suite_finsler_curvature, suite_finsler_identities])
def test_chunked_suites_stay_within_the_memory_guard(suite):
    """The suites evaluate in chunks sized from N, so the stacked stencils of
    an N = 8 run over 100 fibers peak at a few MB, not tens of MB."""
    scenario = parse_scenario(CHARGED_N8)
    cfg = DiffConfig(tolerances=dict(scenario.tolerances))
    tracemalloc.start()
    try:
        result, _ = suite(scenario, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "pass"
    assert peak <= 8 * 2**20


def test_vacuum_chunks_stay_within_the_memory_guard():
    """verify_vacuum evaluates its radii in the same chunks: 200 radii at
    N = 8 peak at a few MB."""
    tracemalloc.start()
    try:
        checks = verify_vacuum(1.0, np.linspace(0.5, 10.0, 200), n_dim=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [check.n_samples for check in checks] == [200] * 5
    assert peak <= 8 * 2**20


class TestWorstIndex:
    def test_first_position_of_the_maximum(self):
        assert CheckResult.from_residuals("r", [1, 3, 2], 10.0).worst_index == 1
        assert CheckResult.from_residuals("r", [3, 1, 3], None).worst_index == 0
        empty = CheckResult.from_residuals("r", [], 1.0)
        assert empty.worst_index is None
        assert empty.to_dict()["worst_index"] is None

    def test_reported_sample_reproduces_the_residual(self):
        """Redrawing the seeded samples and evaluating the reported one alone
        gives the check's residual_max."""
        scenario = parse_scenario(
            "[scenario]\nsignature = 1\ncharge = 0.3\nseed = 5\nsuites = finsler-curvature\n"
            "[profile]\nkind = rational\nc_coeffs = 0.8, 0.1\nm_coeffs = 1.0, 0.2\n"
            "[samples]\nfibers = 12\n"
        )
        cfg = DiffConfig(tolerances=dict(scenario.tolerances))
        result, _ = suite_finsler_curvature(scenario, cfg)
        checks = {c.name: c for c in result.checks}
        fibers = _sample_admissible(
            scenario, _suite_rng(scenario, "finsler-curvature"), 12, relativistic=False
        )
        for name in ("bundle_magnitude", "spray_first_derivative_gap"):
            check = checks[name]
            fib = take(fibers, check.worst_index)
            derivs = spray_derivatives(fib.metric, fib.y, scenario.charge, cfg)
            if name == "bundle_magnitude":
                alone = max_abs(hh_curvature(derivs, cfg))
            else:
                alone = derivs.first_gap
            assert alone == pytest.approx(check.residual_max, rel=1e-9)
