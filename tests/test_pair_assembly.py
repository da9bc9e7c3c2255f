"""The (L, M) pair assembly of the closed curvature against the einsum block
forms it replaced, in general linear charts where u_k^i, n_k b^i and the
Christoffel symbols are not symmetric, so a transposed factor shows."""

import numpy as np
import pytest

from finslergeo import (
    Frame,
    ProfilePair,
    build_metric,
    christoffel_definitional,
    curvature_closed,
    curvature_dot,
    curvature_fd_oracle,
    curvature_presubstitution,
    reduced_curvature,
)
from finslergeo import riemann, vacuum
from finslergeo.riemann import _gamma_products, _pair_sum, combo_scalars
from finslergeo.tensors import matvec, max_abs, outer

from conftest import in_chart, sample_point

TOL = 1e-13
SCHWARZSCHILD = ProfilePair.schwarzschild_isotropic(1.0)
PD_RATIONAL = ProfilePair.rational((0.8, 0.1), (1.0, 0.2))


# ---------------------------------------------------------------------------
# Reference: the einsum block forms the pair table replaced, kept verbatim.
# ---------------------------------------------------------------------------


def _curvature_blocks(state):
    """The four index blocks of the curvature closed form, axes [n, i, k, m]
    after the state's sample axes (t_uu, built from the frame alone, has none)."""
    n, n_up = state.n_low, state.n_up
    b, b_up = state.b_low, state.b_up
    u, u_mix = state.frame.u_low, state.frame.u_mix
    inv_m = (1.0 / state.m)[..., None, None, None, None]

    anti_nb = outer(n, b) - outer(b, n)  # [k, m] = n_k b_m - n_m b_k
    t_uu = np.einsum("mn,ki->nikm", u, u_mix) - np.einsum("kn,mi->nikm", u, u_mix)
    t_nb = np.einsum("...n,...km,...i->...nikm", n, anti_nb, b_up) - inv_m * np.einsum(
        "...n,...km,...i->...nikm", b, anti_nb, n_up
    )
    t_nu = (
        np.einsum("...n,...m,ki->...nikm", n, n, u_mix)
        - np.einsum("...n,...k,mi->...nikm", n, n, u_mix)
        - np.einsum("...m,nk,...i->...nikm", n, u, n_up)
        + np.einsum("...k,nm,...i->...nikm", n, u, n_up)
    )
    t_bu = (
        inv_m
        * (
            np.einsum("...n,...m,ki->...nikm", b, b, u_mix)
            - np.einsum("...n,...k,mi->...nikm", b, b, u_mix)
        )
        - np.einsum("...m,nk,...i->...nikm", b, u, b_up)
        + np.einsum("...k,nm,...i->...nikm", b, u, b_up)
    )
    return t_uu, t_nb, t_nu, t_bu


def _curvature_blocks_dot(state, y):
    """The five blocks of curvature_closed (block_a, block_ab + block_bb,
    t_nb, t_nu, t_bu) contracted with y^n y^m, axes [i, k], in O(N^2) per
    point.  Each block is a sum of terms L_nm M_k^i - L_nk M_m^i, which
    contract to (y L y) M_k^i - (y L)_k (y M)^i."""
    n, n_up = state.n_low, state.n_up
    b, b_up = state.b_low, state.b_up
    u_mix, eye = state.frame.u_mix, np.eye(state.frame.n_dim)
    uy, ay, yu_mix = matvec(state.frame.u_low, y), matvec(state.a_low, y), y @ u_mix
    ny, by, yuy, yay = (np.einsum("...i,...i->...", v, y)[..., None] for v in (n, b, uy, ay))
    inv_m = (1.0 / state.m)[..., None]
    return (
        yay[..., None] * eye - outer(y, ay),
        outer(b_up, yay * b - by * ay) + by[..., None] * (by[..., None] * eye - outer(y, b)),
        outer(ny * b_up - inv_m * by * n_up, by * n - ny * b),
        (ny**2)[..., None] * u_mix.T - outer(ny * yu_mix, n) + outer(n_up, yuy * n - ny * uy),
        inv_m[..., None] * ((by**2)[..., None] * u_mix.T - outer(by * yu_mix, b))
        + outer(b_up, yuy * b - by * uy),
    )


def _block_scalars(state, rank=4):
    """Scalar weights of the curvature blocks, (m_slope, mixed, m_curv/2,
    cross/c^2), each with ``rank`` unit axes to scale a block."""
    s = combo_scalars(state)
    weights = (s.m_slope, s.mixed, 0.5 * s.m_curv, s.cross / state.c**2)
    return tuple(w[(...,) + (None,) * rank] for w in weights)


def _closed_sum(state, blocks, rank):
    """The weighted sum of curvature_closed's five blocks, each with
    ``rank`` trailing component axes."""
    m_slope, mixed, m_curv_half, cross_c = _block_scalars(state, rank)
    m, c = (v[(...,) + (None,) * rank] for v in (state.m, state.c))
    block_a, block_abb, t_nb, t_nu, t_bu = blocks
    return (
        -(m_slope / m) * block_a
        + (m_slope / (c**2 * m)) * block_abb
        - (mixed / c**2) * t_nb
        - m_curv_half * t_nu
        + cross_c * t_bu
    )


def reference_closed(state):
    _, t_nb, t_nu, t_bu = _curvature_blocks(state)
    a, b, b_up = state.a_low, state.b_low, state.b_up
    eye = np.eye(state.frame.n_dim)

    block_a = np.einsum("...mn,ki->...nikm", a, eye) - np.einsum("...kn,mi->...nikm", a, eye)
    block_ab = np.einsum("...mn,...k,...i->...nikm", a, b, b_up) - np.einsum(
        "...kn,...m,...i->...nikm", a, b, b_up
    )
    block_bb = np.einsum("...m,...n,ki->...nikm", b, b, eye) - np.einsum(
        "...k,...n,mi->...nikm", b, b, eye
    )
    return _closed_sum(state, (block_a, block_ab + block_bb, t_nb, t_nu, t_bu), 4)


def reference_dot(state, y):
    return _closed_sum(state, _curvature_blocks_dot(state, y), 2)


def reference_presubstitution(state):
    t_uu, t_nb, t_nu, t_bu = _curvature_blocks(state)
    m_slope, mixed, m_curv_half, cross_c = _block_scalars(state)
    c2 = (state.c**2)[..., None, None, None, None]
    return -m_slope * t_uu - (mixed / c2) * t_nb - m_curv_half * t_nu + cross_c * t_bu


def reference_reduced(state):
    pref, m, c = (
        v[..., None, None, None, None]
        for v in (vacuum.reduced_prefactor(state), state.m, state.c)
    )
    b, b_up = state.b_low, state.b_up
    w_mix, w_low = vacuum._axis_weights(state)

    t_uu, _, t_nu, _ = _curvature_blocks(state)
    t_bw = (
        (1.0 / m)
        * (
            np.einsum("...n,...m,...ki->...nikm", b, b, w_mix)
            - np.einsum("...n,...k,...mi->...nikm", b, b, w_mix)
        )
        - np.einsum("...m,...nk,...i->...nikm", b, w_low, b_up)
        + np.einsum("...k,...nm,...i->...nikm", b, w_low, b_up)
    )
    return pref * (2.0 * t_uu - 3.0 * t_nu - t_bw / c**2)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def general_chart(rng, n_dim, signature):
    """A seeded well-conditioned chart map L = D Q (Q from the QR of a
    Gaussian matrix, D diagonal in [0.5, 2], condition number at most 4;
    Q D would leave u_k^i symmetric), its frame, five points in it
    (Schwarzschild on signature -1, a positive-definite rational profile
    on +1) and five fiber vectors."""
    q, _ = np.linalg.qr(rng.normal(size=(n_dim, n_dim)))
    lin = rng.uniform(0.5, 2.0, size=n_dim)[:, None] * q
    frame = in_chart(Frame.standard(n_dim, signature), lin)
    profiles = SCHWARZSCHILD if signature == -1 else PD_RATIONAL
    xs = np.stack([lin @ sample_point(rng, n_dim, 1.0, 4.0) for _ in range(5)])
    state = build_metric(frame, profiles, xs)
    ys = rng.normal(size=(5, n_dim)) @ lin.T
    return state, ys


CASES = [(n, s) for n in (3, 4, 8) for s in (1, -1)]
CASE_IDS = [f"N{n}-sig{s:+d}" for n, s in CASES]


def _gap(got, want, ndim):
    """Largest per-sample |got - want| relative to max|want| of the sample."""
    assert got.shape == want.shape
    return float(np.max(max_abs(got - want, ndim) / max_abs(want, ndim)))


@pytest.fixture(params=CASES, ids=CASE_IDS)
def chart_state(request, rng):
    n_dim, signature = request.param
    state, ys = general_chart(rng, n_dim, signature)
    u_mix = state.frame.u_mix
    # The chart must make the transposes visible.
    assert max_abs(u_mix - u_mix.T) > 1e-2
    assert max_abs(outer(state.n_low, state.b_up) - outer(state.b_up, state.n_low)) > 1e-2
    return state, ys


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_pair_sum_matches_each_einsum_block(chart_state):
    """_pair_sum with unit weights reproduces each einsum block."""
    state, _ = chart_state
    n, b, u, u_mix = state.n_low, state.b_low, state.frame.u_low, state.frame.u_mix
    inv_m = (1.0 / state.m)[..., None, None]
    nn_up, bb_up = outer(n, state.n_up), outer(b, state.b_up)
    t_uu, t_nb, t_nu, t_bu = _curvature_blocks(state)
    pairs = {
        "t_uu": ([(u, u_mix)], t_uu),
        "t_nb": ([(outer(n, b), outer(n, state.b_up)), (outer(b, b), -inv_m * nn_up)], t_nb),
        "t_nu": ([(outer(n, n), u_mix), (u, nn_up)], t_nu),
        "t_bu": ([(outer(b, b), inv_m * u_mix), (u, bb_up)], t_bu),
    }
    for name, (table, want) in pairs.items():
        got = _pair_sum(table)
        assert _gap(got, np.broadcast_to(want, got.shape), 4) < TOL, name


def test_assemblies_match_the_einsum_forms(chart_state):
    """Every reader of a pair table equals the einsum form it replaced."""
    state, ys = chart_state
    assert _gap(curvature_closed(state), reference_closed(state), 4) < TOL
    assert _gap(curvature_presubstitution(state), reference_presubstitution(state), 4) < TOL
    assert _gap(curvature_dot(state, ys), reference_dot(state, ys), 2) < TOL
    if state.profiles.kind == "schwarzschild_isotropic":
        assert _gap(reduced_curvature(state), reference_reduced(state), 4) < TOL


def test_gamma_products_match_the_einsums(rng):
    """The oracle's stacked matmul equals a^u_nm a^i_uk, and with its (k, m)
    transpose the two einsums it replaced, on a random array with no
    symmetry in any index pair."""
    gamma = rng.normal(size=(3, 5, 5, 5))
    got = _gamma_products(gamma)
    want = np.einsum("...unm,...iuk->...nikm", gamma, gamma)
    assert _gap(got, want, 4) < TOL
    both = np.einsum("...unm,...iuk->...nikm", gamma, gamma) - np.einsum(
        "...unk,...ium->...nikm", gamma, gamma
    )
    assert _gap(got - np.swapaxes(got, -1, -2), both, 4) < TOL


def _transposing(assemble, index):
    """``assemble`` (a pair assembler) with the M factor of pair ``index``
    transposed."""

    def mutated(pairs, *args):
        pairs = list(pairs)
        left, right = pairs[index]
        pairs[index] = (left, np.swapaxes(right, -1, -2))
        return assemble(pairs, *args)

    return mutated


@pytest.mark.parametrize("index", range(5))
def test_a_transposed_factor_fails(chart_state, index, monkeypatch):
    """Mutation check: transposing one pair's M in any assembly moves it
    far from the einsum form, so the tests above would fail."""
    state, ys = chart_state
    checks = [
        (riemann, "_pair_sum", curvature_closed, reference_closed, 5, 4),
        (riemann, "_pair_sum", curvature_presubstitution, reference_presubstitution, 4, 4),
        (riemann, "_pair_dot", lambda s: curvature_dot(s, ys), lambda s: reference_dot(s, ys), 5, 2),
    ]
    if state.profiles.kind == "schwarzschild_isotropic":
        checks.append((vacuum, "_pair_sum", reduced_curvature, reference_reduced, 4, 4))
    for module, name, assembly, reference, n_pairs, ndim in checks:
        if index >= n_pairs:
            continue
        want = reference(state)
        with monkeypatch.context() as patch:
            patch.setattr(module, name, _transposing(getattr(module, name), index))
            got = assembly(state)
        assert _gap(got, want, ndim) > 1e-6, (name, index)


def test_oracles_never_read_the_pair_table(monkeypatch, rng):
    """curvature_fd_oracle and christoffel_definitional run with every
    pair-table function disabled, and still agree with the closed form."""
    state, _ = general_chart(rng, 4, -1)
    closed = curvature_closed(state)

    def disabled(*args, **kwargs):
        raise AssertionError("an oracle read the closed curvature's pair table")

    for name in ("_curvature_pairs", "_stacked", "_pair_sum", "_pair_dot"):
        monkeypatch.setattr(riemann, name, disabled)
    oracle = curvature_fd_oracle(state)
    christoffel_definitional(state)
    assert _gap(oracle, closed, 4) < 1e-6
