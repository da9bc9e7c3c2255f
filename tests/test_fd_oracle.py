"""The curvature FD oracle takes its complex step of the closed
Christoffel field, the N^3 array built at each complex row.  It must agree
with the order-4 central differences of that field (the reference in
conftest), in general charts L = D Q where U = u_mix^T is not symmetric,
closely enough that a mis-assembled oracle fails it; it builds that array
in one call on the complex rows; and a non-finite value at a complex row
must name its sample and axis."""

import inspect

import numpy as np
import pytest

from finslergeo import (
    Frame,
    ProfilePair,
    StencilError,
    build_metric,
    curvature_fd_oracle,
)
from finslergeo import riemann, tensors
from finslergeo.tensors import TOLERANCE_CLASSES, rel_frobenius

from conftest import reference_fd_oracle
from test_pair_assembly import PD_RATIONAL, general_chart


@pytest.mark.parametrize("signature", [1, -1])
@pytest.mark.parametrize("n_dim", range(2, 9))
def test_oracle_agrees_with_central_differences(n_dim, signature, rng):
    """The complex-step oracle agrees with order-4 central differences
    within the finite_difference class that closed_vs_fd_oracle reads,
    batched and at one point."""
    state, _ = general_chart(rng, n_dim, signature)
    tol = TOLERANCE_CLASSES["finite_difference"]
    got, want = curvature_fd_oracle(state), reference_fd_oracle(state)
    assert np.all(rel_frobenius(got, want, 4) < tol)
    one = build_metric(state.frame, state.profiles, state.x[2])
    assert rel_frobenius(curvature_fd_oracle(one), reference_fd_oracle(one)) < tol


# name: (text in curvature_fd_oracle's source, its mutated form)
MUTATIONS = {
    # d_k taken along the Christoffel symbol's upper index
    "derivative_axis": ('"...kinm->...nikm"', '"...iknm->...nikm"'),
    # d_m a^i_nk in place of d_k a^i_nm
    "derivative_order": ('"...kinm->...nikm"', '"...kinm->...nimk"'),
    "product_sign": ("+ _gamma_products", "- _gamma_products"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize(("n_dim", "signature"), [(3, 1), (4, -1), (8, 1)])
def test_a_mutated_oracle_fails_central_differences(mutation, n_dim, signature, rng):
    """Mutation check: the oracle with its partials' axes or its products'
    sign changed misses the central-difference reference by far more than
    the finite_difference class, which the oracle itself meets."""
    before, after = MUTATIONS[mutation]
    source = inspect.getsource(riemann.curvature_fd_oracle)
    assert source.count(before) == 1
    namespace = dict(vars(riemann))
    exec(source.replace(before, after), namespace)
    mutated = namespace["curvature_fd_oracle"]
    state, _ = general_chart(rng, n_dim, signature)
    want = reference_fd_oracle(state)
    tol = TOLERANCE_CLASSES["finite_difference"]
    assert np.all(rel_frobenius(curvature_fd_oracle(state), want, 4) < tol)
    assert np.all(rel_frobenius(mutated(state), want, 4) > 1e3 * tol)


@pytest.mark.parametrize("batched", [False, True])
def test_christoffel_is_built_once_on_the_complex_rows(batched, rng, monkeypatch):
    """The oracle builds the N^3 Christoffel array in one call, on the N
    complex rows x + i h e_k in front of the batch; the sample's own array
    comes from state.gamma, which is not rebuilt."""
    state, _ = general_chart(rng, 5, -1)
    if not batched:
        state = build_metric(state.frame, state.profiles, state.x[2])
    state.gamma  # computed here, so the oracle only reads it
    built = []
    closed = riemann.christoffel

    def recording(s):
        built.append(np.array(s.x))
        return closed(s)

    monkeypatch.setattr(riemann, "christoffel", recording)
    curvature_fd_oracle(state)
    assert len(built) == 1
    rows, lead = built[0], state.x.shape[:-1]
    steps = tensors.COMPLEX_STEP * np.eye(5).reshape((5,) + (1,) * len(lead) + (5,))
    assert rows.shape == (5,) + state.x.shape
    assert np.array_equal(rows.real, np.broadcast_to(state.x, rows.shape))
    assert np.array_equal(rows.imag, np.broadcast_to(steps, rows.shape))


@pytest.mark.parametrize("batched", [False, True])
def test_a_non_finite_stencil_value_raises(batched, monkeypatch):
    """m' is NaN wherever the radius moves by more than half the step, as it
    does only on the axis-1 complex row (dr/dx^1 = 0.95, at most 0.24 on the
    other axes): the oracle raises StencilError naming the sample and axis."""
    x = np.array([0.3, 2.0, 0.5, -0.4])  # r = 2.1, moving mostly with x^1
    state = build_metric(Frame.standard(4, 1), PD_RATIONAL, x[None] if batched else x)
    jets_at = ProfilePair.jets

    def jets_with_nan(self, r):
        c, (m, m1, m2) = jets_at(self, r)
        moved = np.abs(np.imag(r)) > 0.5 * tensors.COMPLEX_STEP
        return c, (m, np.where(moved, np.nan, m1), m2)

    monkeypatch.setattr(ProfilePair, "jets", jets_with_nan)
    where = r"\(sample \(0,\), axis 1\)" if batched else r"\(axis 1\)"
    with pytest.raises(StencilError, match=where):
        curvature_fd_oracle(state)
