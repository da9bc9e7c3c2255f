"""The curvature FD oracle takes its central difference of the closed
Christoffel field from the field's blocks at each stencil row.  It must
equal the construction it replaced (the N^3 array at every row, kept in
conftest), in general charts L = D Q where U = u_mix^T is not symmetric,
and it must never build that array at a stencil row."""

import dataclasses
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
from finslergeo.riemann import take
from finslergeo.tensors import max_abs

from conftest import reference_fd_oracle
from test_pair_assembly import PD_RATIONAL, general_chart

PARITY = 1e-9  # of max|R| per sample


def _gap(got, want):
    """Largest per-sample |got - want| relative to max|want| of the sample."""
    assert got.shape == want.shape
    return float(np.max(max_abs(got - want, 4) / max_abs(want, 4)))


@pytest.mark.parametrize("signature", [1, -1])
@pytest.mark.parametrize("n_dim", range(2, 9))
def test_oracle_matches_the_per_row_christoffel_construction(n_dim, signature, rng):
    """Within 1e-9 of max|R|, batched and at one point (measured 5e-11)."""
    state, _ = general_chart(rng, n_dim, signature)
    assert _gap(curvature_fd_oracle(state), reference_fd_oracle(state)) < PARITY
    one = take(state, 2)
    assert one.x.shape == (n_dim,)
    assert _gap(curvature_fd_oracle(one), reference_fd_oracle(one)) < PARITY


@pytest.mark.parametrize("signature", [1, -1])
@pytest.mark.parametrize("n_dim", range(2, 9))
def test_oracle_matches_the_per_row_construction_at_the_retry_step(
    n_dim, signature, rng, monkeypatch
):
    """At step/10, the step a stencil miss retries at, the two
    constructions still agree.  Their roundoff grows as 1/h, so the bound
    is 10 x PARITY (measured 7e-10 of max|R|)."""
    monkeypatch.setattr(tensors, "FD_STEP", 0.1 * tensors.FD_STEP)
    state, _ = general_chart(rng, n_dim, signature)
    assert _gap(curvature_fd_oracle(state), reference_fd_oracle(state)) < 10 * PARITY
    one = take(state, 2)
    assert _gap(curvature_fd_oracle(one), reference_fd_oracle(one)) < 10 * PARITY


def test_a_transposed_u_fails_parity(rng):
    """Mutation check: the oracle with U = u_mix in its u-term instead of
    u_mix^T misses the reference by far more than the parity bound."""
    source = inspect.getsource(riemann.curvature_fd_oracle)
    assert source.count("u_mix.T") == 1
    namespace = dict(vars(riemann))
    exec(source.replace("u_mix.T", "u_mix"), namespace)
    mutated = namespace["curvature_fd_oracle"]
    for n_dim, signature in ((3, 1), (4, -1), (8, 1)):
        state, _ = general_chart(rng, n_dim, signature)
        want = reference_fd_oracle(state)
        assert _gap(curvature_fd_oracle(state), want) < PARITY
        assert _gap(mutated(state), want) > 1e-6


def test_christoffel_is_built_only_at_the_samples(rng, monkeypatch):
    """The oracle builds the N^3 Christoffel array once, for the sample
    points' state.gamma, and never at a stencil row."""
    state, _ = general_chart(rng, 5, -1)
    built = []
    closed = riemann.christoffel

    def recording(s):
        built.append(np.array(s.x))
        return closed(s)

    monkeypatch.setattr(riemann, "christoffel", recording)
    curvature_fd_oracle(state)
    assert len(built) == 1 and np.array_equal(built[0], state.x)


@pytest.mark.parametrize("batched", [False, True])
def test_a_non_finite_stencil_value_raises(batched, monkeypatch):
    """m' is NaN beyond a radius that only the axis-1 offset-2 stencil
    point reaches: the oracle raises StencilError naming that point."""
    x = np.array([0.3, 2.0, 0.5, -0.4])  # r = 2.1, moving mostly with x^1
    state = build_metric(Frame.standard(4, 1), PD_RATIONAL, x[None] if batched else x)
    # The order-4 stencil moves r by about 2e-5 per unit offset along axis 1
    # and by at most 1e-5 per offset along the others.
    beyond = 2.1 + 3e-5
    jets_at = ProfilePair.jets

    def jets_with_nan(self, r):
        cj, mj = jets_at(self, r)
        return cj, dataclasses.replace(mj, d1=np.where(np.asarray(r) > beyond, np.nan, mj.d1))

    monkeypatch.setattr(ProfilePair, "jets", jets_with_nan)
    where = r"sample \(0,\), axis 1, offset 2\)" if batched else r"\(axis 1, offset 2\)"
    with pytest.raises(StencilError, match=where):
        curvature_fd_oracle(state)
