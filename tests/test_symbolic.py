"""Exact oracles from sympy at a rational point with a rational radius:
the Christoffel symbols against christoffel, nabla b against nabla_b and
conftest.nabla_b_definitional, the Riemann tensor of the family against
curvature_closed and curvature_fd_oracle, its trace against ricci_closed
(N = 4, and N = 5 where Schwarzschild is not Ricci-flat), and the
Finsleroid spray with its y-derivatives against spray_derivatives and
spray_y_second, in both conventions.  Besides Schwarzschild and a positive-definite rational pair,
the metric tests run at a point near c = 0 (c = 1/95, r = 19/5), where
the closed forms stay within the same relative bounds.

sympy differentiates a_ij(x) symbolically and the derivatives are then
evaluated at the point, with no simplification; the Christoffel symbols,
their derivatives and the curvature follow from the definition in exact
rational arithmetic.  The spray is built from those Christoffel symbols by
its definition and differentiated in y by sympy.  Nothing here reads a
closed form of the package.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from finslergeo import (
    Frame,
    ProfilePair,
    build_metric,
    christoffel,
    curvature_closed,
    curvature_fd_oracle,
    kinematics,
    nabla_b,
    ricci_closed,
    spray_coefficients,
    spray_derivatives,
)
from finslergeo.finsler import spray_y_second
from finslergeo.tensors import max_abs

from conftest import in_chart, nabla_b_definitional, spray_second_closed

sp = pytest.importorskip("sympy")

POINT = (Fraction(1, 3), Fraction(3, 5), Fraction(4, 5), Fraction(0))  # r = 1 in the standard chart
FIBER = (Fraction(1, 2), Fraction(3, 8), Fraction(-1, 4), Fraction(5, 16))  # exact in binary
CHARGE = Fraction(3, 10)
# A rational chart map with no symmetry, so a transposed index would show.
CHART = (
    (2, Fraction(1, 2), 0, Fraction(1, 3)),
    (0, 1, Fraction(1, 4), 0),
    (Fraction(1, 5), 0, Fraction(3, 2), Fraction(1, 2)),
    (0, Fraction(-1, 3), 0, 1),
)
IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _schwarzschild(r):
    t = 1 / (4 * r)  # xi = 1
    return (1 + t) / (1 - t), -((1 + t) ** 4)


def _pd_rational(r):
    return sp.Rational(4, 5) + sp.Rational(1, 10) / r, 1 + sp.Rational(1, 5) / r


def _c_to_zero(r):
    return sp.Rational(4, 5) - 3 / r, 1 + sp.Rational(1, 5) / r


# c(1) < 0, so this profile has its own point: c(19/5) = 1/95, where
# max|Γ| is 1.4e5 and max|R| 4.3e6.
C_TO_ZERO_POINT = (Fraction(1, 3), Fraction(57, 25), Fraction(76, 25), Fraction(0))  # r = 19/5

# name: (exact profile, the package's pair, signature, default point)
PROFILES = {
    "schwarzschild": (_schwarzschild, ProfilePair.schwarzschild_isotropic(1.0), -1, POINT),
    "pd_rational": (_pd_rational, ProfilePair.rational((0.8, 0.1), (1.0, 0.2)), 1, POINT),
    "c_to_zero": (_c_to_zero, ProfilePair.rational((0.8, -3.0), (1.0, 0.2)), 1, C_TO_ZERO_POINT),
}


@lru_cache(maxsize=None)
def metric_jet(name, point=None):
    """a_ij and its first and second partials at ``point`` (N = its length;
    by default the profile's point) in the standard chart, as Fractions:
    sympy differentiates a_ij(x), then the point is substituted."""
    point = point or PROFILES[name][3]
    n = len(point)
    xs = sp.symbols(f"x0:{n}")
    r = sp.sqrt(sum(x**2 for x in xs[1:]))
    c, m = PROFILES[name][0](r)
    e = sp.Matrix([1] + [0] * (n - 1))
    a = e * e.T / c**2 + m * sp.diag(0, *[1] * (n - 1))
    at = {x: sp.Rational(v.numerator, v.denominator) for x, v in zip(xs, point)}

    def value(expr) -> Fraction:
        exact = expr.xreplace(at)
        assert exact.is_Rational, exact
        return Fraction(int(exact.p), int(exact.q))

    dims = range(n)
    a0 = np.empty((n, n), dtype=object)
    da = np.empty((n, n, n), dtype=object)  # [d, i, j] = d_d a_ij
    dda = np.empty((n, n, n, n), dtype=object)  # [e, d, i, j] = d_e d_d a_ij
    for i, j in product(dims, dims):
        if j < i:
            a0[i, j], da[:, i, j], dda[:, :, i, j] = a0[j, i], da[:, j, i], dda[:, :, j, i]
            continue
        a0[i, j] = value(a[i, j])
        for d in dims:
            first = sp.diff(a[i, j], xs[d])
            da[d, i, j] = value(first)
            for f in range(d, n):
                dda[f, d, i, j] = dda[d, f, i, j] = value(sp.diff(first, xs[f]))
    return a0, da, dda


def _inverse(matrix):
    """The exact inverse of a Fraction matrix, by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [list(matrix[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                rows[i] = [v - rows[i][col] * w for v, w in zip(rows[i], rows[col])]
    return np.array([row[n:] for row in rows], dtype=object)


def _christoffel(a_up, da):
    """combo[i, l, j] = d_i a_lj + d_j a_li - d_l a_ij and the Christoffel
    symbols a^k_ij = a^kl combo[i, l, j] / 2, axes [k, i, j]."""
    combo = da + np.einsum("jli->ilj", da) - np.einsum("lij->ilj", da)
    return combo, np.einsum("kl,ilj->kij", a_up, combo) / 2


@lru_cache(maxsize=None)
def chart_jet(name, chart, point=None):
    """metric_jet carried to the chart x' = chart x by the chain rule: every
    covariant index picks up chart^-1."""
    inv = _inverse(np.array(chart, dtype=object) + Fraction(0))
    a0, da, dda = metric_jet(name, point)
    return (
        np.einsum("pi,qj,pq->ij", inv, inv, a0, optimize=True),
        np.einsum("sd,pi,qj,spq->dij", inv, inv, inv, da, optimize=True),
        np.einsum("te,sd,pi,qj,tspq->edij", inv, inv, inv, inv, dda, optimize=True),
    )


@lru_cache(maxsize=None)
def exact_riemann(name, chart, point=None):
    """a_n^i_km, axes [n, i, k, m], as Fractions, in the chart x' = chart x:
    from chart_jet, the Christoffel symbols, their partials and the
    curvature follow from the definition."""
    a0, da, dda = chart_jet(name, chart, point)
    a_up = _inverse(a0)
    combo, gamma = _christoffel(a_up, da)
    dcombo = dda + np.einsum("ejli->eilj", dda) - np.einsum("elij->eilj", dda)  # d_e combo
    da_up = -np.einsum("kp,epq,ql->ekl", a_up, da, a_up, optimize=True)  # d_e a^kl
    dgamma = (
        np.einsum("ekl,ilj->ekij", da_up, combo) + np.einsum("kl,eilj->ekij", a_up, dcombo)
    ) / 2  # [e, k, i, j] = d_e a^k_ij
    return (
        np.einsum("kinm->nikm", dgamma)
        - np.einsum("mink->nikm", dgamma)
        + np.einsum("unm,iuk->nikm", gamma, gamma)
        - np.einsum("unk,ium->nikm", gamma, gamma)
    )


def chart_state(name, chart, point=None):
    """The package's MetricState at ``point`` (by default the profile's) in
    the chart x' = chart x."""
    _, pair, signature, default = PROFILES[name]
    point = point or default
    lin = np.array(chart, dtype=float)
    frame = in_chart(Frame.standard(len(point), signature), lin)
    return build_metric(frame, pair, lin @ np.array(point, dtype=float))


CHARTS = pytest.mark.parametrize("chart", [IDENTITY, CHART], ids=["standard", "general"])


@CHARTS
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_closed_curvature_matches_the_exact_tensor(name, chart):
    """curvature_closed equals the exact Riemann tensor to 1e-12 of max|R|;
    N = 4 Schwarzschild is exactly Ricci-flat."""
    exact = exact_riemann(name, chart)
    state = chart_state(name, chart)
    want = exact.astype(float)
    assert max_abs(want) > 1e-2
    assert max_abs(curvature_closed(state) - want) <= 1e-12 * max_abs(want)
    if name == "schwarzschild":
        assert all(v == 0 for v in np.trace(exact, axis1=1, axis2=2).flat)


@CHARTS
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_christoffel_and_fd_oracle_match_the_exact_ones(name, chart):
    """christoffel equals the exact Christoffel symbols to 1e-13 of max|Γ|
    (measured at most 4.9e-16, and 9.2e-15 near c = 0), and
    curvature_fd_oracle the exact Riemann tensor to 1e-8 of max|R|
    (measured at most 6.7e-11)."""
    state = chart_state(name, chart)
    a0, da, _ = chart_jet(name, chart)
    gamma = _christoffel(_inverse(a0), da)[1].astype(float)
    assert max_abs(gamma) > 1e-2
    assert max_abs(christoffel(state) - gamma) <= 1e-13 * max_abs(gamma)
    exact = exact_riemann(name, chart).astype(float)
    assert max_abs(curvature_fd_oracle(state) - exact) <= 1e-8 * max_abs(exact)


def _exact_ricci(name, chart, point=None):
    """The exact Ricci tensor a_n^i_im in the chart x' = chart x and its
    exact coefficients over {u_nm, b_n b_m / (c^2 m), n_n n_m}.

    The three basis tensors are carried from the standard chart (b = e_0,
    u = diag(0, 1, ..., 1), n = the spatial unit vector of ``point``); the
    coefficients solve the system of the quadratic forms at the axis, the
    radial and a transverse direction, and the decomposition is asserted
    to hold exactly in every component."""
    point = point or PROFILES[name][3]
    n = len(point)
    ric = np.trace(exact_riemann(name, chart, point), axis1=1, axis2=2)
    lin = np.array(chart, dtype=object) + Fraction(0)
    inv = _inverse(lin)
    r = sp.sqrt(sum(sp.Rational(v.numerator, v.denominator) ** 2 for v in point[1:]))
    assert r.is_Rational
    r = Fraction(int(r.p), int(r.q))
    c, m = (
        Fraction(int(v.p), int(v.q))
        for v in PROFILES[name][0](sp.Rational(r.numerator, r.denominator))
    )
    axis = np.array([1] + [0] * (n - 1), dtype=object) + Fraction(0)
    radial = np.array([0] + [v / r for v in point[1:]], dtype=object)
    transverse = np.array([0, -point[2], point[1]] + [0] * (n - 3), dtype=object) + Fraction(0)
    u = np.diag([0] + [1] * (n - 1)).astype(object) + Fraction(0)
    basis = [
        inv.T @ tensor @ inv
        for tensor in (u, np.outer(axis, axis) / (c * c * m), np.outer(radial, radial))
    ]
    probes = [lin @ v for v in (axis, radial, transverse)]
    system = np.array([[v @ t @ v for t in basis] for v in probes], dtype=object)
    coeffs = _inverse(system) @ np.array([v @ ric @ v for v in probes], dtype=object)
    assert (ric == sum(k * t for k, t in zip(coeffs, basis))).all()
    return ric, coeffs


@CHARTS
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_nabla_b_matches_the_exact_one(name, chart):
    """b_i is constant in a linear chart, so nabla_i b_j = -a^k_ij b_k
    exactly: nabla_b equals it to 1e-13 of max|nabla b| (measured at most
    3.1e-16, and 3.4e-15 near c = 0), and nabla_b_definitional to 1e-8
    (measured at most 2.5e-9)."""
    state = chart_state(name, chart)
    a0, da, _ = chart_jet(name, chart)
    inv = _inverse(np.array(chart, dtype=object) + Fraction(0))
    b_low = inv[0]  # e_0 carried to the chart: b'_i = chart^-1[0, i]
    exact = -np.einsum("kij,k->ij", _christoffel(_inverse(a0), da)[1], b_low).astype(float)
    assert max_abs(exact) > 1e-2
    assert max_abs(nabla_b(state) - exact) <= 1e-13 * max_abs(exact)
    assert max_abs(nabla_b_definitional(state) - exact) <= 1e-8 * max_abs(exact)


@CHARTS
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_ricci_closed_matches_the_exact_ricci(name, chart):
    """ricci_closed's tensor equals the trace of the exact Riemann tensor,
    and its coefficients the exact ones, to 1e-12 of max|R| (measured at
    most 6.1e-16, and 2.0e-14 near c = 0); for N = 4 Schwarzschild both are
    exactly zero."""
    ric, coeffs = _exact_ricci(name, chart)
    got, got_coeffs = ricci_closed(chart_state(name, chart))
    scale = max_abs(exact_riemann(name, chart).astype(float))
    assert max_abs(got - ric.astype(float)) <= 1e-12 * scale
    assert max_abs(np.array(got_coeffs.as_tuple()) - coeffs.astype(float)) <= 1e-12 * scale
    assert any(coeffs) == (name != "schwarzschild")


POINT5 = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(1), Fraction(2))  # r = 5/2


def test_five_dimensional_schwarzschild_is_not_ricci_flat():
    """The isotropic Schwarzschild pair is Ricci-flat only at N = 4: at a
    rational point with N = 5 the exact Ricci tensor has a nonzero
    coefficient (all three are: 32/605, -16/605 and -48/605), and
    ricci_closed gives every coefficient to 1e-12 of max|R|, so the
    failing exit of an N = 5 vacuum run is geometry, not roundoff."""
    identity = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    ric, coeffs = _exact_ricci("schwarzschild", identity, POINT5)
    got, got_coeffs = ricci_closed(chart_state("schwarzschild", identity, POINT5))
    scale = max_abs(exact_riemann("schwarzschild", identity, POINT5).astype(float))
    assert any(coeffs)
    assert max_abs(got - ric.astype(float)) <= 1e-12 * scale
    for closed, exact in zip(got_coeffs.as_tuple(), coeffs):
        assert abs(closed - float(exact)) <= 1e-12 * scale
        if exact:
            assert abs(closed) > 1e-3 * scale


@lru_cache(maxsize=None)
def exact_spray_jet(name):
    """G^i, G^i_k and G^i_km at (POINT, FIBER) with charge 3/10, as sympy
    numbers to 30 digits (object arrays), in the standard chart.

    There b_i = e_i is constant, so nabla_i b_j = -a^k_ij b_k, and
    G^i = (g/nu) (ys) v^i + a^i_km y^k y^m with q = sqrt(eps (S^2 - b^2))
    and eps the profile's signature.  sympy differentiates G^i in y, then
    the fiber is substituted; only k <= m of G^i_km is differentiated."""
    def exact(f):
        return sp.Rational(f.numerator, f.denominator)

    rat = np.vectorize(exact, otypes=[object])
    a0, da, _ = metric_jet(name)
    a_up = _inverse(a0)
    gamma = rat(_christoffel(a_up, da)[1])
    a, a_up = rat(a0), rat(a_up)
    eps, g = PROFILES[name][2], exact(CHARGE)
    y = np.array(sp.symbols("y0:4", real=True), dtype=object)
    b = y[0]
    q = sp.sqrt(sp.expand(eps * (y @ a @ y - b**2)))
    nu = q + g * (1 - a_up[0, 0]) * b  # c^2 = b_i b^i = a^00
    ys = sp.expand(-(y @ gamma[0] @ y))
    v_up = y - b * a_up[:, 0]
    spray = [g / nu * ys * v_up[i] + sp.expand(y @ gamma[i] @ y) for i in range(4)]
    first = [[sp.diff(spray[i], y[k]) for k in range(4)] for i in range(4)]
    at = {yk: exact(f) for yk, f in zip(y, FIBER)}

    def value(expr):
        return sp.N(expr.xreplace(at), 30)

    second = np.empty((4, 4, 4), dtype=object)
    for i, k in product(range(4), range(4)):
        for m in range(k, 4):
            second[i, k, m] = second[i, m, k] = value(sp.diff(first[i][k], y[m]))
    return (
        np.array([value(e) for e in spray], dtype=object),
        np.array([[value(e) for e in row] for row in first], dtype=object),
        second,
    )


def _spray_point(name):
    """The metric at POINT of profile ``name``, in the standard chart."""
    _, pair, signature, _ = PROFILES[name]
    return build_metric(Frame.standard(4, signature), pair, np.array(POINT, dtype=float))


@pytest.mark.parametrize("name", ["pd_rational", "schwarzschild"])
def test_spray_derivatives_match_the_exact_ones(name):
    """The closed G^i and G^i_k, and G^i_km contracted with the spray (the
    form the bundle reads), equal sympy's to 1e-13 of their largest
    component, in the positive-definite convention (rational pair,
    signature +1) and the pseudo-Finsleroid one (Schwarzschild, signature
    -1, where q^2 = b^2 - S^2).  The full G^i_km, built from the engine's
    contraction with each e_m (conftest.spray_second_closed), equals
    sympy's too."""
    state = _spray_point(name)
    y = np.array(FIBER, dtype=float)
    derivs = spray_derivatives(state, y, float(CHARGE))
    spray, first, second = exact_spray_jet(name)
    got = (
        derivs.spray,
        derivs.first_closed,
        derivs.second_closed,
        spray_second_closed(state, y, float(CHARGE)),
    )
    for closed, exact in zip(got, (spray, first, second @ spray, second)):
        exact = exact.astype(float)
        assert max_abs(exact) > 1e-4
        assert max_abs(closed - exact) <= 1e-13 * max_abs(exact)


# A rational w != y, exact in binary, for G^i_km w^m off the spray.
W = (Fraction(-3, 4), Fraction(1, 2), Fraction(5, 8), Fraction(-1, 8))


@pytest.mark.parametrize("w", ["spray", "rational"])
@pytest.mark.parametrize("name", ["pd_rational", "schwarzschild"])
def test_spray_y_second_matches_the_exact_contraction(name, w):
    """spray_y_second(state, w) equals sympy's G^i_km w^m to 1e-13 of its
    largest component, in both conventions at g = 3/10, with w the spray
    G^m and with the rational W."""
    state = kinematics(_spray_point(name), np.array(FIBER, dtype=float), float(CHARGE))
    spray, _, second = exact_spray_jet(name)
    if w == "spray":
        w_exact, w_float = spray, spray.astype(float)
    else:
        w_exact = np.array([sp.Rational(f.numerator, f.denominator) for f in W], dtype=object)
        w_float = np.array(W, dtype=float)
    exact = (second @ w_exact).astype(float)
    got = spray_y_second(state, w_float)
    assert max_abs(exact) > 1e-4
    assert max_abs(got - exact) <= 1e-13 * max_abs(exact)


# The Finsleroid metric function: F^2 = b^2 P(s) exp(-eps g I(s)) with
# s = q/b, P = 1 + eps (g s + s^2) and I' = 1/P, a function of b = b_i y^i
# and S^2 = a_ij y^i y^j alone (q^2 = eps (S^2 - b^2)).  At eps = +1,
# I = arctan((s + g/2)/h)/h with h = sqrt(1 - g^2/4); at eps = -1,
# I = ln|(s + g/2 + w)/(s + g/2 - w)|/(2w) with w = sqrt(1 + g^2/4).
B, S2 = sp.symbols("b S2", real=True)


def _half_f2_jet(eps, g, b, s2):
    """F^2/2 and its first and second partials in (b, S^2) at (b, s2), to
    30 digits: (value, [d_b, d_S2], [[d_bb, d_bS2], [d_S2b, d_S2S2]])."""
    s = sp.sqrt(eps * (S2 - B**2)) / B
    at = {B: b, S2: s2}
    if eps == 1:
        h = sp.sqrt(1 - g**2 / 4)
        integral = sp.atan((s + g / 2) / h) / h
    else:
        w = sp.sqrt(1 + g**2 / 4)
        ratio = (s + g / 2 + w) / (s + g / 2 - w)
        integral = sp.log(sp.sign(ratio.xreplace(at)) * ratio) / (2 * w)
    half = B**2 * (1 + eps * (g * s + s**2)) * sp.exp(-eps * g * integral) / 2
    first = [sp.diff(half, v) for v in (B, S2)]

    def value(expr):
        return sp.N(expr.xreplace(at), 30)

    hessian = [[value(sp.diff(d, v)) for v in (B, S2)] for d in first]
    return value(half), [value(d) for d in first], hessian


# (profile, charge, fiber, sign of F^2): eps = +1 at g = 3/10 and g = 3/2,
# eps = -1 on a fiber with F^2 > 0 and one with F^2 < 0; b = y^0 < 0 in
# each convention.
NEAR_AXIS = (Fraction(-1, 2), Fraction(1, 16), Fraction(-1, 32), Fraction(1, 16))
F_CASES = {
    "pd_rational-g0.3": ("pd_rational", CHARGE, FIBER, 1),
    "pd_rational-g1.5-b<0": ("pd_rational", Fraction(3, 2), (-FIBER[0],) + FIBER[1:], 1),
    "schwarzschild-F2>0-b<0": ("schwarzschild", CHARGE, NEAR_AXIS, 1),
    "schwarzschild-F2<0": ("schwarzschild", CHARGE, FIBER, -1),
}


@pytest.mark.parametrize("name, charge, fiber, f2_sign", F_CASES.values(), ids=F_CASES.keys())
def test_spray_is_the_euler_lagrange_spray_of_f(name, charge, fiber, f2_sign):
    """With l_l = d(F^2/2)/dy^l and g_il = d l_i/dy^l, the engine's spray
    satisfies g_il G^l = y^k d_k l_l - d_l(F^2/2) to 1e-13 of its Finsler
    part (the engine's G^i is twice Shen's).  The y-derivatives follow
    from b and S^2 by the chain rule, d b/dy^l = b_l and d S^2/dy^l = 2 y_l,
    and the x-derivatives from sympy's exact d_k a_ij (metric_jet)."""
    eps = PROFILES[name][2]
    rat = np.vectorize(lambda f: sp.Rational(f.numerator, f.denominator), otypes=[object])
    a0, da, _ = (rat(a) for a in metric_jet(name))
    y, g = rat(np.array(fiber, dtype=object)), sp.Rational(charge.numerator, charge.denominator)
    e = rat(np.array([1, 0, 0, 0], dtype=object) + Fraction(0))  # b_i in the standard chart
    y_low = a0 @ y
    half, (d_b, d_s), ((d_bb, d_bs), (_, d_ss)) = _half_f2_jet(eps, g, y[0], y @ y_low)
    assert np.sign(float(half)) == f2_sign
    ell = d_b * e + 2 * d_s * y_low
    metric = (
        d_bb * np.outer(e, e)
        + 2 * d_bs * (np.outer(e, y_low) + np.outer(y_low, e))
        + 4 * d_ss * np.outer(y_low, y_low)
        + 2 * d_s * a0
    )
    ds2 = np.einsum("kij,i,j->k", da, y, y)  # d_k S^2
    d_ell = np.outer(ds2, d_bs * e + 2 * d_ss * y_low) + 2 * d_s * (da @ y)  # [k, l] = d_k l_l
    rhs = y @ d_ell - d_s * ds2
    assert abs(float(ell @ y - 2 * half)) <= 1e-25  # F^2 is 2-homogeneous in y
    state = build_metric(Frame.standard(4, eps), PROFILES[name][1], np.array(POINT, dtype=float))
    spray = spray_coefficients(state, np.array(fiber, dtype=float), float(charge))
    finsler_part = metric.astype(float) @ (spray - spray_coefficients(state, y.astype(float), 0.0))
    lhs = metric @ np.array([sp.Float(v, 30) for v in spray], dtype=object)
    assert max_abs(finsler_part) > 1e-4
    assert max_abs((lhs - rhs).astype(float)) <= 1e-13 * max_abs(finsler_part)
