"""Catalog of radial profile pairs (c(r), m(r)) with analytic first and
second derivatives carried as second-order jets.

The pair parameterises the metric family a_ij = b_i b_j / c^2 + m u_ij.
Profiles expose their own derivatives because the vacuum check hinges on
accurate values of c''/c and m''/m; relying on the generic differentiator
there would put finite-difference noise inside the headline result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .tensors import Jet2

# Each profile kind, named as its ProfilePair constructor, with the keys that
# constructor takes; the keys ending in "_coeffs" hold lists of numbers.
PROFILE_KINDS = {
    "constant": ("c0", "m0"),
    "schwarzschild_isotropic": ("xi",),
    "rational": ("c_coeffs", "m_coeffs"),
}


class DomainError(ValueError):
    """Evaluation at a radius outside the profile's valid open interval.
    ``rows``, shaped like the evaluated radius, marks the radii that failed
    the check that raised, so a stack can drop just those points."""

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class ProfileValues:
    """The six scalars c, c', c'', m, m', m'', each shaped like the radius
    (a float at one radius, an array over a stack of radii)."""

    c: float | np.ndarray
    c1: float | np.ndarray
    c2: float | np.ndarray
    m: float | np.ndarray
    m1: float | np.ndarray
    m2: float | np.ndarray


@dataclass(frozen=True)
class ComboScalars:
    """The four recurring scalar combinations the curvature assembles from,
    and the mixed one built on c_curv:

    c_curv  = c''/c - 2 (c'/c)^2 - c'/(r c)
    m_curv  = (1/m) (m'' - m'/r - (3/2) m'^2 / m)
    m_slope = (m'/m) ((1/4) m'/m + 1/r)
    cross   = (1/2) (c'/c) (m'/m + 2/r)
    mixed   = c_curv - (c'/c)(m'/m)
    """

    c_curv: float
    m_curv: float
    m_slope: float
    cross: float
    mixed: float


@dataclass(frozen=True)
class RicciCoefficients:
    """Coefficients of the Ricci decomposition over {u_nm, b_n b_m / (c^2 m), n_n n_m}."""

    u_term: float
    bb_term: float
    nn_term: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.u_term, self.bb_term, self.nn_term)


@dataclass(frozen=True)
class ProfilePair:
    """A named radial profile pair with its parameters and open domain.

    The isotropic Schwarzschild pair is
        c = (1 + xi/4r) / (1 - xi/4r),   m = -(1 + xi/4r)^4,
    valid for r > xi/4 (pole of c).  ``rational`` evaluates polynomials in
    1/r for both scalars, for probing non-vacuum geometries.  c > 0 and
    m != 0 are enforced at evaluation.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    r_min: float = 0.0
    r_max: float = math.inf

    @staticmethod
    def constant(c0: float = 1.0, m0: float = 1.0) -> "ProfilePair":
        if not c0 > 0.0:
            raise ValueError(f"constant profile needs c0 > 0, got {c0}")
        if m0 == 0.0:
            raise ValueError("constant profile needs m0 != 0")
        return ProfilePair("constant", {"c0": float(c0), "m0": float(m0)})

    @staticmethod
    def schwarzschild_isotropic(xi: float = 1.0) -> "ProfilePair":
        if not xi > 0.0:
            raise ValueError(f"xi must be > 0, got {xi}")
        return ProfilePair(
            "schwarzschild_isotropic", {"xi": float(xi)}, r_min=xi / 4.0
        )

    @staticmethod
    def rational(c_coeffs=(), m_coeffs=()) -> "ProfilePair":
        c_coeffs = tuple(float(v) for v in c_coeffs)
        m_coeffs = tuple(float(v) for v in m_coeffs)
        if not c_coeffs or not m_coeffs:
            raise ValueError("rational profile needs nonempty c_coeffs and m_coeffs")
        return ProfilePair(
            "rational", {"c_coeffs": c_coeffs, "m_coeffs": m_coeffs}
        )

    def _check_domain(self, r) -> None:
        where = f"({self.r_min}, {self.r_max})"
        if self.kind == "schwarzschild_isotropic":
            where = f"r > {self.r_min} (pole of c at r = xi/4 with xi={self.params['xi']})"
        bad = np.logical_not((self.r_min < r) & (r < self.r_max))
        _reject(r, bad, lambda at: f"r={at} outside domain {where}")

    def jets(self, r) -> tuple[Jet2, Jet2]:
        """The (c, m) jets at radius r (a float or an array of radii), each
        carrying value, d/dr, d^2/dr^2.  Every radius must be in the domain."""
        self._check_domain(r)
        rj = Jet2.variable(r)
        if self.kind == "constant":
            flat = 0.0 * rj  # zero jet shaped like r
            cj = flat + self.params["c0"]
            mj = flat + self.params["m0"]
        elif self.kind == "schwarzschild_isotropic":
            t = self.params["xi"] / (4.0 * rj)
            cj = (1.0 + t) / (1.0 - t)
            mj = -((1.0 + t) ** 4)
        elif self.kind == "rational":
            w = 1.0 / rj
            cj = _poly(self.params["c_coeffs"], w)
            mj = _poly(self.params["m_coeffs"], w)
        else:  # pragma: no cover - constructors guard the kind
            raise ValueError(f"unknown profile kind {self.kind!r}")
        not_positive = np.logical_not(cj.value > 0.0)
        _reject(r, not_positive, lambda at: f"profile c(r) is not positive at r={at}")
        _reject(r, mj.value == 0.0, lambda at: f"profile m(r) vanishes at r={at}")
        return cj, mj

    def eval(self, r) -> ProfileValues:
        """The six profile scalars at r, each shaped like r."""
        cj, mj = self.jets(r)
        return ProfileValues(cj.value, cj.d1, cj.d2, mj.value, mj.d1, mj.d2)


def _reject(r, bad, message) -> None:
    """Raise DomainError(message(at), rows=bad) if the mask ``bad`` (shaped
    like r) holds anywhere; ``at`` is the first radius where it does."""
    if np.any(bad):
        raise DomainError(message(float(np.asarray(r)[bad].flat[0])), rows=bad)


def _poly(coeffs, w: Jet2) -> Jet2:
    # Horner over descending powers of w = 1/r; coeffs[k] multiplies w^k.
    acc = Jet2.constant(0.0)
    for coef in reversed(coeffs):
        acc = acc * w + coef
    return acc


def combo_scalars(p: ProfileValues, r: float) -> ComboScalars:
    """The scalar combinations entering curvature and Ricci assembly, from
    the profile values at radius r (a ProfileValues or a MetricState, which
    carries the same six scalars)."""
    c_over = p.c1 / p.c
    m_over = p.m1 / p.m
    c_curv = p.c2 / p.c - 2.0 * c_over**2 - c_over / r
    return ComboScalars(
        c_curv=c_curv,
        m_curv=(p.m2 - p.m1 / r - 1.5 * p.m1**2 / p.m) / p.m,
        m_slope=m_over * (0.25 * m_over + 1.0 / r),
        cross=0.5 * c_over * (m_over + 2.0 / r),
        mixed=c_curv - c_over * m_over,
    )


def ricci_coefficients(p: ProfileValues, r: float, n_dim: int) -> RicciCoefficients:
    """The three scalars of the Ricci decomposition in dimension n_dim, from
    the profile values at radius r (as for combo_scalars).

    With A = c_curv, B = m_curv, C = m_slope, D = cross and the mixed
    combination Y = A - (c'/c)(m'/m):

        u_term  = -(N-2) C - B/2 + D
        bb_term = Y + (N-1) D
        nn_term = Y - (N-3) B/2

    All three vanish identically for the isotropic Schwarzschild pair at
    N = 4, which is the vacuum property.
    """
    s = combo_scalars(p, r)
    return RicciCoefficients(
        u_term=-(n_dim - 2) * s.m_slope - 0.5 * s.m_curv + s.cross,
        bb_term=s.mixed + (n_dim - 1) * s.cross,
        nn_term=s.mixed - (n_dim - 3) * 0.5 * s.m_curv,
    )
