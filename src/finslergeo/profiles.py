"""Catalog of radial profile pairs (c(r), m(r)) with analytic first and
second derivatives carried as second-order jets.

The pair parameterises the metric family a_ij = b_i b_j / c^2 + m u_ij.
Profiles expose their own derivatives because the vacuum check hinges on
accurate values of c''/c and m''/m; relying on the generic differentiator
there would make the closed forms lean on the numeric oracle that judges
them, and it takes first derivatives only.
``riemann.build_metric`` keeps the six jet scalars c, c', c'', m, m', m''
on its MetricState, where the curvature's scalar combinations read them.
"""

from __future__ import annotations

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
        where = f"r > {self.r_min}"
        if self.kind == "schwarzschild_isotropic":
            where += f" (pole of c at r = xi/4 with xi={self.params['xi']})"
        outside = np.logical_not(self.r_min < np.real(r))
        _reject(r, outside, lambda at: f"r={at} outside domain {where}")

    def jets(self, r) -> tuple[Jet2, Jet2]:
        """The (c, m) jets at radius r (a float or an array of radii), each
        carrying value, d/dr, d^2/dr^2.  Every radius must be in the domain;
        a complex radius (a complex step) is tested by its real part."""
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
        not_positive = np.logical_not(np.real(cj.value) > 0.0)
        _reject(r, not_positive, lambda at: f"profile c(r) is not positive at r={at}")
        _reject(r, np.real(mj.value) == 0.0, lambda at: f"profile m(r) vanishes at r={at}")
        return cj, mj


def _reject(r, bad, message) -> None:
    """Raise DomainError(message(at), rows=bad) if the mask ``bad`` (shaped
    like r) holds anywhere; ``at`` is the real part of the first radius
    where it does."""
    if np.any(bad):
        raise DomainError(message(float(np.asarray(r).real[bad].flat[0])), rows=bad)


def _poly(coeffs, w: Jet2) -> Jet2:
    # Horner over descending powers of w = 1/r; coeffs[k] multiplies w^k.
    acc = Jet2.constant(0.0)
    for coef in reversed(coeffs):
        acc = acc * w + coef
    return acc
