"""Catalog of radial profile pairs (c(r), m(r)), each kind stating its own
first and second derivatives in closed form.

The pair parameterises the metric family a_ij = b_i b_j / c^2 + m u_ij.
Profiles state their own derivatives because the vacuum check hinges on
accurate values of c''/c and m''/m; relying on the complex step there
would make the closed forms lean on the numeric oracle that judges them,
and it takes first derivatives only.  The non-constant kinds are functions
of w = 1/r: each gives f, df/dw and d^2f/dw^2, and one chain rule maps
them to r.  ``riemann.build_metric`` keeps the six scalars c, c', c'', m,
m', m'' on its MetricState, where the curvature's scalar combinations read
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

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

    def jets(self, r) -> tuple[tuple, tuple]:
        """The triples (c, c', c'') and (m, m', m''), derivatives in r, at
        radius r (a float or an array of radii), each part shaped like r.
        Every radius must be in the domain; a complex radius (a complex
        step) is tested by its real part.  The closed forms run on r as a
        flat array, so each radius of a stack gets the bits it gets alone."""
        self._check_domain(r)
        w = 1.0 / np.reshape(r, -1)
        if self.kind == "constant":
            zero = 0.0 * w
            c = (zero + self.params["c0"], zero, zero)
            m = (zero + self.params["m0"], zero, zero)
        elif self.kind == "schwarzschild_isotropic":
            c, m = (_in_r(f, w) for f in _schwarzschild_in_w(self.params["xi"] / 4.0, w))
        elif self.kind == "rational":
            c, m = (_in_r(_poly(self.params[key], w), w) for key in ("c_coeffs", "m_coeffs"))
        else:  # pragma: no cover - constructors guard the kind
            raise ValueError(f"unknown profile kind {self.kind!r}")
        c, m = (tuple(np.reshape(f, np.shape(r))[()] for f in triple) for triple in (c, m))
        not_positive = np.logical_not(np.real(c[0]) > 0.0)
        _reject(r, not_positive, lambda at: f"profile c(r) is not positive at r={at}")
        _reject(r, np.real(m[0]) == 0.0, lambda at: f"profile m(r) vanishes at r={at}")
        return c, m


def _reject(r, bad, message) -> None:
    """Raise DomainError(message(at), rows=bad) if the mask ``bad`` (shaped
    like r) holds anywhere; ``at`` is the real part of the first radius
    where it does."""
    if np.any(bad):
        raise DomainError(message(float(np.asarray(r).real[bad].flat[0])), rows=bad)


def _in_r(f, w):
    """(f, df/dr, d^2f/dr^2) from (f, f_w, f_ww) in w = 1/r: dw/dr = -w^2,
    so f' = -w^2 f_w and f'' = w^3 (w f_ww + 2 f_w)."""
    f0, f1, f2 = f
    return f0, -(w * w) * f1, (w * w * w) * (w * f2 + 2.0 * f1)


def _schwarzschild_in_w(k, w):
    """c = (1 + kw) / (1 - kw) and m = -(1 + kw)^4 with k = xi/4, each with
    its first and second w-derivatives."""
    p, q = 1.0 + k * w, 1.0 - k * w
    p2 = p * p
    c = (p / q, (2.0 * k) / (q * q), (4.0 * k * k) / (q * q * q))
    m = (-(p2 * p2), (-4.0 * k) * (p2 * p), (-12.0 * k * k) * p2)
    return c, m


def _poly(coeffs, w):
    """(f, f_w, f_ww) of f = sum_k coeffs[k] w^k: Horner over descending
    powers, one accumulator per derivative."""
    f0 = f1 = f2 = 0.0
    for coef in reversed(coeffs):
        f2 = f2 * w + 2.0 * f1
        f1 = f1 * w + f0
        f0 = f0 * w + coef
    return f0, f1, f2
