"""Structured run reports: machine-readable first, with the human-readable
table derived from the same data.

The report body (everything except wall-clock timings) is deterministic
for a fixed scenario and seed, so CI can hash it or gate on residuals.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    """One verification check: residual statistics against one tolerance."""

    name: str
    residual_max: float
    residual_median: float
    tolerance: float | None
    tolerance_class: str | None
    n_samples: int
    passed: bool
    worst_index: int | None = None

    @staticmethod
    def from_residuals(
        name: str,
        residuals,
        tolerance: float | None,
        tolerance_class: str | None = None,
    ) -> "CheckResult":
        """Statistics of per-sample residuals given in draw order;
        ``worst_index`` is the position of the first sample that attains
        the maximum (None without samples)."""
        values = np.asarray(residuals, dtype=float)
        worst_index = int(np.argmax(values)) if values.size else None
        worst = float(values[worst_index]) if values.size else 0.0
        med = _median(values) if values.size else 0.0
        passed = True if tolerance is None else worst <= tolerance
        return CheckResult(
            name=name,
            residual_max=worst,
            residual_median=med,
            tolerance=tolerance,
            tolerance_class=tolerance_class,
            n_samples=int(values.size),
            passed=passed,
            worst_index=worst_index,
        )


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit, without
    np.median (whose NaN check imports numpy.ma): the middle value of the
    sorted values, or the mean of the two middle ones, summed from +0.0 and
    divided as np.mean does; NaN if any value is NaN (sorted last)."""
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):
        return float("nan")
    middle = ordered[(values.size - 1) // 2 : values.size // 2 + 1]
    return float(middle.sum() / middle.size)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    checks: tuple[CheckResult, ...] = ()
    reason: str | None = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        """The suite's part of the report body; its wall time goes in the
        report's ``timings``."""
        return {
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "checks": [dict(vars(c)) for c in self.checks],
        }


@dataclass(frozen=True)
class RunReport:
    scenario: dict
    suites: tuple[SuiteResult, ...]

    @property
    def nothing_verified(self) -> bool:
        """No suite ran: none was asked for, or every one was skipped."""
        return all(s.status == "skipped" for s in self.suites)

    @property
    def passed(self) -> bool:
        return not self.nothing_verified and not any(s.status == "fail" for s in self.suites)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def config_hash(self) -> str:
        payload = json.dumps(self.scenario, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    def body_dict(self) -> dict:
        """The deterministic report body: no wall-clock data."""
        return {
            "scenario": self.scenario,
            "config_hash": self.config_hash(),
            "conventions": {
                "curvature_layout": "R[n,i,k,m] for a_n^i_km; Ricci contracts a_n^i_im",
                "bundle_index_lowering": "Riemannian a_ij (the Finsler metric tensor is out of scope)",
                "residual_units": (
                    "closed-form residuals are relative to max(1, operand) per sample; "
                    "vacuum Ricci residuals are scaled by r^2"
                ),
            },
            "suites": [s.to_dict() for s in self.suites],
            "passed": self.passed,
        }

    def to_dict(self) -> dict:
        out = self.body_dict()
        out["timings"] = {s.name: s.wall_time_s for s in self.suites}
        return out

    def body_json(self) -> str:
        return json.dumps(self.body_dict(), sort_keys=True, indent=2)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def human_summary(self) -> str:
        """Fixed-width table derived from the machine-readable data."""
        lines = []
        lines.append(f"config {self.config_hash()}  seed {self.scenario.get('seed')}")
        header = f"{'suite':<26} {'status':<8} {'worst check':<34} {'residual':>12} {'tol':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for suite in self.suites:
            if suite.reason:
                lines.append(f"{suite.name:<26} {suite.status.upper():<8} ({suite.reason})")
                continue
            gated = [c for c in suite.checks if c.tolerance is not None]
            if gated:
                worst = max(gated, key=lambda c: c.residual_max / c.tolerance)
                lines.append(
                    f"{suite.name:<26} {suite.status.upper():<8} {worst.name:<34} "
                    f"{worst.residual_max:>12.3e} {worst.tolerance:>10.1e}"
                )
            else:
                lines.append(f"{suite.name:<26} {suite.status.upper():<8} (informational)")
            for check in suite.checks:
                if check.tolerance is not None and not check.passed:
                    lines.append(
                        f"    FAIL {check.name}: max {check.residual_max:.3e} "
                        f"> tol {check.tolerance:.1e} over {check.n_samples} samples"
                    )
        if not self.suites:
            lines.append("no suite was asked for; nothing was verified")
        elif self.nothing_verified:
            lines.append("every suite was skipped; nothing was verified")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
