"""Declarative scenario files for the verification runner.

Grammar (INI-style, documented in the README):

    # comment lines start with '#'
    [scenario]
    dimension = 4
    signature = -1
    charge = 0.0
    seed = 0
    suites = vacuum, curvature-xcheck

    [profile]
    kind = schwarzschild_isotropic
    xi = 1.0
    # kind = constant:  c0 = 1.0, m0 = -1.0
    # kind = rational:  c_coeffs = 0.8, 0.1   m_coeffs = 1.0, 0.2

    [samples]
    radii = 0.5, 1, 2, 5, 10
    points = 100
    fibers = 100

    [tolerances]
    finite_difference = 1e-6

    [output]
    report = report.json
    dump_tensors = dumps

Unknown sections, unknown keys and repeated keys are parse errors carrying
the offending line number; constraint violations (a non-integer count, a
non-finite number, a repeated suite) are validation errors naming the
constraint.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .profiles import ProfilePair
from .tensors import TOLERANCE_CLASSES

SUITES = (
    "frame-identities",
    "christoffel-xcheck",
    "curvature-xcheck",
    "vacuum",
    "schwarzschild-reductions",
    "finsler-identities",
    "finsler-curvature",
)

DEFAULT_RADII = (0.5, 1.0, 2.0, 5.0, 10.0)

# Largest accepted ``points`` / ``fibers`` count and number of radii: every
# sample is drawn and evaluated, so run time grows with the count, and an
# unbounded count (a many-digit integer) would never finish instead of
# being refused.
MAX_COUNT = 10_000

_SECTION_KEYS = {
    "scenario": {
        "dimension",
        "signature",
        "charge",
        "seed",
        "suites",
    },
    "profile": {"kind", "xi", "c0", "m0", "c_coeffs", "m_coeffs"},
    "samples": {"radii", "points", "fibers"},
    "tolerances": set(TOLERANCE_CLASSES),
    "output": {"report", "dump_tensors"},
}


class ScenarioError(ValueError):
    """Malformed or invalid scenario content; carries a line number when
    the problem is syntactic."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Scenario:
    """A validated run configuration with all defaults resolved."""

    n_dim: int = 4
    epsilon: int = -1
    profile: ProfilePair = field(default_factory=lambda: ProfilePair.schwarzschild_isotropic(1.0))
    charge: float = 0.0
    seed: int = 0
    suites: tuple[str, ...] = ()
    radii: tuple[float, ...] = DEFAULT_RADII
    n_points: int = 100
    n_fibers: int = 100
    tolerances: dict[str, float] = field(default_factory=lambda: dict(TOLERANCE_CLASSES))
    report_path: str | None = None
    dump_dir: str | None = None

    def echo(self) -> dict:
        """Deterministic dictionary form for reports and hashing."""
        return {
            "dimension": self.n_dim,
            "signature": self.epsilon,
            "profile": {"kind": self.profile.kind, "params": _plain(self.profile.params)},
            "charge": self.charge,
            "seed": self.seed,
            "suites": list(self.suites),
            "radii": list(self.radii),
            "points": self.n_points,
            "fibers": self.n_fibers,
            "tolerances": dict(sorted(self.tolerances.items())),
        }

    def with_overrides(
        self,
        seed: int | None = None,
        tolerance_overrides: dict[str, float] | None = None,
        dump_dir: str | None = None,
        report_path: str | None = None,
    ) -> "Scenario":
        tol = dict(self.tolerances)
        for name, value in (tolerance_overrides or {}).items():
            if name not in TOLERANCE_CLASSES:
                raise ScenarioError(
                    f"unknown tolerance class {name!r}; known: {sorted(TOLERANCE_CLASSES)}"
                )
            tol[name] = _tolerance(name, value)
        return replace(
            self,
            seed=self.seed if seed is None else _seed(seed),
            tolerances=tol,
            dump_dir=self.dump_dir if dump_dir is None else dump_dir,
            report_path=self.report_path if report_path is None else report_path,
        )


def _plain(params) -> dict:
    out = {}
    for key, value in params.items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text: str):
    if "," in text:
        return [_parse_scalar(part.strip()) for part in text.split(",") if part.strip()]
    return _parse_scalar(text)


def _as_list(value):
    return value if isinstance(value, list) else [value]


def _check_known(section: str, keys, line: int | None = None) -> None:
    """Refuse an unknown section, or the first of ``keys`` unknown in it;
    the parser passes the offending ``line``."""
    known = _SECTION_KEYS.get(section)
    if known is None:
        raise ScenarioError(f"unknown section [{section}]; known: {sorted(_SECTION_KEYS)}", line)
    for key in keys:
        if key not in known:
            raise ScenarioError(
                f"unknown key {key!r} in section [{section}]; known: {sorted(known)}", line
            )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario file contents into a Scenario."""
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            _check_known(name, (), lineno)
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ScenarioError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        _check_known(current, (key,), lineno)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = _parse_value(value.strip())
    return scenario_from_sections(sections)


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file to run: unlike a parsed fragment, it must list
    at least one suite, or the run would verify nothing."""
    scenario = parse_scenario(Path(path).read_text(encoding="utf-8"))
    if not scenario.suites:
        raise ScenarioError(f"{path}: no suites listed; nothing would be verified")
    return scenario


def _integer(section: dict, key: str, default: int) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{key} must be an integer; got {value!r}")
    return value


def _number(value, what: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):  # an integer too large for a float
            number = float(value)
            if math.isfinite(number):
                return number
    raise ScenarioError(f"{what} must be a finite number; got {value!r}")


def _numbers(value, what: str) -> tuple[float, ...]:
    return tuple(_number(v, what) for v in _as_list(value))


def _seed(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ScenarioError(f"seed must be an integer >= 0; got {value!r}")
    return value


def _tolerance(name: str, value) -> float:
    value = _number(value, f"tolerance {name}")
    if not value > 0.0:
        raise ScenarioError(f"tolerance {name} must be > 0, got {value}")
    return value


def scenario_from_sections(sections: dict[str, dict[str, object]]) -> Scenario:
    """Validate parsed sections ({section: {key: value}}, values as the
    grammar parses them) into a Scenario.  Every entry point builds its
    Scenario here, so one set of rules decides what runs."""
    for name, section in sections.items():
        _check_known(name, section)
    sc = sections.get("scenario", {})
    prof = sections.get("profile", {})
    samples = sections.get("samples", {})
    tols = sections.get("tolerances", {})
    output = sections.get("output", {})

    n_dim = _integer(sc, "dimension", 4)
    if not 2 <= n_dim <= 8:
        raise ScenarioError(f"N must be in [2,8]; got {n_dim}")
    epsilon = _integer(sc, "signature", -1)
    if epsilon not in (1, -1):
        raise ScenarioError(f"signature must be +1 or -1; got {epsilon}")
    charge = _number(sc.get("charge", 0.0), "charge")
    seed = _seed(sc.get("seed", 0))

    suites_raw = [str(s) for s in _as_list(sc.get("suites", []))]
    for pos, name in enumerate(suites_raw):
        if name not in SUITES:
            raise ScenarioError(f"unknown suite {name!r}; known: {list(SUITES)}")
        if name in suites_raw[:pos]:
            raise ScenarioError(f"suite {name!r} is listed twice")

    kind = str(prof.get("kind", "schwarzschild_isotropic"))
    try:
        if kind == "schwarzschild_isotropic":
            profile = ProfilePair.schwarzschild_isotropic(_number(prof.get("xi", 1.0), "xi"))
        elif kind == "constant":
            profile = ProfilePair.constant(
                _number(prof.get("c0", 1.0), "c0"), _number(prof.get("m0", 1.0), "m0")
            )
        elif kind == "rational":
            if "c_coeffs" not in prof or "m_coeffs" not in prof:
                raise ScenarioError("rational profile needs c_coeffs and m_coeffs")
            profile = ProfilePair.rational(
                _numbers(prof["c_coeffs"], "c_coeffs"), _numbers(prof["m_coeffs"], "m_coeffs")
            )
        else:
            raise ScenarioError(
                f"unknown profile kind {kind!r}; known: constant, "
                "schwarzschild_isotropic, rational"
            )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from exc

    radii = _numbers(samples.get("radii", list(DEFAULT_RADII)), "radii")
    if len(radii) > MAX_COUNT:
        raise ScenarioError(f"the radii count must be <= {MAX_COUNT}; got {len(radii)} radii")
    if not radii or any(r <= profile.r_min for r in radii):
        raise ScenarioError(f"radii must be a nonempty list of radii > {profile.r_min}")
    n_points = _integer(samples, "points", 100)
    n_fibers = _integer(samples, "fibers", 100)
    if n_points < 1 or n_fibers < 1:
        raise ScenarioError("points and fibers counts must be >= 1")
    if n_points > MAX_COUNT or n_fibers > MAX_COUNT:
        raise ScenarioError(
            f"points and fibers counts must be <= {MAX_COUNT}; "
            f"got points = {n_points}, fibers = {n_fibers}"
        )

    tolerances = dict(TOLERANCE_CLASSES)
    for name, value in tols.items():
        tolerances[name] = _tolerance(name, value)

    return Scenario(
        n_dim=n_dim,
        epsilon=epsilon,
        profile=profile,
        charge=charge,
        seed=seed,
        suites=tuple(suites_raw),
        radii=radii,
        n_points=n_points,
        n_fibers=n_fibers,
        tolerances=tolerances,
        report_path=str(output["report"]) if "report" in output else None,
        dump_dir=str(output["dump_tensors"]) if "dump_tensors" in output else None,
    )
