"""Declarative scenario files for the verification runner.

Grammar (INI-style, documented in the README):

    # a '#' at line start or after whitespace starts a comment
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
non-finite number, a repeated suite, a profile key of another kind, an
empty output path) are validation errors naming the constraint.  The
``[output]`` paths are taken verbatim; every other value is a number, a
word or a comma list of them.  A '#' inside a value (``report = out#1.json``)
is part of it.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .profiles import PROFILE_KINDS, ProfilePair
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

_COMMENT = re.compile(r"(?:^|\s)#.*")

# Scenario entries by section, {section: {key: value}}, as the grammar parses them.
Sections = dict[str, dict[str, object]]

_SECTION_KEYS = {
    "scenario": {
        "dimension",
        "signature",
        "charge",
        "seed",
        "suites",
    },
    "profile": {"kind"}.union(*PROFILE_KINDS.values()),
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
    profile: ProfilePair = field(default_factory=ProfilePair.schwarzschild_isotropic)
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
    return value if isinstance(value, (list, tuple)) else [value]


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


def parse_scenario(text: str, overrides: Sections | None = None) -> Scenario:
    """Parse and validate scenario file contents into a Scenario; the
    entries of ``overrides`` (as in ``scenario_from_sections``) replace
    the file's."""
    sections: Sections = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
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
        value = value.strip()
        sections[current][key] = value if current == "output" else _parse_value(value)
    return scenario_from_sections(sections, overrides)


def load_scenario(path: str | Path, overrides: Sections | None = None) -> Scenario:
    """Parse a scenario file to run, with ``overrides`` as in
    ``parse_scenario``: unlike a parsed fragment, it must list at least one
    suite, or the run would verify nothing."""
    scenario = parse_scenario(Path(path).read_text(encoding="utf-8"), overrides)
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


def _path(output: dict, key: str) -> str | None:
    value = output.get(key)
    if value is not None and not (isinstance(value, str) and value):
        raise ScenarioError(f"[output] {key} must be a nonempty path; got {value!r}")
    return value


def scenario_from_sections(sections: Sections, overrides: Sections | None = None) -> Scenario:
    """Validate parsed sections into a Scenario.  The entries of
    ``overrides`` replace those of ``sections`` first.  Every entry
    point builds its Scenario here, so one set of rules decides what runs,
    and an entry not given takes the default of its ``Scenario`` field (of
    its ``ProfilePair`` constructor, for a profile key)."""
    sections = dict(sections)
    for name, entries in (overrides or {}).items():
        sections[name] = {**sections.get(name, {}), **entries}
    for name, section in sections.items():
        _check_known(name, section)
    sc = sections.get("scenario", {})
    prof = sections.get("profile", {})
    samples = sections.get("samples", {})
    output = sections.get("output", {})
    default = Scenario()

    n_dim = _integer(sc, "dimension", default.n_dim)
    if not 2 <= n_dim <= 8:
        raise ScenarioError(f"N must be in [2,8]; got {n_dim}")
    epsilon = _integer(sc, "signature", default.epsilon)
    if epsilon not in (1, -1):
        raise ScenarioError(f"signature must be +1 or -1; got {epsilon}")
    charge = _number(sc.get("charge", default.charge), "charge")
    if epsilon == 1 and abs(charge) >= 2.0:
        raise ScenarioError(
            f"charge must be in (-2, 2) at signature +1, where the Finsleroid needs "
            f"h = sqrt(1 - g^2/4) > 0; got {charge!r}"
        )
    seed = sc.get("seed", default.seed)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioError(f"seed must be an integer >= 0; got {seed!r}")

    suites_raw = [str(s) for s in _as_list(sc.get("suites", default.suites))]
    for pos, name in enumerate(suites_raw):
        if name not in SUITES:
            raise ScenarioError(f"unknown suite {name!r}; known: {list(SUITES)}")
        if name in suites_raw[:pos]:
            raise ScenarioError(f"suite {name!r} is listed twice")

    kind = str(prof.get("kind", default.profile.kind))
    keys = PROFILE_KINDS.get(kind)
    if keys is None:
        raise ScenarioError(f"unknown profile kind {kind!r}; known: {', '.join(PROFILE_KINDS)}")
    params = {}
    for key, value in prof.items():
        if key == "kind":
            continue
        if key not in keys:
            raise ScenarioError(
                f"key {key!r} does not apply to profile kind {kind!r}; it takes {', '.join(keys)}"
            )
        params[key] = (_numbers if key.endswith("_coeffs") else _number)(value, key)
    try:
        profile = getattr(ProfilePair, kind)(**params)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    radii = _numbers(samples.get("radii", default.radii), "radii")
    if len(radii) > MAX_COUNT:
        raise ScenarioError(f"the radii count must be <= {MAX_COUNT}; got {len(radii)} radii")
    if not radii or any(r <= profile.r_min for r in radii):
        raise ScenarioError(f"radii must be a nonempty list of radii > {profile.r_min}")
    n_points = _integer(samples, "points", default.n_points)
    n_fibers = _integer(samples, "fibers", default.n_fibers)
    if n_points < 1 or n_fibers < 1:
        raise ScenarioError("points and fibers counts must be >= 1")
    if n_points > MAX_COUNT or n_fibers > MAX_COUNT:
        raise ScenarioError(
            f"points and fibers counts must be <= {MAX_COUNT}; "
            f"got points = {n_points}, fibers = {n_fibers}"
        )

    tolerances = dict(default.tolerances)
    for name, value in sections.get("tolerances", {}).items():
        value = _number(value, f"tolerance {name}")
        if not value > 0.0:
            raise ScenarioError(f"tolerance {name} must be > 0, got {value}")
        tolerances[name] = value

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
        report_path=_path(output, "report"),
        dump_dir=_path(output, "dump_tensors"),
    )
