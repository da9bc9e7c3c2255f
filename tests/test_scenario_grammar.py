"""Property tests for the scenario grammar: generated valid files parse to
the Scenario they describe, and generated invalid values are always a
ScenarioError, never another exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslergeo import ScenarioError, parse_scenario
from finslergeo.scenario import MAX_COUNT, SUITES
from finslergeo.tensors import TOLERANCE_CLASSES

GRAMMAR = settings(max_examples=60, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)


def _text(sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def _value(value) -> str:
    """The grammar's spelling of a generated value."""
    if isinstance(value, (list, tuple)):
        return ", ".join(_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def profiles(draw):
    """A (kind, params, r_min) triple the profile constructors accept."""
    kind = draw(st.sampled_from(["schwarzschild_isotropic", "constant", "rational"]))
    if kind == "schwarzschild_isotropic":
        xi = draw(positive)
        return kind, {"xi": xi}, xi / 4.0
    if kind == "constant":
        return kind, {"c0": draw(positive), "m0": draw(finite.filter(bool))}, 0.0
    coeffs = st.lists(finite, min_size=1, max_size=4)
    return kind, {"c_coeffs": draw(coeffs), "m_coeffs": draw(coeffs)}, 0.0


@st.composite
def valid_scenarios(draw):
    """Scenario text with every key set, and the echo it must give."""
    kind, params, r_min = draw(profiles())
    lowest = r_min if r_min > 0.0 else 1e-300
    radii = draw(st.lists(st.floats(min_value=lowest, exclude_min=r_min > 0.0,
                                    allow_infinity=False), min_size=1, max_size=5))
    tolerances = draw(st.dictionaries(st.sampled_from(sorted(TOLERANCE_CLASSES)), positive))
    echo = {
        "dimension": draw(st.integers(2, 8)),
        "signature": draw(st.sampled_from([1, -1])),
        "profile": {"kind": kind, "params": params},
        "charge": draw(finite),
        "seed": draw(st.integers(0, 2**64)),
        "suites": draw(st.lists(st.sampled_from(SUITES), min_size=1, unique=True)),
        "radii": radii,
        "points": draw(st.integers(1, MAX_COUNT)),
        "fibers": draw(st.integers(1, MAX_COUNT)),
        "tolerances": dict(sorted({**TOLERANCE_CLASSES, **tolerances}.items())),
    }
    sections = {
        "scenario": {
            key: _value(echo[key])
            for key in ("dimension", "signature", "charge", "seed", "suites")
        },
        "profile": {"kind": kind, **{k: _value(v) for k, v in params.items()}},
        "samples": {key: _value(echo[key]) for key in ("radii", "points", "fibers")},
        "tolerances": {name: _value(v) for name, v in tolerances.items()},
    }
    return _text(sections), echo


BASE = {"scenario": {"suites": "vacuum"}, "profile": {"kind": "schwarzschild_isotropic"}}


def _with(section: str, key: str, value: str, base=BASE) -> str:
    sections = {name: dict(entries) for name, entries in base.items()}
    sections.setdefault(section, {})[key] = value
    return _text(sections)


def _rejected(text: str) -> None:
    with pytest.raises(ScenarioError):
        parse_scenario(text)


@GRAMMAR
@given(valid_scenarios())
def test_valid_text_round_trips_through_echo(case):
    text, echo = case
    assert parse_scenario(text).echo() == echo


non_finite = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "-INF"]),
    st.integers(309, 400).map(lambda digits: "9" * digits),  # too large for a float
)


@GRAMMAR
@given(
    slot=st.sampled_from([("scenario", "charge"), ("profile", "xi"),
                          ("tolerances", "bundle"), ("tolerances", "exact")]),
    bad=non_finite,
)
def test_non_finite_numbers_are_rejected(slot, bad):
    _rejected(_with(*slot, bad))


radius_lists = st.lists(st.floats(min_value=300.0, max_value=1e4), max_size=3)


@GRAMMAR
@given(bad=non_finite, good=radius_lists, at=st.integers(0, 3))
def test_non_finite_radius_anywhere_in_the_list_is_rejected(bad, good, at):
    _rejected(_with("samples", "radii", _value([*good[:at], bad, *good[at:]])))


@GRAMMAR
@given(
    kind=st.sampled_from(["constant", "rational"]),
    bad=non_finite,
)
def test_non_finite_profile_coefficients_are_rejected(kind, bad):
    base = {"scenario": {"suites": "vacuum"}, "profile": {"kind": kind}}
    if kind == "constant":
        _rejected(_with("profile", "c0", bad, base))
        _rejected(_with("profile", "m0", bad, base))
    else:
        with_m = {**base, "profile": {"kind": kind, "m_coeffs": "1.0"}}
        with_c = {**base, "profile": {"kind": kind, "c_coeffs": "0.8"}}
        _rejected(_with("profile", "c_coeffs", f"0.8, {bad}", with_m))
        _rejected(_with("profile", "m_coeffs", bad, with_c))


@GRAMMAR
@given(
    slot=st.sampled_from([("scenario", "dimension"), ("scenario", "signature"),
                          ("scenario", "seed"), ("samples", "points"), ("samples", "fibers")]),
    bad=st.one_of(finite.map(repr), words, st.sampled_from(["true", "false", "1, 2"])),
)
def test_non_integer_counts_are_rejected(slot, bad):
    _rejected(_with(*slot, bad))


@GRAMMAR
@given(
    key=st.sampled_from(["points", "fibers"]),
    count=st.one_of(st.integers(MAX_COUNT + 1, 10**6), st.integers(MAX_COUNT + 1)),
)
def test_counts_above_the_cap_are_rejected(key, count):
    """Every sample is drawn and evaluated, so a count beyond MAX_COUNT
    (any number of digits) is refused instead of running for ever."""
    _rejected(_with("samples", key, str(count)))


@GRAMMAR
@given(seed=st.integers(max_value=-1))
def test_negative_seeds_are_rejected(seed):
    _rejected(_with("scenario", "seed", str(seed)))


@GRAMMAR
@given(
    xi=st.floats(min_value=1e-3, max_value=1e3),
    fraction=st.floats(min_value=-10.0, max_value=1.0),
    good=radius_lists,
    at=st.integers(0, 3),
)
def test_radii_outside_the_domain_are_rejected(xi, fraction, good, at):
    """A radius at or inside the Schwarzschild pole r = xi/4 (or <= 0 for the
    other kinds), anywhere in the list, is rejected."""
    base = {"scenario": {"suites": "vacuum"},
            "profile": {"kind": "schwarzschild_isotropic", "xi": repr(xi)}}
    radii = [*good[:at], fraction * xi / 4.0, *good[at:]]
    _rejected(_with("samples", "radii", _value(radii), base))
    flat = {"scenario": {"suites": "vacuum"}, "profile": {"kind": "constant"}}
    radii = [*good[:at], min(fraction, 0.0), *good[at:]]
    _rejected(_with("samples", "radii", _value(radii), flat))
