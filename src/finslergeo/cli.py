"""Command-line entry point.

Subcommands:
  run <scenario-file>   execute a scenario file
  verify-vacuum         the Ricci-flatness suite for the isotropic profiles
  finsler-curvature     spray consistency and the hh-curvature bundle

Every option but --profile is a scenario entry (an option's dest names it
as "section.key"; --tolerance-class NAME=VALUE is [tolerances] NAME), read
as a scenario file reads it and validated with the file's entries.  An
option not given adds no entry: the file's value or the default stands.

Exit codes: 0 all executed suites passed, 1 at least one suite failed or
every suite was skipped, 2 configuration error.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from functools import cache
from pathlib import Path

from .scenario import (
    Scenario,
    ScenarioError,
    Sections,
    _parse_value,
    load_scenario,
    scenario_from_sections,
)
from .suites import run
from .tensors import TOLERANCE_CLASSES


def _add_common(parser: argparse.ArgumentParser) -> None:
    _option(parser, "--seed", "scenario.seed", "override the sampling seed")
    parser.add_argument(
        "--tolerance-class",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=f"override a tolerance class ({', '.join(TOLERANCE_CLASSES)}); "
        "repeatable, once per class",
    )
    parser.add_argument(
        "--dump-tensors",
        dest="output.dump_tensors",
        metavar="DIR",
        help="write per-component CSV dumps to DIR",
    )
    parser.add_argument(
        "--report", dest="output.report", metavar="PATH", help="write the JSON report to PATH"
    )


def _option(parser: argparse.ArgumentParser, flag: str, entry: str, text: str) -> None:
    """A subcommand option for the scenario entry ``entry`` ("section.key")."""
    parser.add_argument(flag, dest=entry, type=_parse_value, metavar=flag[2:].upper(), help=text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: main parses every call with it, so a
    caller running many scenarios builds it once."""
    parser = argparse.ArgumentParser(
        prog="finslergeo",
        description="Cross-validated verification runs for the radial metric "
        "family and its Finsleroid spray extension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", type=Path, help="path to the scenario file")
    _add_common(run_p)

    vac = sub.add_parser("verify-vacuum", help="Ricci-flatness of the isotropic profiles")
    _option(vac, "--xi", "profile.xi", "gravitational radius parameter")
    _option(vac, "--dimension", "scenario.dimension", "dimension N")
    _option(vac, "--radii", "samples.radii", "comma list of radii")
    _add_common(vac)

    fc = sub.add_parser(
        "finsler-curvature", help="spray consistency and the hh-curvature bundle"
    )
    _option(fc, "--charge", "scenario.charge", "Finsleroid charge g")
    _option(fc, "--samples", "samples.fibers", "number of (x, y) samples")
    _option(fc, "--dimension", "scenario.dimension", "dimension N")
    fc.add_argument(
        "--profile",
        choices=("pd-rational", "constant", "schwarzschild"),
        default="pd-rational",
        help="profile family: a positive-definite rational pair (default), "
        "flat constants, or the isotropic Schwarzschild pair (signature -1)",
    )
    _option(fc, "--xi", "profile.xi", "xi for --profile schwarzschild")
    _add_common(fc)

    return parser


_FC_PROFILES = {
    "pd-rational": ({"kind": "rational", "c_coeffs": [0.8, 0.1], "m_coeffs": [1.0, 0.2]}, 1),
    "constant": ({"kind": "constant", "c0": 0.9, "m0": 1.0}, 1),
    "schwarzschild": ({"kind": "schwarzschild_isotropic"}, -1),
}


def _overrides(args: argparse.Namespace) -> Sections:
    """The scenario entries the given options set."""
    sections: Sections = {}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            sections.setdefault(section, {})[key] = value
    tolerances = sections["tolerances"] = {}
    for item in args.tolerance_class:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep:
            raise ScenarioError(f"expected NAME=VALUE for --tolerance-class, got {item!r}")
        if name in tolerances:
            raise ScenarioError(f"duplicate --tolerance-class {name!r}")
        tolerances[name] = _parse_value(value.strip())
    return sections


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The subcommands fill the sections a scenario file would hold, and
    every option is an entry that replaces the file's or the subcommand's
    before the one validation."""
    overrides = _overrides(args)
    if args.command == "run":
        return load_scenario(args.scenario, overrides)
    if args.command == "verify-vacuum":
        sections = {
            "scenario": {"suites": ["vacuum"]},
            "profile": {"kind": "schwarzschild_isotropic"},
        }
    else:
        profile, epsilon = _FC_PROFILES[args.profile]
        sections = {
            "scenario": {"signature": epsilon, "suites": ["finsler-curvature"]},
            "profile": profile,
        }
    return scenario_from_sections(sections, overrides)


@cache
def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process (glibc's mallopt(3)).  Each
    chunk frees its temporaries and the next allocates them again; with
    glibc's defaults the freed pages go back to the kernel and are faulted
    in anew, chunk after chunk.  Below 64 MiB nothing is trimmed, and no
    block under 32 MiB is mapped on its own.  A no-op without mallopt.
    Only the command line sets this: the allocator is the whole process's,
    so the library entry ``finslergeo.run`` leaves its host's settings."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library handle or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        scenario = _scenario_from_args(args)
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(scenario)
    except OSError as exc:  # the report or dump path cannot be written
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print(report.human_summary())
    if scenario.report_path:
        print(f"report written to {scenario.report_path}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
