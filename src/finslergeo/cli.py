"""Command-line entry point.

Subcommands:
  run <scenario-file>   execute a scenario file
  verify-vacuum         the Ricci-flatness suite for the isotropic profiles
  finsler-curvature     spray consistency and the hh-curvature bundle

Exit codes: 0 all executed suites passed, 1 at least one suite failed or
every suite was skipped, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenario import (
    DEFAULT_RADII,
    Scenario,
    ScenarioError,
    load_scenario,
    scenario_from_sections,
)
from .suites import run


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    parser.add_argument(
        "--tolerance-class",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a tolerance class (exact, algebraic, closed_form, "
        "finite_difference, bundle); repeatable, once per class",
    )
    parser.add_argument(
        "--dump-tensors", metavar="DIR", default=None, help="write per-component CSV dumps"
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None, help="write the JSON report to PATH"
    )


def _parse_tolerance_overrides(items: list[str]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise ScenarioError(f"expected NAME=VALUE for --tolerance-class, got {item!r}")
        name = name.strip()
        if name in overrides:
            raise ScenarioError(f"duplicate --tolerance-class {name!r}")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise ScenarioError(f"bad tolerance value in {item!r}") from exc
    return overrides


def _parse_radii(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ScenarioError(f"bad radii list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
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
    vac.add_argument("--xi", type=float, default=1.0, help="gravitational radius parameter")
    vac.add_argument("--dimension", type=int, default=4)
    vac.add_argument(
        "--radii", default=",".join(str(r) for r in DEFAULT_RADII), help="comma list of radii"
    )
    _add_common(vac)

    fc = sub.add_parser(
        "finsler-curvature", help="spray consistency and the hh-curvature bundle"
    )
    fc.add_argument("--charge", type=float, default=0.0, help="Finsleroid charge g")
    fc.add_argument("--samples", type=int, default=100, help="number of (x, y) samples")
    fc.add_argument("--dimension", type=int, default=4)
    fc.add_argument(
        "--profile",
        choices=("pd-rational", "constant", "schwarzschild"),
        default="pd-rational",
        help="profile family: a positive-definite rational pair (default), "
        "flat constants, or the isotropic Schwarzschild pair (signature -1)",
    )
    fc.add_argument("--xi", type=float, default=1.0, help="xi for --profile schwarzschild")
    _add_common(fc)

    return parser


_FC_PROFILES = {
    "pd-rational": ({"kind": "rational", "c_coeffs": [0.8, 0.1], "m_coeffs": [1.0, 0.2]}, 1),
    "constant": ({"kind": "constant", "c0": 0.9, "m0": 1.0}, 1),
    "schwarzschild": ({"kind": "schwarzschild_isotropic"}, -1),
}


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The subcommands fill the sections a scenario file would hold and go
    through the same validation as ``run``."""
    if args.command == "run":
        return load_scenario(args.scenario)
    if args.command == "verify-vacuum":
        return scenario_from_sections(
            {
                "scenario": {"dimension": args.dimension, "signature": -1, "suites": ["vacuum"]},
                "profile": {"kind": "schwarzschild_isotropic", "xi": args.xi},
                "samples": {"radii": _parse_radii(args.radii)},
            }
        )
    if args.command == "finsler-curvature":
        profile, epsilon = _FC_PROFILES[args.profile]
        if args.profile == "schwarzschild":
            profile = {**profile, "xi": args.xi}
        return scenario_from_sections(
            {
                "scenario": {
                    "dimension": args.dimension,
                    "signature": epsilon,
                    "charge": args.charge,
                    "suites": ["finsler-curvature"],
                },
                "profile": profile,
                "samples": {"fibers": args.samples},
            }
        )
    raise ScenarioError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _scenario_from_args(args)
        scenario = scenario.with_overrides(
            seed=args.seed,
            tolerance_overrides=_parse_tolerance_overrides(args.tolerance_class),
            dump_dir=args.dump_tensors,
            report_path=args.report,
        )
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
