"""The README stays in step with the code: every scenario example in it
parses, its CLI block lists every option of every subcommand, and its
section on residual scales names every check."""

import argparse
import re
from pathlib import Path

import pytest

from finslergeo.cli import build_parser
from finslergeo.scenario import SUITES, parse_scenario
from finslergeo.suites import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("block", _fenced("ini"))
def test_every_ini_block_parses(block):
    parse_scenario(block)


def test_cli_block_lists_every_option_of_each_subcommand():
    """Each subcommand's usage in the README CLI block (from its
    ``finslergeo NAME`` line to the next one) names each of its options."""
    (cli,) = [block for block in _fenced("sh") if "finslergeo run" in block]
    usages = dict(re.findall(r"^finslergeo (\S+)(.*?)(?=^finslergeo |\Z)", cli, re.M | re.S))
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    missing = [
        f"{name} {option}"
        for name, parser in commands.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help") and option not in usages.get(name, "")
    ]
    assert not missing, f"README CLI block misses: {', '.join(missing)}"


def _every_check_name() -> set[str]:
    """Each suite's check names, from one small run of all seven suites on
    the Schwarzschild profile at charge 0.3 and one at charge 0 (which adds
    riemann_limit)."""
    names = set()
    for charge in (0.3, 0.0):
        scenario = parse_scenario(
            f"[scenario]\ndimension = 4\nsignature = -1\ncharge = {charge}\n"
            f"suites = {', '.join(SUITES)}\n[profile]\nkind = schwarzschild_isotropic\n"
            "[samples]\nradii = 1, 2\npoints = 2\nfibers = 2\n"
        )
        for suite in run(scenario).suites:
            assert suite.checks, (suite.name, suite.status, suite.reason)
            names |= {check.name for check in suite.checks}
    return names


def test_residual_scale_section_names_every_check():
    """Every check of every suite is named in "Checks judged on their
    operands' scale", with its operands, its own rule or among the
    rel_frobenius oracle checks, so the section cannot drift."""
    section = README.split("### Checks judged on their operands' scale")[1].split("\n#")[0]
    named = set(re.findall(r"`(\w+)`", section))
    names = _every_check_name()
    assert {"riemann_limit", "ricci_scaled", "e_fiber_derivative_fd"} <= names
    assert not names - named, f"README misses: {', '.join(sorted(names - named))}"
