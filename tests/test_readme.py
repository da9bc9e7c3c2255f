"""The README stays in step with the code: every scenario example in it
parses, and its CLI block lists every option of every subcommand."""

import argparse
import re
from pathlib import Path

import pytest

from finslergeo.cli import build_parser
from finslergeo.scenario import parse_scenario

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
