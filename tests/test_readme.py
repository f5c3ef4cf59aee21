"""The README's command examples must match the command-line parser.

A removed or renamed flag otherwise lives on in the documentation; these
checks parse every example and look up every --flag the README mentions.
"""

import re
import shlex
from pathlib import Path

import pytest

from pesinlab.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# flags of other tools that the README quotes
FOREIGN_FLAGS = {"--no-build-isolation"}


def _sh_commands():
    blocks = re.findall(r"```sh\n(.*?)```", README, flags=re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("pesinlab ")]


def _accepted_flags():
    parser = build_parser()
    subs = next(a for a in parser._actions if a.dest == "command")
    return {flag for sub in subs.choices.values() for action in sub._actions
            for flag in action.option_strings if flag.startswith("--")}


def test_readme_has_command_examples():
    assert len(_sh_commands()) >= 5


@pytest.mark.parametrize("line", _sh_commands())
def test_readme_example_parses(line):
    args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
    assert args.func is not None


def test_readme_flags_exist():
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README))
    unknown = mentioned - _accepted_flags() - FOREIGN_FLAGS
    assert not unknown, sorted(unknown)
