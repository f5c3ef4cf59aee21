"""The README's command examples and names must match the package.

A removed or renamed flag or function otherwise lives on in the
documentation; these checks parse every example, look up every --flag the
README mentions, and resolve every `module.name` of a pesinlab module.
"""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import pesinlab
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


def test_readme_module_names_resolve():
    modules = {m.name for m in pkgutil.iter_modules(pesinlab.__path__)}
    named = [(mod, attr) for mod, attr
             in re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)`", README)
             if mod in modules]
    assert len(named) >= 8
    missing = [f"{mod}.{attr}" for mod, attr in named
               if not hasattr(importlib.import_module(f"pesinlab.{mod}"), attr)]
    assert not missing, missing
