"""The package names that the benchmark's tracer looks up must exist.

perfbench/tracing.py wraps functions by (module, name) and TorusMap fields
by attribute name; a rename or deletion there only shows up in a traced
benchmark run, so these checks keep it in the fast suite.
"""

import dataclasses
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import pesinlab
from pesinlab import MAP_NAMES, make_map

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for module, func, _ in _tracing().TARGETS:
        target = getattr(importlib.import_module(f"pesinlab.{module}"), func, None)
        assert callable(target), f"pesinlab.{module}.{func}"


@pytest.mark.parametrize("name", MAP_NAMES)
def test_traced_map_fields_survive_replace(name):
    m = make_map(name)
    for attr, _ in _tracing().MAP_FIELDS:
        original = getattr(m, attr)
        assert callable(original), f"{name}.{attr}"

        def wrapped(*args, **kwargs):
            return original(*args, **kwargs)
        replaced = dataclasses.replace(m, **{attr: wrapped})
        assert getattr(replaced, attr) is wrapped
        assert replaced.jacobian == m.jacobian


def test_exported_names_resolve():
    for name in pesinlab.__all__:
        assert hasattr(pesinlab, name), name


def test_public_names_are_exported():
    # from pesinlab import * and the check above only see what __all__ lists
    public = {name for name, value in vars(pesinlab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(pesinlab.__all__), sorted(public - set(pesinlab.__all__))
