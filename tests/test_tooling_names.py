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
from pesinlab import MAP_NAMES, GridPartition, McConfig, make_map, refine_series

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


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_refine_series_returns_what_the_refined_hook_reads(mode):
    # the tracer's refined hook is handed refine_series' return value after
    # the call: it counts each record's nonempty_words and, in mc mode,
    # reads meta["n_samples"] of the first record, so the value must be a
    # list, which a generator spent by the hook would not leave the caller;
    # summary records (words=False), which the CLI's entropy commands get,
    # keep both
    args = (make_map("baker"), GridPartition(2, 1), 3, mode, McConfig(100))
    for words in (True, False):
        tracing = _tracing()
        tracer = tracing.Tracer()
        recs = refine_series(*args, words=words)
        assert type(recs) is list
        tracing._hooks(tracer)["partitions.refine_series"](recs, args, {})
        assert tracer.words_per_depth == [r.nonempty_words for r in recs]
        assert tracer.counts["partitions.words_total"] == sum(
            tracer.words_per_depth)
        if mode == "mc":
            assert tracer.counts["partitions.mc.sample_steps"] == 100 * 3
