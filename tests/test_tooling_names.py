"""The package names that the benchmark's tracer looks up must exist.

perfbench/tracing.py wraps functions by (module, name) and TorusMap fields
by attribute name; a rename or deletion there only shows up in a traced
benchmark run, so these checks keep it in the fast suite.
"""

import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pesinlab
from pesinlab import MAP_NAMES, GridPartition, McConfig, make_map, refine_series

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


TRACED_RUN = """
import json
import tracing

tracer = tracing.Tracer()
main = tracing.install(tracer)
codes = [main(argv) for argv in ARGVS]
print(json.dumps({"codes": codes,
                  "calls": {name: stat[0]
                            for name, stat in tracer.stats.items()}}))
"""


def test_tracer_reaches_the_commands_modules(tmp_path):
    # the tracer finds its targets in sys.modules right after importing
    # pesinlab.cli, in a fresh interpreter as the benchmark runs it, so the
    # modules the CLI loads on first use must be there and traced too
    argvs = [["ks-entropy", "--map", "cat", "--grid", "4x4", "--depth", "4",
              "--out", str(tmp_path / "ks")],
             ["prescription", "--source", "gamow", "--cells", "2",
              "--depth", "8", "--word-budget", "16",
              "--out", str(tmp_path / "presc")]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(TRACING.parent), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c",
                           f"ARGVS = {argvs!r}\n{TRACED_RUN}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    calls = result["calls"]
    for name in ("partitions.refine_series", "pipeline.prescription_run",
                 "gamow.make_cell_operators"):
        assert calls[name] >= 1, (name, calls)
