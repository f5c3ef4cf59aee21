"""Every configuration the command line accepts finishes or exits 2.

A hypothesis property over the int, float, choice and switch rows of
cli.PARAMS.  It draws a command, its required choice (map or source) and
up to three more of its rows, each set to one of the row's low, high and
choices, or 0, 2^31, 2^63, +-1e300 or +-1e-300 (switches draw true or
false; an integral float reaches an int row as that integer).  The config
goes to a --config file, and pesinlab.cli runs as __main__ in a child
process, one at a time, under a timeout and an address-space limit of
limits.BYTES_CAP plus 1 GiB.  A run must exit 0 with finite outputs, or
exit 2 with an `error:` line and no output file.

The text rows, grid and ladder, are not drawn: a grid's depth-0 cells
are bounded (limits.check_cells), but an exact run's depth 1 on a huge
grid, such as --grid 1000x1000, has no up-front bound yet (ROADMAP item
3); the examples hold two grids whose depth 0 alone tops the cap.
Examples are derandomized and few, so the test costs tier-1 well under a
minute.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pesinlab import cli, limits

SRC = Path(__file__).resolve().parents[1] / "src"
EXTREMES = (0, 2 ** 31, 2 ** 63, 1e300, -1e300, 1e-300, -1e-300)
DRAWN = ("int", "float", "choice", "switch")
COMMANDS = sorted({c for p in cli.PARAMS for c in p.commands})
# the longest admitted run is a 10^7-step Lyapunov orbit, about 14 s
TIMEOUT_S = 120


def _values(p):
    if p.kind == "switch":
        return [True, False]
    if p.kind == "choice":
        return list(p.choices)
    return [v for v in (p.low, p.high) if v is not None] + list(EXTREMES)


@st.composite
def configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    rows = [p for p in cli.PARAMS if command in p.commands and p.kind in DRAWN]
    # the commands' required choices always, and up to three other rows:
    # with more, nearly every run would stop at its first refused value
    drawn = [p for p in rows if p.key in ("map", "source")]
    drawn += draw(st.lists(st.sampled_from(rows), max_size=3,
                           unique_by=lambda p: p.key))
    return command, {p.key: draw(st.sampled_from(_values(p))) for p in drawn}


# the child limits its own address space before it imports anything, so
# no fork hook runs in this process, whose BLAS threads may hold locks
CHILD = ("import resource, runpy; cap = {cap}; "
         "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
         "runpy.run_module('pesinlab.cli', run_name='__main__')"
         ).format(cap=limits.BYTES_CAP + 2 ** 30)


def _reject(token):
    raise ValueError(f"non-finite JSON number {token}")


def _assert_finite(path):
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=_reject)
    elif path.suffix == ".csv":
        for cell in re.split(r"[,\n]", text):
            try:
                assert math.isfinite(float(cell)), (path.name, cell)
            except ValueError:
                pass                    # a header or a label


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
# a need past the doubles once failed to print, a step count or a
# dimension past them failed to convert, and an off-(0,0) mass ratio past
# them failed to serialize, all with exit 1
@example(("prescription", {"source": "gamow", "n_max": 1e300, "cells": 1e300}))
@example(("gamow-evolve", {"j": 10 ** 400}))
@example(("gamow-evolve", {"n_max": 10 ** 400}))
@example(("gamow-evolve", {"off_scale": 1e300}))
# a relaxation time past the doubles failed to round to a fit onset, and
# failed to serialize, with exit 1; a grid of 10^10 cells ran out of
# memory at depth 0 with exit 1 here, and was killed outside this child
@example(("prescription", {"source": "gamow", "alpha": 1e-300,
                           "gamma0": 1e-300}))
@example(("gamow-evolve", {"hbar": 1e300, "gamma0": 1e-300}))
@example(("ks-entropy", {"map": "baker", "grid": "100000x100000"}))
@example(("ks-entropy", {"map": "baker", "grid": "100000x100000",
                         "mode": "mc"}))
def test_accepted_configs_finish_or_exit_2(tmp_path_factory, drawn):
    command, cfg = drawn
    work = tmp_path_factory.mktemp("contract")
    config, out = work / "config.json", work / "out"
    config.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, command, "--config", str(config),
         "--out", str(out)],
        capture_output=True, text=True, timeout=TIMEOUT_S,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    written = sorted(out.iterdir()) if out.exists() else []
    context = (command, cfg, proc.returncode, proc.stderr[-2000:])
    if proc.returncode == 2:
        assert re.search(r"^error: ", proc.stderr, re.M), context
        assert not written, context
        return
    assert proc.returncode == 0, context
    if cfg.get("format", "both") != "csv":
        assert out / f"{command.replace('-', '_')}.json" in written, context
    for path in written:
        _assert_finite(path)
