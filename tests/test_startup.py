"""Each command loads only the modules it runs.

Every check runs in a fresh interpreter, since this test process has long
loaded the whole package.  A module the CLI defers sits in sys.modules
before its first use, but its code has not run: the name that the module
defines is not yet in its namespace, read without triggering the load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# a name each module's code defines
DEFINES = {"errors": "ConfigurationError", "limits": "BYTES_CAP",
           "geometry": "clip_to_rect", "maps": "make_map",
           "forking": "stream", "partitions": "refine_series",
           "serialize": "write_json", "cli": "main",
           "lyapunov": "lyapunov_spectrum", "gamow": "GamowSpec",
           "pipeline": "prescription_run", "symbols": "PolySymbol"}

PROBE = """
import json
import sys

def loaded():
    ran = {}
    for name, defined in DEFINES.items():
        module = sys.modules.get("pesinlab." + name)
        ran[name] = module is not None and defined in object.__getattribute__(
            module, "__dict__")
    ran.update({name: name in sys.modules
                for name in ("numpy", "fractions", "decimal")})
    return ran

import pesinlab.cli

report = [loaded()]
for argv in ARGVS:
    code = pesinlab.cli.main(argv)
    report.append(dict(loaded(), exit=code))
print(json.dumps(report))
"""


def _loaded_after(argvs, tmp_path):
    """What had run after import pesinlab.cli, then after each argv."""
    argvs = [argv + ["--out", str(tmp_path / str(i))]
             for i, argv in enumerate(argvs)]
    code = f"DEFINES = {DEFINES!r}\nARGVS = {argvs!r}\n{PROBE}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


ENTROPY_SIDE = ("errors", "limits", "geometry", "maps", "forking",
                "partitions", "serialize", "cli", "numpy")
DEFERRED = ("lyapunov", "gamow", "pipeline", "symbols", "fractions",
            "decimal")


@pytest.mark.parametrize("argv", [
    ["ks-entropy", "--map", "baker", "--grid", "2x1", "--depth", "5"],
    ["ks-entropy", "--map", "cat", "--grid", "2x2", "--depth", "4",
     "--mode", "mc", "--mc-samples", "2000"],
])
def test_ks_entropy_runs_no_operator_lyapunov_or_symbol_code(tmp_path, argv):
    imported, ran = _loaded_after([argv], tmp_path)
    assert ran.pop("exit") == 0
    for stage in (imported, ran):
        assert all(stage[name] for name in ENTROPY_SIDE), stage
        assert not any(stage[name] for name in DEFERRED), stage


def test_classical_prescription_runs_no_operator_code(tmp_path):
    _, ran = _loaded_after([["prescription", "--source", "classical",
                             "--map", "baker", "--grid", "2x1",
                             "--depth", "8"]], tmp_path)
    assert ran["exit"] == 0 and ran["pipeline"]
    assert not ran["gamow"] and not ran["lyapunov"] and not ran["symbols"]


def test_each_command_runs_what_it_uses(tmp_path):
    stages = _loaded_after([
        ["lyapunov", "--map", "cat", "--steps", "200"],
        ["gamow-evolve", "--n-max", "4", "--cells", "2"],
        ["prescription", "--source", "gamow", "--cells", "2", "--depth", "8",
         "--word-budget", "16"],
    ], tmp_path)
    assert [stage.pop("exit") for stage in stages[1:]] == [0, 0, 0]
    ran = [{name for name, done in stage.items() if done}
           for stage in stages[1:]]
    assert "lyapunov" in ran[0] and "gamow" not in ran[0]
    assert "gamow" in ran[1] and "pipeline" not in ran[1]
    assert "pipeline" in ran[2] and "symbols" not in ran[2]


def test_package_names_load_their_module_on_first_use():
    code = ("import sys, pesinlab\n"
            "before = [m for m in sys.modules if m.startswith('pesinlab.')]\n"
            "pesinlab.PolySymbol\n"
            "print(before, 'pesinlab.symbols' in sys.modules, "
            "'pesinlab.gamow' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True", "False"]
