"""The package loads OpenBLAS on one thread unless the caller says otherwise,
and no output depends on the BLAS thread count."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import os
import pesinlab.cli
print(len(os.listdir("/proc/self/task")),
      os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _env(threads):
    """This environment with pesinlab on the path and OPENBLAS_NUM_THREADS
    set to threads, or removed when threads is None."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_importing_the_cli_starts_no_blas_worker():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=_env(None), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_a_callers_blas_thread_count_wins():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=_env("3"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "3"


def _output_hashes(args, out, threads):
    proc = subprocess.run(
        [sys.executable, "-m", "pesinlab.cli", *args, "--out", str(out)],
        capture_output=True, text=True, env=_env(threads), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("args", [
    # 4096 words: the fit's product is large enough to thread
    ["prescription", "--source", "gamow", "--cells", "4", "--depth", "24",
     "--seed", "3"],
    ["prescription", "--source", "classical", "--map", "baker",
     "--grid", "2x1", "--depth", "8", "--seed", "3"],
])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, args):
    one = _output_hashes(args, tmp_path / "one", "1")
    two = _output_hashes(args, tmp_path / "two", "2")
    assert one and one == two
