"""Regenerate tests/cli_manifest.json, the pinned results of CLI runs.

    python3 tests/regen_cli_manifest.py

Runs every command line of COMMANDS in process through ``cli.main``, each
with a fresh ``--out`` directory, and records its exit code, stdout, stderr
and the sha256 of every file it wrote.  Rewrites the manifest and prints a
unified diff against the old one, so a change to any output shows as a
reviewable diff; no diff means the outputs are unchanged.
tests/test_cli_manifest.py replays the manifest.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "cli_manifest.json"

# small sizes, each well under a second in process
COMMANDS = (
    ["lyapunov", "--map", "cat", "--steps", "2000", "--seed", "5"],
    ["ks-entropy", "--map", "baker", "--grid", "2x1", "--depth", "6",
     "--include-words", "--seed", "1"],
    # 20,000 samples over 16 cells: two Monte Carlo tiles
    ["ks-entropy", "--map", "cat", "--grid", "4x4", "--depth", "4",
     "--mode", "mc", "--mc-samples", "20000", "--seed", "2"],
    ["ks-entropy", "--map", "cat", "--ladder", "2x2,4x4", "--depth", "4",
     "--mode", "mc", "--mc-samples", "5000", "--seed", "3",
     "--format", "json"],
    ["pesin", "--map", "cat", "--depth", "4", "--lyap-steps", "1000",
     "--seed", "1"],
    # the deepest depths run in tiles of whole words
    ["prescription", "--source", "classical", "--map", "baker",
     "--grid", "2x1", "--depth", "16", "--seed", "1"],
    # the same tiles with summary records
    ["ks-entropy", "--map", "baker", "--grid", "2x1", "--depth", "16",
     "--seed", "1"],
    # refused at the exact word cap after the depth 0 and 1 lines
    ["ks-entropy", "--map", "cat", "--grid", "8x8", "--depth", "8",
     "--mode", "exact", "--seed", "1"],
    # full records over three Monte Carlo tiles, the last run by a forked
    # child, which sends its codes
    ["prescription", "--source", "classical", "--map", "cat", "--grid", "4x4",
     "--depth", "8", "--mode", "mc", "--mc-samples", "40000",
     "--word-budget", "256", "--seed", "2"],
    ["prescription", "--source", "gamow", "--cells", "3", "--depth", "12",
     "--word-budget", "256", "--seed", "4"],
    ["gamow-evolve", "--n-max", "24", "--cells", "2", "--j", "7",
     "--seed", "6"],
    # refused before any operator is drawn
    ["gamow-evolve", "--n-max", "20000", "--seed", "0"],
    # one format each: JSON with no plot script, CSV with it, a CSV row
    ["prescription", "--source", "gamow", "--cells", "2", "--depth", "8",
     "--word-budget", "64", "--seed", "3", "--format", "json"],
    ["prescription", "--source", "classical", "--map", "baker",
     "--grid", "2x1", "--depth", "8", "--seed", "3", "--format", "csv"],
    ["lyapunov", "--map", "baker", "--steps", "1000", "--seed", "2",
     "--format", "csv"],
    # pesin's ladder document
    ["pesin", "--map", "baker", "--ladder", "2x1,4x2", "--depth", "6",
     "--lyap-steps", "1000", "--seed", "1"],
    # refused: a ladder entry that is no grid, words asked of a ladder,
    # (0,0) weights summing above 1 at depth 0, an off-(0,0) mass ratio
    # past a double, and an onset that leaves fewer than 4 tail points
    ["ks-entropy", "--map", "baker", "--ladder", "2x1,abc"],
    ["ks-entropy", "--map", "baker", "--ladder", "2x1,4x2",
     "--include-words"],
    ["prescription", "--source", "gamow", "--cells", "3", "--depth", "8",
     "--word-budget", "64", "--total-mass", "1.0", "--seed", "0"],
    ["gamow-evolve", "--off-scale", "1e300", "--n-max", "8"],
    ["prescription", "--source", "gamow", "--cells", "2", "--depth", "8",
     "--word-budget", "64", "--onset", "6"],
    # the Monte Carlo estimators other than the default chao_shen
    *(["ks-entropy", "--map", "cat", "--grid", "4x4", "--depth", "4",
       "--mode", "mc", "--mc-samples", "5000", "--seed", "1",
       "--estimator", name]
      for name in ("plugin", "miller_madow", "grassberger")),
    # a relaxation time past the doubles: the fits start halfway, and
    # gamow-evolve, which reports it, is refused
    ["prescription", "--source", "gamow", "--cells", "2", "--depth", "8",
     "--alpha", "1e-300", "--gamma0", "1e-300"],
    ["gamow-evolve", "--hbar", "1e300", "--gamma0", "1e-300"],
)


def run_entry(argv: list[str], out_dir: Path) -> dict:
    """One manifest entry: argv run with --out out_dir."""
    from pesinlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(out_dir)])
    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in files}}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        entries = [run_entry(argv, Path(tmp) / str(i))
                   for i, argv in enumerate(COMMANDS)]
    new = json.dumps(entries, indent=1) + "\n"
    old = MANIFEST.read_text() if MANIFEST.exists() else ""
    MANIFEST.write_text(new)
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        "cli_manifest.json (old)", "cli_manifest.json (new)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
