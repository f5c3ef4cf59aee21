"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs ``run.py`` on every workload named in BENCHMARK.json at smoke-test size
(``--size tiny``), untraced and traced, and checks that the final line is a
correct result carrying every metric BENCHMARK.json names, with its unit, and
that the summary lines name ``failed_frac``.  Then it copies BENCHMARK.json
and the benchmark's files, without the program, into a scratch directory
and checks that the benchmark refuses to run there.  Exits 1 on the first
failed check.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_smoke"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit status {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct {result['correct']}, failed "
                      f"{result['failed']} of {result['attempted']}\n{proc.stderr}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            errors.append(f"{where}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            errors.append(f"{where}: metric {metric['name']} reads {got}, "
                          f"unit should be {metric['unit']}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{where}: undeclared metrics {sorted(extra)}")
    if not trace and not any(line.startswith("failed_frac") for line in lines):
        errors.append(f"{where}: no failed_frac line")
    return errors


def check_bare_directory(spec: dict) -> list[str]:
    bare = SCRATCH / "bare"
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"benchmark ran without the program: status {proc.returncode}, "
                f"stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_workload(spec, workload, trace)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            print(f"ok: {workload} --trace {trace}")
    errors = check_bare_directory(spec)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print("ok: refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
