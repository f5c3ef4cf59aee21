"""End-to-end benchmark of the pesinlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and builds nothing.  Each invocation of the CLI is a fresh
interpreter (``perfbench/child.py``), and one child runs at a time.  Within
one run the benchmark:

1. imports ``pesinlab.cli`` once to warm the bytecode cache, then five more
   times, timing exec to import done (``setup_s``);
2. invokes the workload's command repeatedly for about ``--seconds``
   seconds: it starts another invocation while at least half of the last
   one still fits.  Every invocation's outputs are checked, and must be
   byte-identical to the first invocation's;
3. with ``--trace 1``, first makes one extra traced invocation (see
   tracing.py), outside the timed set, for the per-layer metrics.

End-to-end metrics (``--trace 0``), medians over the invocations of the run:

* ``wall_s``: exec to exit of one invocation, the user's time to verdict;
* ``setup_s``: exec until ``import pesinlab.cli`` is done;
* ``cpu_s``: user plus system CPU seconds of the child;
* ``peak_rss_mb``: ``ru_maxrss`` of the child.

``failed_frac`` (invocations that exit non-zero or fail their output check,
over those attempted) is printed with the others; the final JSON line
carries it as ``failed`` and ``attempted``.  The lines before the final one
also give sample counts, the machine record, the sha256 of every output
file and the words per depth.

The workload seed goes to the CLI's ``--seed``.  It picks the cell
operators of ``presc-gamow``, the sample cloud and orbits of
``pesin-cat-mc`` and the sampled word set of ``presc-baker-exact``;
``ks-cat-exact`` does not use it.  The work done does not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5
# every child is killed and counted failed once the run is this old, so
# the run ends well inside three minutes whatever the program does
DEADLINE_S = 160.0

LN2 = math.log(2.0)

# R_n and entropy per depth of `ks-entropy --map cat --grid 8x8 --mode exact`
KS_CAT_REFERENCE = (
    (64, 4.1588830833596715),
    (256, 5.545177444479562),
    (1024, 6.813271703147391),
    (3584, 7.963779048047347),
    (11264, 9.030438371863399),
    (33024, 10.049932062106517),
)


def check_baker(doc: dict) -> list[str]:
    errors = []
    if doc["chaotic"] is not True:
        errors.append("verdict is not chaotic")
    rate = doc["decay"]["fit_rate"]
    if not abs(rate + LN2) < 0.02 * LN2:
        errors.append(f"fit_rate {rate!r} is not within 2% of -ln 2")
    for n, h in enumerate(doc["entropy_profile"]):
        if h != (n + 1) * LN2:
            errors.append(f"entropy_profile[{n}] = {h!r}, not {(n + 1) * LN2!r}")
    return errors


def check_gamow(doc: dict) -> list[str]:
    errors = []
    decay = doc["decay"]
    if decay["verdict"] != "exponential":
        errors.append(f"verdict {decay['verdict']!r}, not exponential")
    if not decay["fit_quality"] >= 0.99:
        errors.append(f"fit_quality {decay['fit_quality']!r} below 0.99")
    lo, hi = doc["bounds"]["ln_delta1"], doc["bounds"]["ln_delta2"]
    if not lo <= decay["fit_rate"] <= hi:
        errors.append(f"fit_rate {decay['fit_rate']!r} outside [{lo!r}, {hi!r}]")
    return errors


def check_pesin(doc: dict) -> list[str]:
    rel = doc["report"]["relative_residual"]
    return [] if abs(rel) < 0.10 else [f"relative_residual {rel!r} not below 0.10"]


def check_ks_cat(doc: dict) -> list[str]:
    errors = []
    records = doc["records"]
    if len(records) > len(KS_CAT_REFERENCE):
        return [f"{len(records)} depths, reference has {len(KS_CAT_REFERENCE)}"]
    for rec, (r_n, entropy) in zip(records, KS_CAT_REFERENCE):
        if rec["R_n"] != r_n:
            errors.append(f"R_{rec['n']} = {rec['R_n']}, reference {r_n}")
        if not math.isclose(rec["entropy"], entropy, rel_tol=1e-12):
            errors.append(f"H_{rec['n']} = {rec['entropy']!r}, reference {entropy!r}")
    return errors


@dataclass(frozen=True)
class Workload:
    why: str
    argv: tuple[str, ...]     # CLI arguments at the benchmark size
    tiny: tuple[str, ...]     # the same command at smoke-test size
    output: str               # JSON document the check reads
    check: Callable[[dict], list[str]]
    words: Callable[[dict], list[int]]
    dominant: tuple[str, ...]  # layers predicted to hold most of the time


WORKLOADS = {
    "presc-baker-exact": Workload(
        "ROADMAP-pinned prescription; exact refinement, every clip hits",
        ("prescription", "--source", "classical", "--map", "baker",
         "--grid", "2x1", "--depth", "16"),
        ("prescription", "--source", "classical", "--map", "baker",
         "--grid", "2x1", "--depth", "8"),
        "prescription.json", check_baker, lambda doc: doc["word_counts"],
        ("geometry", "partitions")),
    "presc-gamow": Workload(
        "operator-side prescription; batched chain products and 4096 fits",
        ("prescription", "--source", "gamow", "--cells", "4", "--depth", "80"),
        ("prescription", "--source", "gamow", "--cells", "4", "--depth", "24"),
        "prescription.json", check_gamow, lambda doc: doc["word_counts"],
        ("pipeline",)),
    "pesin-cat-mc": Workload(
        "Monte Carlo refinement plus the pure-Python Lyapunov loop",
        ("pesin", "--map", "cat", "--mode", "mc", "--grid", "8x8",
         "--depth", "10", "--mc-samples", "1000000"),
        ("pesin", "--map", "cat", "--mode", "mc", "--grid", "4x4",
         "--depth", "6", "--mc-samples", "100000"),
        "pesin.json", check_pesin,
        lambda doc: [r["R_n"] for r in doc["h_estimate"]["records"]],
        ("partitions", "lyapunov")),
    "ks-cat-exact": Workload(
        "exact refinement of the cat map; few clips hit, wrap_to_torus runs",
        ("ks-entropy", "--map", "cat", "--grid", "8x8", "--depth", "5",
         "--mode", "exact"),
        ("ks-entropy", "--map", "cat", "--grid", "8x8", "--depth", "4",
         "--mode", "exact"),
        "ks_entropy.json", check_ks_cat,
        lambda doc: [r["R_n"] for r in doc["records"]],
        ("geometry", "partitions")),
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# --- running children -------------------------------------------------------

@dataclass
class Invocation:
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    errors: list[str]
    hashes: dict[str, str]
    words: list[int]
    log: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PESINLAB_SEED", None)  # the CLI falls back to it
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(child_args: list[str], started: float) -> Invocation:
    """Run one child; time exec to exit and read its resource usage."""
    stamp = WORK / "stamp.json"
    log_path = WORK / "child.log"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--stamp", str(stamp)] + child_args
    with open(log_path, "w") as log:
        t0_mono = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=child_env(),
                                cwd=WORK)
        killer = threading.Timer(max(DEADLINE_S - (time.perf_counter() - started), 0.0),
                                 proc.kill)
        killer.start()
        try:
            # wait without reaping, so a late kill still hits the zombie
            # and never a recycled pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            killer.cancel()
            killer.join()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = None
    errors = []
    try:
        stamp_doc = json.loads(stamp.read_text())
        setup = stamp_doc["import_done"] - t0_mono
        package = Path(stamp_doc["package"]).resolve()
        if ROOT / "src" not in package.parents:
            errors.append(f"imported pesinlab from {package}, not from src/")
    except (OSError, ValueError, KeyError):
        errors.append("child did not report its import time")
    if proc.returncode != 0:
        errors.append(f"exit status {proc.returncode}")
    return Invocation(wall, setup, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode, errors, {}, [],
                      log_path.read_text(errors="replace"))


def run_workload(wl: Workload, argv: tuple[str, ...], seed: int, started: float,
                 trace_file: Path | None) -> Invocation:
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    child_args = ["--trace", str(trace_file)] if trace_file else []
    child_args += ["--", *argv, "--seed", str(seed), "--out", str(out)]
    inv = spawn(child_args, started)
    if inv.returncode != 0:
        return inv
    inv.hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}
    try:
        doc = json.loads((out / wl.output).read_text())
        inv.errors += wl.check(doc)
        inv.words = wl.words(doc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        inv.errors.append(f"cannot check {wl.output}: {exc!r}")
    return inv


# --- summaries --------------------------------------------------------------

def percentile_line(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"median {med!r}, p{p:g} {q[round(p * 10) - 1]!r} (n={n})"
    return f"median {med!r} (n={n}; no percentile has 10 samples beyond it)"


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    commit = dirty = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:  # not an enclosing repository
            commit = head
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "git_commit": commit, "git_dirty": dirty}


def layer_metrics(trace: dict, traced_wall: float, traced_setup: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced invocation, as name -> (value, unit)."""
    stats, counts = trace["stats"], trace["counts"]

    def calls(name):
        return stats[name][0]

    def secs(name):
        return stats[name][1]

    def ratio(num, den):
        return num / den if den else 0.0

    self_s = {}
    for name, (_, _, own) in stats.items():
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + own
    m = {}
    m["geometry.clip_to_rect.calls"] = (calls("geometry.clip_to_rect"), "count")
    m["geometry.clip_to_rect.s"] = (secs("geometry.clip_to_rect"), "s")
    m["geometry.clip_halfplane.calls"] = (calls("geometry.clip_halfplane"), "count")
    m["geometry.polygon_area.calls"] = (calls("geometry.polygon_area"), "count")
    m["geometry.polygon_area.s"] = (secs("geometry.polygon_area"), "s")
    m["geometry.clip.hit_ratio"] = (
        ratio(counts["geometry.clip.hits"], calls("geometry.clip_to_rect")), "ratio")
    m["maps.forward_pieces.calls"] = (calls("maps.forward_pieces"), "count")
    m["maps.forward_pieces.s"] = (secs("maps.forward_pieces"), "s")
    m["maps.step_batch.points"] = (counts["maps.step_batch.points"], "count")
    m["maps.step_batch.s"] = (secs("maps.step_batch"), "s")
    m["maps.step.calls"] = (calls("maps.step"), "count")
    refine_s = secs("partitions.refine_series")
    m["partitions.refine_series.s"] = (refine_s, "s")
    m["partitions.words_final"] = (counts["partitions.words_final"], "count")
    m["partitions.words_total"] = (counts["partitions.words_total"], "count")
    m["partitions.exact.words_per_s"] = (
        ratio(counts["partitions.exact.words"], refine_s), "1/s")
    m["partitions.mc.sample_steps"] = (counts["partitions.mc.sample_steps"], "count")
    m["partitions.mc.sample_steps_per_s"] = (
        ratio(counts["partitions.mc.sample_steps"], refine_s), "1/s")
    m["partitions.entropy_nats.calls"] = (calls("partitions.entropy_nats"), "count")
    m["partitions.entropy_nats.s"] = (secs("partitions.entropy_nats"), "s")
    lyap_s = secs("lyapunov.lyapunov_spectrum")
    m["lyapunov.lyapunov_spectrum.calls"] = (calls("lyapunov.lyapunov_spectrum"), "count")
    m["lyapunov.lyapunov_spectrum.s"] = (lyap_s, "s")
    m["lyapunov.steps"] = (counts["lyapunov.steps"], "count")
    m["lyapunov.steps_per_s"] = (ratio(counts["lyapunov.steps"], lyap_s), "1/s")
    m["gamow.evolution_factors.calls"] = (calls("gamow.evolution_factors"), "count")
    m["gamow.evolution_factors.s"] = (secs("gamow.evolution_factors"), "s")
    m["gamow.make_cell_operators.s"] = (secs("gamow.make_cell_operators"), "s")
    # computed, not measured: one n x n complex matmul is 8 n^3 flops and
    # reads and writes three n x n complex operands
    n_max = counts["gamow.chain.n_max"]
    flops = counts["gamow.chain.words"] * counts["gamow.chain.depth"] * 8 * n_max ** 3
    m["gamow.chain.flops"] = (flops, "flop")
    m["gamow.chain.bytes"] = (3 * 16 * n_max ** 2, "bytes")
    presc_self = stats["pipeline.prescription_run"][2]
    m["pipeline.prescription_run.self_s"] = (presc_self, "s")
    m["pipeline.chain.gflops"] = (ratio(flops, presc_self) / 1e9, "GFLOP/s")
    m["pipeline.decay_detect.calls"] = (calls("pipeline.decay_detect"), "count")
    m["pipeline.decay_detect.s"] = (secs("pipeline.decay_detect"), "s")
    m["pipeline.fits_per_s"] = (
        ratio(calls("pipeline.decay_detect"), secs("pipeline.decay_detect")), "1/s")
    m["pipeline.semiclassical_h_mu.s"] = (secs("pipeline.semiclassical_h_mu"), "s")
    m["serialize.write_json.s"] = (secs("serialize.write_json"), "s")
    m["serialize.write_csv.s"] = (secs("serialize.write_csv"), "s")
    m["serialize.bytes"] = (counts["serialize.bytes"], "bytes")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.accounted_frac"] = (
        ratio(traced_setup + sum(self_s.values()), traced_wall), "ratio")
    return m


def dominance_line(wl: Workload, metrics: dict) -> str:
    self_s = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS}
    total = sum(self_s.values())
    top = max(self_s, key=self_s.get)
    share = sum(self_s[layer] for layer in wl.dominant) / total if total else 0.0
    met = top in wl.dominant and share >= 0.5
    ranked = ", ".join(f"{layer} {self_s[layer] / total:.1%}"
                       for layer in sorted(self_s, key=self_s.get, reverse=True))
    return (f"prediction {'+'.join(wl.dominant)} dominant: "
            f"{'met' if met else 'NOT MET'} (predicted share {share:.1%}, "
            f"top layer {top}); self-time shares: {ranked}")


# --- main -------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at smoke-test size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn a termination request into SystemExit, so the child is killed
    # and the work directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    if not (ROOT / "src" / "pesinlab" / "cli.py").is_file():
        print(f"error: no pesinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    argv_cli = wl.tiny if args.size == "tiny" else wl.argv
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        return measure(args, wl, argv_cli, started)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(args, wl: Workload, argv_cli: tuple[str, ...], started: float) -> int:
    probes = [spawn(["--probe", "--"], started) for _ in range(SETUP_PROBES + 1)]
    for probe in probes:
        if probe.errors:
            print(f"error: cannot import pesinlab.cli: {'; '.join(probe.errors)}\n"
                  f"{probe.log}", file=sys.stderr)
            return 2
    setups = [p.setup_s for p in probes[1:]]  # the first one fills the cache

    traced = None
    trace_doc = None
    if args.trace:
        trace_file = WORK / "trace.json"
        traced = run_workload(wl, argv_cli, args.seed, started, trace_file)
        if traced.returncode == 0:
            trace_doc = json.loads(trace_file.read_text())
        else:
            traced.errors.append("traced run failed")

    timed: list[Invocation] = []
    loop_start = time.perf_counter()
    while True:
        inv = run_workload(wl, argv_cli, args.seed, started, None)
        if timed and inv.hashes != timed[0].hashes:
            inv.errors.append("outputs differ from the first invocation's")
        timed.append(inv)
        elapsed = time.perf_counter() - loop_start
        if (elapsed + 0.5 * inv.wall_s > args.seconds
                or time.perf_counter() - started + 2 * inv.wall_s > DEADLINE_S):
            break

    if traced and traced.returncode == 0 and traced.hashes != timed[0].hashes:
        traced.errors.append("traced outputs differ from the untraced ones")
    invocations = timed + ([traced] if traced else [])
    failed = sum(1 for inv in invocations if inv.errors)
    for i, inv in enumerate(invocations):
        if inv.errors:
            print(f"invocation {i} failed: {'; '.join(inv.errors)}\n{inv.log[-2000:]}",
                  file=sys.stderr)
    ok = [inv for inv in timed if not inv.errors]
    samples = {"wall_s": [inv.wall_s for inv in ok],
               "setup_s": setups + [inv.setup_s for inv in ok],
               "cpu_s": [inv.cpu_s for inv in ok],
               "peak_rss_mb": [inv.peak_rss_mb for inv in ok]}

    print(f"workload {args.workload} ({wl.why}); seed {args.seed}; "
          f"{len(timed)} timed invocations in "
          f"{time.perf_counter() - loop_start:.1f} s; "
          f"command: pesinlab {' '.join(argv_cli)}")
    for name, values in samples.items():
        unit = E2E_UNITS[name]
        if values:
            print(f"{name} [{unit}]: {percentile_line(values)}")
        else:
            print(f"{name} [{unit}]: no successful invocation")
    print(f"failed_frac [ratio]: {failed / len(invocations)!r} "
          f"({failed} of {len(invocations)} invocations)")

    record = {"workload": args.workload, "seed": args.seed,
              "command": ["pesinlab", *argv_cli, "--seed", str(args.seed)],
              "machine": machine_record(),
              "outputs_sha256": timed[0].hashes,
              "words_per_depth": timed[0].words,
              "samples": samples}

    if not ok or (args.trace and trace_doc is None):
        metrics = {}
    elif args.trace:
        untraced_wall = statistics.median(samples["wall_s"])
        lm = layer_metrics(trace_doc, traced.wall_s, traced.setup_s, untraced_wall)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in lm.items()}
        record["trace"] = {"run_id": trace_doc["run_id"],
                           "spans": len(trace_doc["spans"]),
                           "root_span_s": trace_doc["root_s"],
                           "self_s_sum": sum(metrics[f"{layer}.self_s"]["value"]
                                             for layer in LAYERS),
                           "words_per_depth": trace_doc["words_per_depth"],
                           "computed": ["gamow.chain.flops", "gamow.chain.bytes",
                                        "pipeline.chain.gflops"]}
        for name, (v, u) in lm.items():
            print(f"{name} [{u}]: {v!r}")
        print(dominance_line(wl, lm))
    else:
        metrics = {name: {"value": statistics.median(values), "unit": E2E_UNITS[name]}
                   for name, values in samples.items()}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(invocations), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
