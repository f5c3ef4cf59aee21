"""Deterministic JSON and CSV output.

Machine formats keep full double precision (repr round-trips); nothing here
writes timestamps, hostnames, or filesystem paths, so a rerun with the same
config and seed produces byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .gamow import BiorthOperator
from .lyapunov import LyapunovSpectrum, PesinReport
from .partitions import RefinementRecord
from .pipeline import PrescriptionRun


def fmt_float(x) -> str:
    return repr(float(x))


def write_json(path, doc) -> Path:
    """Write doc as it is encoded, so no whole-document string is held."""
    path = Path(path)
    try:
        with path.open("w") as fh:
            # bare NaN or Infinity would not be JSON
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except Exception:
        # a refused value leaves no partial file
        path.unlink(missing_ok=True)
        raise
    return path


def write_csv(path, header, rows) -> Path:
    """Write each of rows, an iterable of string lists, as it comes."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    return path


# --- refinement records -----------------------------------------------------

def refinement_record_doc(record: RefinementRecord, words=None) -> dict:
    """JSON document of one record.

    words, the record's rows as symbol words (partitions.word_rows), adds
    each word's measure and its sampling error.
    """
    doc = {
        "n": record.n,
        "R_n": record.nonempty_words,
        "entropy": float(record.entropy),
        "map": record.map_name,
        "grid": list(record.grid),
        "mode": record.mode,
    }
    if record.meta:
        doc["meta"] = dict(record.meta)
    if words is not None:
        doc["word_measures"] = {
            ",".join(map(str, word)): {"value": value, "stderr": stderr}
            for word, value, stderr in zip(words.tolist(),
                                           record.measures.tolist(),
                                           record.stderrs.tolist())}
    return doc


def refinement_rows(records) -> list[list[str]]:
    return [[str(r.n), str(r.nonempty_words), fmt_float(r.entropy)]
            for r in records]


REFINEMENT_CSV_HEADER = ("n", "R_n", "entropy")


# --- spectra and the identity check -----------------------------------------

def spectrum_doc(s: LyapunovSpectrum) -> dict:
    return {
        "exponents": [float(e) for e in s.exponents],
        "n_iterations": s.n_iterations,
        "x0": [s.x0.q, s.x0.p],
        "positive_sum": float(s.positive_sum),
    }


def pesin_doc(report: PesinReport) -> dict:
    return {
        "h_ks_estimate": report.h_ks_estimate,
        "lyapunov_positive_sum": report.lyapunov_positive_sum,
        "residual": report.residual,
        "relative_residual": report.relative_residual,
    }


# --- operator model ---------------------------------------------------------

def biorth_doc(op: BiorthOperator) -> dict:
    return {
        "label": op.label,
        "dim": op.dim,
        "re": [[float(v) for v in row] for row in op.coeffs.real],
        "im": [[float(v) for v in row] for row in op.coeffs.imag],
    }


# --- prescription runs ------------------------------------------------------

def decay_report_doc(report) -> dict:
    return {
        "values": [[n, v] for n, v in report.values],
        "fit_rate": report.fit_rate,
        "fit_quality": report.fit_quality,
        "loglog_quality": report.loglog_quality,
        "onset": report.onset,
        "verdict": report.verdict,
    }


def prescription_doc(run: PrescriptionRun) -> dict:
    doc = {
        "source": dict(run.source_desc, kind=run.source_kind),
        "n_max": run.n_max,
        "sampling": run.sampling,
        "sampled_words": int(run.words.shape[0]),
        "word_counts": [int(c) for c in run.word_counts],
        "entropy_profile": [float(h) for h in run.entropy_profile],
        "semiclassical_h_mu": float(run.semiclassical_h_mu),
        "decay": decay_report_doc(run.report),
        "passing_fraction": float(run.passing_fraction),
        "chaotic": run.chaotic,
        "imag_flag": run.imag_flag,
        "onset": run.onset,
        "r2_threshold": run.r2_threshold,
        "seed": run.seed,
    }
    if run.bounds is not None:
        d1, d2 = run.bounds
        doc["bounds"] = {"delta1": d1, "delta2": d2,
                         "ln_delta1": math.log(d1), "ln_delta2": math.log(d2)}
    return doc


PRESCRIPTION_CSV_HEADER = ("n", "entropy", "mean_magnitude", "distinct_words",
                           "in_fit", "ln_lower", "ln_upper")


def prescription_rows(run: PrescriptionRun) -> list[list[str]]:
    means = {n: v for n, v in run.report.values}
    rows = []
    for n in range(run.n_max + 1):
        if run.bounds is not None:
            d1, d2 = run.bounds
            lo = fmt_float((n + 1) * math.log(d1))
            hi = fmt_float((n + 1) * math.log(d2))
        else:
            lo = hi = ""
        rows.append([str(n), fmt_float(run.entropy_profile[n]),
                     fmt_float(means[n]), str(run.word_counts[n]),
                     "1" if n >= run.onset else "0", lo, hi])
    return rows


PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot the trace-decay summary from prescription.csv (same directory).

The CSV is plain columns, so any plotting tool works; this is the
matplotlib version.
"""
import csv
import math
import os

import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, "prescription.csv"), newline="") as fh:
    rows = list(csv.DictReader(fh))

ns = [int(r["n"]) for r in rows]
logmag = [math.log(float(r["mean_magnitude"])) for r in rows]
plt.plot(ns, logmag, "o-", ms=3, label="ln mean |trace|")
if rows and rows[0]["ln_lower"]:
    lo = [float(r["ln_lower"]) for r in rows]
    hi = [float(r["ln_upper"]) for r in rows]
    plt.fill_between(ns, lo, hi, alpha=0.2, label="exponential bounds")
onset = min((int(r["n"]) for r in rows if r["in_fit"] == "1"), default=None)
if onset is not None:
    plt.axvline(onset, ls="--", lw=1, color="gray", label="fit onset")
plt.xlabel("chain length n")
plt.ylabel("ln magnitude")
plt.legend()
plt.tight_layout()
plt.savefig(os.path.join(here, "prescription.png"), dpi=150)
print(os.path.join(here, "prescription.png"))
'''


def write_plot_script(out_dir) -> Path:
    path = Path(out_dir) / "prescription_plot.py"
    path.write_text(PLOT_SCRIPT)
    return path
