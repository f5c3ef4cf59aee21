"""Chaos detection from the decay of operator-product traces.

The method runs in four stages: set up a partition (or a family of cell
operators standing in for one), evolve the cell operators stepwise, take the
trace of their ordered product along sampled symbol words, and fit the decay
of those traces against chain length.  Exponential decay of every sampled
word is a sufficient condition for a chaotic classical limit; its absence
proves nothing, so the negative verdict is worded as "not proven".

Classical sources route exact (or Monte-Carlo) word measures through the
same entropy and fitting code paths, which is what the cross-formalism
equality tests lean on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .gamow import BiorthOperator, GamowSpec, chain_trace, decay_bounds, \
    evolution_factors
from .maps import TorusMap
from .partitions import GridPartition, McConfig, RefinementRecord, \
    entropy_nats, fit_line, refine_series, tail_slope

VERDICTS = ("exponential", "not_exponential", "inconclusive")


@dataclass(frozen=True)
class DecayReport:
    values: tuple[tuple[int, float], ...]
    fit_rate: float
    fit_quality: float
    onset: int
    verdict: str
    loglog_quality: float


def decay_detect(values, onset: Optional[int] = None, onset_fraction: float = 0.5,
                 r2_threshold: float = 0.99,
                 rate_floor: float = -1e-3) -> DecayReport:
    """Fit ln magnitude against n on the tail and classify the decay.

    Exponential: the linear fit in n explains the tail at least as well as a
    log-log fit, with slope below rate_floor and R^2 at or above the
    threshold.  A better log-log fit reads as polynomial-like decay (or no
    decay at all; constant data lands here with rate ~ 0).  Anything else is
    inconclusive.
    """
    pts = sorted((int(n), float(v)) for n, v in values)
    if len(pts) < 8:
        raise ValueError("decay detection needs at least 8 points")
    for n, v in pts:
        if v <= 0.0:
            raise ValueError(
                f"magnitude at n={n} is {v!r}; zero measures must be dropped upstream")
    if onset is None:
        onset = math.ceil(onset_fraction * pts[-1][0])
    tail = [(n, v) for n, v in pts if n >= onset]
    if len(tail) < 4:
        raise ValueError(f"only {len(tail)} points at or beyond onset {onset}")
    ns = [float(n) for n, _ in tail]
    ys = [math.log(v) for _, v in tail]
    slope, r2_lin = fit_line(ns, ys)
    log_pts = [(math.log(n), y) for (n, _), y in zip(tail, ys) if n > 0]
    if len(log_pts) >= 3:
        _, r2_log = fit_line([x for x, _ in log_pts], [y for _, y in log_pts])
    else:
        r2_log = -math.inf
    if r2_lin >= r2_log and slope < rate_floor and r2_lin >= r2_threshold:
        verdict = "exponential"
    elif r2_log >= r2_lin:
        verdict = "not_exponential"
    else:
        verdict = "inconclusive"
    return DecayReport(tuple(pts), slope, r2_lin, onset, verdict, r2_log)


def mu_via_quantum(spec: GamowSpec, cell_ops, word, start_step: int = 0) -> float:
    """Word-cell measure as |trace| of the evolved-operator chain."""
    symbols = tuple(word)
    if len(symbols) < 1:
        raise ValueError("a word needs at least one symbol")
    cell_ops = list(cell_ops)
    for k in symbols:
        if not 0 <= k < len(cell_ops):
            raise ValueError(
                f"symbol {k} has no cell operator (have {len(cell_ops)})")
    chain = [cell_ops[k] for k in symbols]
    return abs(chain_trace(spec, chain, len(chain) - 1, start_step).trace)


def semiclassical_h_mu(per_depth_measures) -> float:
    """Entropy-rate slope from word measures listed per depth 0..n_max.

    Accepts the trace-magnitude measures of the operator formalism or plain
    classical word measures; each depth's values may sum to less than 1
    (leaky cell families) but never more.
    """
    series = [[float(v) for v in vals] for vals in per_depth_measures]
    if len(series) < 5:
        raise ValueError("need measures for depths 0..n_max with n_max >= 4")
    entropies = []
    for n, vals in enumerate(series):
        if not vals:
            raise ValueError(f"no measures at depth {n}")
        if min(vals) < 0.0:
            raise ValueError(f"negative measure at depth {n}")
        total = math.fsum(vals)
        if total > 1.0 + 1e-6:
            raise ValueError(
                f"measures at depth {n} sum to {total!r}, above 1")
        entropies.append(entropy_nats(vals))
    return tail_slope(entropies)


# --- prescription sources ---------------------------------------------------

@dataclass(frozen=True)
class ClassicalSource:
    torus_map: TorusMap
    partition: GridPartition
    measure_mode: str = "exact"
    mc_config: Optional[McConfig] = None


@dataclass(frozen=True)
class QuantumSource:
    spec: GamowSpec
    cell_ops: tuple[BiorthOperator, ...]

    def __post_init__(self) -> None:
        ops = tuple(self.cell_ops)
        if len(ops) < 2:
            raise ValueError("need at least 2 cell operators")
        for op in ops:
            if op.dim != self.spec.n_max:
                raise ValueError(
                    f"operator dimension {op.dim} does not match n_max {self.spec.n_max}")
        object.__setattr__(self, "cell_ops", ops)


Source = Union[ClassicalSource, QuantumSource]


@dataclass(frozen=True)
class PrescriptionRun:
    source_kind: str
    source_desc: dict
    n_max: int
    words: np.ndarray              # sampled words, (W, n_max+1), lex-sorted
    word_magnitudes: np.ndarray    # per-word prefix measures, (W, n_max+1)
    entropy_profile: tuple[float, ...]
    word_counts: tuple[int, ...]   # distinct words per depth
    semiclassical_h_mu: float
    report: DecayReport            # headline fit of the mean magnitude
    passing_fraction: float        # fraction of words individually exponential
    chaotic: bool
    sampling: str                  # "exhaustive" | "sampled"
    onset: int
    r2_threshold: float
    seed: int
    imag_flag: bool                # some final trace had |Im|/|..| > 1e-6
    bounds: Optional[tuple[float, float]]  # (delta1, delta2) for quantum runs


def quantum_fit_onset(spec: GamowSpec, n_max: int) -> int:
    """First depth used in quantum decay fits.

    Prefers 10 relaxation times (the regime where traces factorize), but
    falls back to half the depth range when that would leave fewer than 8
    tail points to fit.
    """
    target = math.ceil(10.0 * spec.t_r / spec.alpha)
    if n_max - target + 1 >= 8:
        return target
    return n_max // 2


def _prefix_measures(records: Sequence[RefinementRecord], words: np.ndarray,
                     m: int) -> np.ndarray:
    """Measure of each word's length-(n+1) prefix, per depth; (W, depths)."""
    out = np.empty((words.shape[0], len(records)))
    pos = None
    for n, rec in enumerate(records):
        codes = rec.word_measures.row_codes
        if n == 0:
            w_codes = words[:, 0].astype(np.int64)
        else:
            w_codes = pos * m + words[:, n]
        pos = np.searchsorted(codes, w_codes)
        if pos.size and (pos.max() >= len(codes) or np.any(codes[pos] != w_codes)):
            raise ValueError("a sampled word has no measure at some depth")
        out[:, n] = rec.word_measures.measure_array()[pos]
    return out


def _word_verdicts(mags: np.ndarray, onset: int, r2_threshold: float) -> float:
    passing = 0
    for row in mags:
        rep = decay_detect(list(enumerate(row)), onset=onset,
                           r2_threshold=r2_threshold)
        if rep.verdict == "exponential":
            passing += 1
    return passing / mags.shape[0]


@dataclass(frozen=True)
class _Measured:
    """What a source contributes to a run; fits and verdicts are shared."""

    desc: dict
    words: np.ndarray
    mags: np.ndarray
    measures: list                 # distinct word measures, per depth
    entropy_profile: tuple[float, ...]
    word_counts: tuple[int, ...]
    sampling: str
    onset: int                     # fit onset when the caller gives none
    imag_flag: bool
    bounds: Optional[tuple[float, float]]


def _classical_measures(src: ClassicalSource, n_max: int, word_budget: int,
                        seed: int,
                        progress: Optional[Callable[[str], None]]) -> _Measured:
    records = refine_series(src.torus_map, src.partition, n_max,
                            src.measure_mode, src.mc_config)
    if progress:
        for r in records:
            progress(f"depth {r.n}/{n_max}: {r.nonempty_words} words, H={r.entropy:.6g}")
    final = records[-1]
    all_words = final.word_measures.word_array()
    if final.nonempty_words > word_budget:
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(final.nonempty_words, size=word_budget,
                                  replace=False))
        words = all_words[pick]
        sampling = "sampled"
    else:
        words = all_words
        sampling = "exhaustive"
    desc = {"map": src.torus_map.name,
            "grid": [src.partition.m_q, src.partition.m_p],
            "measure_mode": src.measure_mode}
    if src.mc_config is not None:
        desc["mc"] = {"n_samples": src.mc_config.n_samples,
                      "seed": src.mc_config.seed,
                      "estimator": src.mc_config.estimator}
    # the profile keeps each record's own entropy: in mc mode that is the
    # configured estimator, not the plug-in entropy of the measures
    return _Measured(
        desc, words, _prefix_measures(records, words, src.partition.n_cells),
        [r.word_measures.measure_array() for r in records],
        tuple(r.entropy for r in records),
        tuple(r.nonempty_words for r in records),
        sampling, n_max // 2, False, None)


def _quantum_measures(src: QuantumSource, n_max: int, word_budget: int,
                      seed: int,
                      progress: Optional[Callable[[str], None]]) -> _Measured:
    spec = src.spec
    ops = src.cell_ops
    m = len(ops)
    if m ** (n_max + 1) <= word_budget:
        words = np.array(list(itertools.product(range(m), repeat=n_max + 1)),
                         dtype=np.int32)
        sampling = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        words = rng.integers(0, m, size=(word_budget, n_max + 1), dtype=np.int32)
        words = np.unique(words, axis=0)
        sampling = "sampled"

    base = np.stack([op.coeffs for op in ops])
    mags = np.empty((words.shape[0], n_max + 1))
    product = base[words[:, 0]].copy()
    tr = np.einsum("wii->w", product)
    mags[:, 0] = np.abs(tr)
    if progress:
        progress(f"depth 0/{n_max}: mean |trace| {mags[:, 0].mean():.6g}")
    for n in range(1, n_max + 1):
        evolved = base * evolution_factors(spec, n)[None, :, :]
        product = product @ evolved[words[:, n]]
        tr = np.einsum("wii->w", product)
        mags[:, n] = np.abs(tr)
        if progress:
            progress(f"depth {n}/{n_max}: mean |trace| {mags[:, n].mean():.6g}")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(mags[:, -1] > 0.0, np.abs(tr.imag) / mags[:, -1], 0.0)

    # distinct prefixes only, for the entropy profile (shared prefixes of
    # several sampled words are one cell, not many)
    per_depth = []
    for n in range(n_max + 1):
        _, first = np.unique(words[:, :n + 1], axis=0, return_index=True)
        per_depth.append(mags[np.sort(first), n])

    desc = {"omega0": spec.omega0, "gamma0": spec.gamma0, "hbar": spec.hbar,
            "alpha": spec.alpha, "n_max": spec.n_max, "cells": m,
            "labels": [op.label for op in ops]}
    return _Measured(
        desc, words, mags, per_depth,
        tuple(entropy_nats(vals) for vals in per_depth),
        tuple(len(vals) for vals in per_depth),
        sampling, quantum_fit_onset(spec, n_max),
        bool(np.any(ratios > 1e-6)), decay_bounds(ops))


def prescription_run(source: Source, n_max: int, word_budget: int = 4096,
                     seed: int = 0, r2_threshold: float = 0.99,
                     onset: Optional[int] = None,
                     progress: Optional[Callable[[str], None]] = None) -> PrescriptionRun:
    """Run the four-stage detection end to end and attach the verdict.

    chaotic is set only when the headline fit is exponential and every
    sampled word individually passes; the fraction passing is reported
    either way.
    """
    if n_max < 7:
        raise ValueError("need n_max >= 7 (at least 8 decay points)")
    if word_budget < 1:
        raise ValueError("word budget must be positive")
    if isinstance(source, ClassicalSource):
        kind, measure = "classical", _classical_measures
    elif isinstance(source, QuantumSource):
        kind, measure = "quantum", _quantum_measures
    else:
        raise TypeError(f"unknown source type {type(source).__name__}")
    got = measure(source, n_max, word_budget, seed, progress)
    if onset is None:
        onset = got.onset
    report = decay_detect(list(enumerate(got.mags.mean(axis=0))), onset=onset,
                          r2_threshold=r2_threshold)
    passing = _word_verdicts(got.mags, onset, r2_threshold)
    return PrescriptionRun(
        kind, got.desc, n_max, got.words, got.mags, got.entropy_profile,
        got.word_counts, semiclassical_h_mu(got.measures), report, passing,
        report.verdict == "exponential" and passing == 1.0,
        got.sampling, onset, r2_threshold, seed, got.imag_flag, got.bounds)
