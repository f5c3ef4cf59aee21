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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from . import _lazy_submodule, limits
from .errors import ConfigurationError
from .maps import TorusMap
from .partitions import GridPartition, McConfig, entropy_nats, fit_line, \
    prefix_levels, refine_series, tail_slope, word_rows

if TYPE_CHECKING:
    from .gamow import BiorthOperator, GamowSpec

# a classical source never runs the operator model
gamow = _lazy_submodule("gamow")

VERDICTS = ("exponential", "not_exponential", "inconclusive")

# the slope an exponential verdict must fall below, in decay_detect and in
# the batched per-word verdicts alike
RATE_FLOOR = -1e-3
# batched per-word fits this close to a verdict boundary defer to
# decay_detect; numpy's sums differ from fsum's far below it
VERDICT_MARGIN = 1e-9


@dataclass(frozen=True)
class DecayReport:
    values: tuple[tuple[int, float], ...]
    fit_rate: float
    fit_quality: float
    onset: int
    verdict: str
    loglog_quality: float


def _bad_magnitude(n: int, v: float) -> ValueError:
    return ValueError(f"magnitude at n={n} is {v!r}; decay fits need finite, "
                      "positive magnitudes")


def decay_detect(values, onset: Optional[int] = None,
                 r2_threshold: float = 0.99) -> DecayReport:
    """Fit ln magnitude against n on the tail and classify the decay.

    The tail starts at onset, by default half way to the last n.
    Exponential: the linear fit in n explains the tail at least as well as a
    log-log fit, with slope below RATE_FLOOR and R^2 at or above the
    threshold.  A better log-log fit reads as polynomial-like decay (or no
    decay at all; constant data lands here with rate ~ 0).  Anything else is
    inconclusive.
    """
    pts = sorted((int(n), float(v)) for n, v in values)
    if len(pts) < 8:
        raise ValueError("decay detection needs at least 8 points")
    for n, v in pts:
        if not (math.isfinite(v) and v > 0.0):
            raise _bad_magnitude(n, v)
    if onset is None:
        onset = math.ceil(0.5 * pts[-1][0])
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
    if r2_lin >= r2_log and slope < RATE_FLOOR and r2_lin >= r2_threshold:
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
    mags, _ = gamow.chain_traces(spec, list(cell_ops), np.array([symbols]),
                                 start_step)
    return float(mags[0, -1])


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
            gamow._check_dim(self.spec, op)
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


def _fit_rows(xs: list, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fit_line's (slope, R^2) of every row of ys against the shared xs.

    The x sums are fit_line's fsums; the y sums are numpy's.  A y mean off by
    d moves sxy by d * sum(x - x_mean), about 0, and syy by len(xs) * d^2,
    so on any row that is not flat both stay within a few ulp of fit_line's.
    """
    x_mean = math.fsum(xs) / len(xs)
    dx = np.array(xs) - x_mean
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    dy = ys - ys.mean(axis=1, keepdims=True)
    sxy = dy @ dx
    syy = np.einsum("ij,ij->i", dy, dy)
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where(syy == 0.0, 1.0,
                      1.0 - np.maximum(syy - sxy * sxy / sxx, 0.0) / syy)
    return sxy / sxx, r2


def _word_verdicts(mags: np.ndarray, onset: int, r2_threshold: float) -> float:
    """Fraction of rows that decay_detect calls exponential, in one pass.

    One numpy fit of every row decides each verdict.  Rows within
    VERDICT_MARGIN of a decision boundary, and rows decay_detect would
    refuse or could not fit, go through decay_detect itself, so the verdicts
    (and errors) are decay_detect's.  Rows too flat for a trusted R^2 have
    slopes near 0, a whole margin from RATE_FLOOR, and are not exponential
    either way.
    """
    tail = list(range(onset, mags.shape[1]))
    with np.errstate(invalid="ignore", divide="ignore"):
        ys = np.log(mags[:, onset:])
    slope, r2_lin = _fit_rows(tail, ys)
    logged = [n for n in tail if n > 0]
    if len(logged) >= 3:
        _, r2_log = _fit_rows([math.log(n) for n in logged],
                              ys[:, len(tail) - len(logged):])
    else:
        r2_log = np.full(len(mags), -math.inf)
    near = ((mags <= 0.0).any(axis=1) | ~np.isfinite(ys).all(axis=1)
            | (np.abs(r2_lin - r2_log) <= VERDICT_MARGIN)
            | (np.abs(slope - RATE_FLOOR) <= VERDICT_MARGIN)
            | (np.abs(r2_lin - r2_threshold) <= VERDICT_MARGIN))
    exponential = (r2_lin >= r2_log) & (slope < RATE_FLOOR) \
        & (r2_lin >= r2_threshold)
    passing = int(np.count_nonzero(exponential & ~near))
    for row in mags[near]:
        rep = decay_detect(list(enumerate(row)), onset=onset,
                           r2_threshold=r2_threshold)
        passing += rep.verdict == "exponential"
    return passing / mags.shape[0]


@dataclass(frozen=True)
class _Measured:
    """What a source contributes to a run; fits and verdicts are shared."""

    desc: dict
    words: np.ndarray
    mags: np.ndarray
    entropies: list                # plug-in entropy of each depth's measures
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
                            src.measure_mode, src.mc_config, progress)
    final = records[-1]
    if final.nonempty_words > word_budget:
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(final.nonempty_words, size=word_budget,
                                  replace=False))
        sampling = "sampled"
    else:
        rows = None
        sampling = "exhaustive"
    words, mags = word_rows(records, rows)
    desc = {"map": src.torus_map.name,
            "grid": [src.partition.m_q, src.partition.m_p],
            "measure_mode": src.measure_mode}
    if src.mc_config is not None:
        desc["mc"] = {"n_samples": src.mc_config.n_samples,
                      "seed": src.mc_config.seed,
                      "estimator": src.mc_config.estimator}
    # the profile keeps each record's own entropy: in mc mode that is the
    # configured estimator, not the plug-in entropy of the measures
    profile = tuple(r.entropy for r in records)
    entropies = list(profile) if src.measure_mode == "exact" else \
        [entropy_nats(r.measures) for r in records]
    return _Measured(
        desc, words, mags, entropies, profile,
        tuple(r.nonempty_words for r in records),
        sampling, n_max // 2, False, None)


def _all_words(m: int, length: int) -> np.ndarray:
    """Every word of length symbols on m, in lexicographic order, as int32."""
    words = np.empty((m ** length, length), dtype=np.int32)
    for j in range(length):
        # column j counts through the symbols in runs of m^(length - 1 - j)
        words.reshape(m ** j, m, -1, length)[..., j] = np.arange(m)[:, None]
    return words


def _quantum_measures(src: QuantumSource, n_max: int, word_budget: int,
                      seed: int,
                      progress: Optional[Callable[[str], None]]) -> _Measured:
    spec = src.spec
    ops = src.cell_ops
    m = len(ops)
    n_words, exhaustive = limits.quantum_words(m, n_max, word_budget)
    limits.check_bytes(limits.quantum_run_bytes(n_words, n_max, m, spec.n_max),
                       f"{n_words} words of depth {n_max} on {m} cells of "
                       f"{spec.n_max}x{spec.n_max} coefficients",
                       "--word-budget, --depth or --n-max")
    if exhaustive:
        words = _all_words(m, n_max + 1)
        sampling = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        words = rng.integers(0, m, size=(word_budget, n_max + 1), dtype=np.int32)
        for perm, starts, _, _ in prefix_levels(words, m):
            pass
        words = words[perm[starts]]             # distinct, lexicographic
        sampling = "sampled"

    # past the relaxation time a trace follows its word's (0, 0) lead
    # product; once that leaves the normal doubles the magnitudes lose
    # precision and then read 0, so such depths are refused up front
    bounds = gamow.decay_bounds(ops)
    limits.check_underflow([op.coeffs[0, 0].real for op in ops], words, n_max)

    # the entropy profile takes each depth's distinct prefixes once (shared
    # prefixes of several sampled words are one cell, not many)
    per_depth = []

    def on_depth(n, col, k, prefix_mags):
        # a family whose cell measures sum above 1 is no sub-partition, and
        # semiclassical_h_mu would refuse its measures
        total = math.fsum(prefix_mags.tolist())
        if not math.isfinite(total):
            # decay_detect would refuse this depth's mean after the last one
            raise _bad_magnitude(n, float(col.mean()))
        if total > 1.0 + 1e-6:
            raise ConfigurationError(
                f"cell measures at depth {n} sum to {total!r}, above 1; "
                "lower --total-mass or --off-scale")
        per_depth.append(prefix_mags)
        if progress:
            progress(f"depth {n}/{n_max}: mean |trace| {col.mean():.6g}, "
                     f"dim {k}")

    mags, tr = gamow.chain_traces(spec, ops, words, on_depth=on_depth)
    entropies = [entropy_nats(vals) for vals in per_depth]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(mags[:, -1] > 0.0, np.abs(tr.imag) / mags[:, -1], 0.0)

    desc = {"omega0": spec.omega0, "gamma0": spec.gamma0, "hbar": spec.hbar,
            "alpha": spec.alpha, "n_max": spec.n_max, "cells": m,
            "labels": [op.label for op in ops]}
    return _Measured(
        desc, words, mags, entropies, tuple(entropies),
        tuple(len(vals) for vals in per_depth),
        sampling, quantum_fit_onset(spec, n_max),
        bool(np.any(ratios > 1e-6)), bounds)


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
        got.word_counts, tail_slope(got.entropies), report, passing,
        report.verdict == "exponential" and passing == 1.0,
        got.sampling, onset, r2_threshold, seed, got.imag_flag, got.bounds)
