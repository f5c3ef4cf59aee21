"""Partition refinement and entropy-rate estimates.

Words (k_0, ..., k_n) label the cells of the iterated join of a grid
partition with its dynamical preimages.  Their measures are obtained either
exactly, by propagating polygon pieces forward (the piece list of a word is
the n-step image of its cell, and the map preserves area), or by following a
cloud of sample points and counting word frequencies.

The entropy kernel is shared by every caller so that two code paths fed the
same measures produce bit-identical entropies.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geometry
from .errors import ConfigurationError, UnsupportedOperationError
from .maps import TorusMap

# pieces thinner than this are clipping slivers, not cells
_ZERO_AREA = 1e-15

MEASURE_MODES = ("exact", "mc")
MC_ESTIMATORS = ("plugin", "miller_madow", "grassberger", "chao_shen")

_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class GridPartition:
    """Uniform grid of m_q x m_p axis-aligned cells; cell i = iq * m_p + ip."""

    m_q: int
    m_p: int

    def __post_init__(self) -> None:
        if self.m_q < 1 or self.m_p < 1:
            raise ValueError("grid sides must be at least 1")

    @property
    def n_cells(self) -> int:
        return self.m_q * self.m_p

    def cell_rect(self, i: int) -> tuple[float, float, float, float]:
        """Bounds (q0, q1, p0, p1) of cell i."""
        if not 0 <= i < self.n_cells:
            raise ValueError(f"cell index {i} out of range for {self.n_cells} cells")
        iq, ip = divmod(i, self.m_p)
        return (iq / self.m_q, (iq + 1) / self.m_q,
                ip / self.m_p, (ip + 1) / self.m_p)

    def cell_index_batch(self, pts: np.ndarray) -> np.ndarray:
        """Cell index of each row of an (N, 2) array of torus points."""
        iq = np.minimum((pts[:, 0] * self.m_q).astype(np.int64), self.m_q - 1)
        ip = np.minimum((pts[:, 1] * self.m_p).astype(np.int64), self.m_p - 1)
        return iq * self.m_p + ip


@dataclass(frozen=True)
class CellWord:
    """Symbol tuple (k_0, ..., k_n) naming a refined cell."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 1:
            raise ValueError("a word needs at least one symbol")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    method: str
    stderr: float = 0.0
    n_samples: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"measure {self.value} outside [0, 1]")
        if self.method == "exact" and self.stderr != 0.0:
            raise ValueError("exact estimates carry no sampling error")


class WordTable(Mapping):
    """Read-only mapping CellWord -> MeasureEstimate backed by flat arrays.

    Iteration is lexicographic in the symbol tuples.  The lookup index is
    built lazily on the first __getitem__, so iterating a large Monte-Carlo
    table never materializes a dict of tuples.

    row_codes, when present, holds for each row the compressed word code
    (parent row position in the previous depth's table, times the alphabet
    size, plus the last symbol).  Rows are lex-sorted, which makes the codes
    ascending, so prefix rows can be found by binary search instead of a
    per-word dict.
    """

    def __init__(self, words: np.ndarray, values: np.ndarray, stderrs: np.ndarray,
                 method: str, n_samples: int,
                 row_codes: Optional[np.ndarray] = None):
        self._words = words
        self._values = values
        self._stderrs = stderrs
        self._method = method
        self._n_samples = n_samples
        self.row_codes = row_codes
        self._index: Optional[dict] = None

    def __len__(self) -> int:
        return self._words.shape[0]

    def _estimate(self, i: int) -> MeasureEstimate:
        return MeasureEstimate(float(self._values[i]), self._method,
                               float(self._stderrs[i]), self._n_samples)

    def __iter__(self):
        for row in self._words:
            yield CellWord(tuple(int(s) for s in row))

    def __getitem__(self, word) -> MeasureEstimate:
        if self._index is None:
            self._index = {tuple(int(s) for s in row): i
                           for i, row in enumerate(self._words)}
        key = tuple(word.symbols) if isinstance(word, CellWord) else tuple(word)
        return self._estimate(self._index[key])

    # generator overrides keep large tables cheap to scan
    def values(self):
        for i in range(len(self)):
            yield self._estimate(i)

    def items(self):
        for i, row in enumerate(self._words):
            yield CellWord(tuple(int(s) for s in row)), self._estimate(i)

    def measure_array(self) -> np.ndarray:
        """Measures in iteration (lexicographic) order, as a copy."""
        return self._values.copy()

    def word_array(self) -> np.ndarray:
        return self._words.copy()


@dataclass(frozen=True)
class RefinementRecord:
    n: int
    nonempty_words: int
    entropy: float
    word_measures: WordTable
    map_name: str
    grid: tuple[int, int]
    mode: str
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 1_000_000
    seed: int = 0
    estimator: str = "chao_shen"

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("sample count must be positive")
        if self.estimator not in MC_ESTIMATORS:
            raise ConfigurationError(
                f"unknown estimator {self.estimator!r}; "
                f"valid names: {', '.join(MC_ESTIMATORS)}")


def entropy_nats(values: Iterable[float]) -> float:
    """-sum mu ln mu in nats with the 0 ln 0 = 0 convention.

    No normalization check; fsum makes the result independent of term order.
    """
    return -math.fsum(v * math.log(v) for v in values if v != 0.0)


def partition_entropy(measures: Iterable[float]) -> float:
    """Entropy of a probability vector; entries must be >= 0 and sum to 1."""
    vals = [float(v) for v in measures]
    for v in vals:
        if v < 0.0:
            raise ValueError("measures must be nonnegative")
    total = math.fsum(vals)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"measures sum to {total!r}, not 1")
    return entropy_nats(vals)


# --- exact refinement -------------------------------------------------------

def _exact_record(pieces_by_word: dict, n: int, torus_map: TorusMap,
                  part: GridPartition, prev_rows: Optional[dict]) -> RefinementRecord:
    words = sorted(pieces_by_word)
    measures = [math.fsum(geometry.polygon_area(p) for p in pieces_by_word[w])
                for w in words]
    if prev_rows is None:
        codes = np.array([w[0] for w in words], dtype=np.int64)
    else:
        m = part.n_cells
        codes = np.array([prev_rows[w[:-1]] * m + w[-1] for w in words],
                         dtype=np.int64)
    table = WordTable(
        np.array(words, dtype=np.int32).reshape(len(words), n + 1),
        np.array(measures, dtype=float),
        np.zeros(len(words)),
        "exact", 0, codes)
    return RefinementRecord(n, len(words), entropy_nats(measures), table,
                            torus_map.name, (part.m_q, part.m_p), "exact")


def _exact_series(torus_map: TorusMap, part: GridPartition,
                  n_max: int) -> list[RefinementRecord]:
    if torus_map.forward_pieces is None:
        raise UnsupportedOperationError(
            f"exact refinement needs piecewise-linear data, "
            f"which map {torus_map.name!r} does not provide")
    cell_rects = [part.cell_rect(k) for k in range(part.n_cells)]
    current = {(k,): [geometry.rect_polygon(*r)] for k, r in enumerate(cell_rects)}
    records = [_exact_record(current, 0, torus_map, part, None)]
    for n in range(1, n_max + 1):
        rows = {w: i for i, w in enumerate(sorted(current))}
        nxt = {}
        for word, pieces in current.items():
            mapped = [img for piece in pieces
                      for img in torus_map.forward_pieces(piece)]
            for k, rect in enumerate(cell_rects):
                parts = []
                for piece in mapped:
                    cut = geometry.clip_to_rect(piece, *rect)
                    if cut is not None and geometry.polygon_area(cut) > _ZERO_AREA:
                        parts.append(cut)
                if parts:
                    nxt[word + (k,)] = parts
        current = nxt
        records.append(_exact_record(current, n, torus_map, part, rows))
    return records


# --- Monte-Carlo refinement -------------------------------------------------

def _grassberger_terms(max_count: int) -> np.ndarray:
    """G(n) lookup for counts 1..max_count.

    G(1) = -gamma - ln 2, G(2) = G(1) + 2, then G grows by 2/(2k+1) on each
    even step and holds on odd ones; replacing ln(n/N) by G(n) - ln N removes
    most of the small-count bias of the plug-in estimator.
    """
    g = np.zeros(max_count + 1)
    if max_count >= 1:
        g[1] = -_EULER_GAMMA - math.log(2.0)
    if max_count >= 2:
        ks = np.arange(1, max_count // 2 + 1)
        adds = np.concatenate(([0.0], np.cumsum(2.0 / (2.0 * ks[:-1] + 1.0))))
        g[2 * ks] = 2.0 - _EULER_GAMMA - math.log(2.0) + adds
    if max_count >= 3:
        odd = np.arange(3, max_count + 1, 2)
        g[odd] = g[odd - 1]
    return g


def _mc_entropy(counts: np.ndarray, n_samples: int, estimator: str) -> float:
    freqs = counts / n_samples
    if estimator == "plugin":
        return entropy_nats(freqs)
    if estimator == "miller_madow":
        return entropy_nats(freqs) + (len(counts) - 1) / (2.0 * n_samples)
    if estimator == "grassberger":
        g = _grassberger_terms(int(counts.max()))
        return math.log(n_samples) - float(np.sum(counts * g[counts])) / n_samples
    # chao_shen: rescale frequencies by the estimated coverage, then weight
    # each word by its probability of having been seen at all.  Reduces to
    # plugin when there are no singletons.
    singles = int((counts == 1).sum())
    coverage = max(1.0 - singles / n_samples, 1.0 / n_samples)
    adj = coverage * freqs
    seen = 1.0 - np.power(1.0 - adj, n_samples)
    return float(-np.sum(adj * np.log(adj) / seen))


def _mc_record(words: np.ndarray, counts: np.ndarray, codes: np.ndarray, n: int,
               cfg: McConfig, torus_map: TorusMap,
               part: GridPartition) -> RefinementRecord:
    freqs = counts / cfg.n_samples
    entropy = _mc_entropy(counts, cfg.n_samples, cfg.estimator)
    stderrs = np.sqrt(freqs * (1.0 - freqs) / cfg.n_samples)
    table = WordTable(words, freqs, stderrs, "monte_carlo", cfg.n_samples, codes)
    meta = {"n_samples": cfg.n_samples, "seed": cfg.seed, "estimator": cfg.estimator}
    return RefinementRecord(n, len(counts), entropy, table,
                            torus_map.name, (part.m_q, part.m_p), "mc", meta)


def _mc_series(torus_map: TorusMap, part: GridPartition, n_max: int,
               cfg: McConfig) -> list[RefinementRecord]:
    rng = np.random.default_rng(cfg.seed)
    pts = rng.random((cfg.n_samples, 2))
    m = part.n_cells

    # Words are tracked as compressed integer ids.  Re-encoding against the
    # previous depth's unique ids keeps codes below n_samples * m, and since
    # np.unique sorts ascending, lexicographic word order is preserved
    # inductively at every depth.
    sym = part.cell_index_batch(pts)
    uniq, ids, counts = np.unique(sym, return_inverse=True, return_counts=True)
    words = uniq.reshape(-1, 1).astype(np.int32)
    records = [_mc_record(words, counts, uniq, 0, cfg, torus_map, part)]
    for n in range(1, n_max + 1):
        pts = torus_map.step_batch(pts)
        sym = part.cell_index_batch(pts)
        codes = ids * m + sym
        uniq, ids, counts = np.unique(codes, return_inverse=True, return_counts=True)
        words = np.hstack([words[uniq // m],
                           (uniq % m).reshape(-1, 1).astype(np.int32)])
        records.append(_mc_record(words, counts, uniq, n, cfg, torus_map, part))
    return records


def refine_series(torus_map: TorusMap, part: GridPartition, n_max: int,
                  measure_mode: str = "exact",
                  mc_config: Optional[McConfig] = None) -> list[RefinementRecord]:
    """Refinement records for every depth 0..n_max (one forward sweep)."""
    if n_max < 0:
        raise ValueError("refinement depth must be nonnegative")
    if measure_mode == "exact":
        return _exact_series(torus_map, part, n_max)
    if measure_mode == "mc":
        return _mc_series(torus_map, part, n_max, mc_config or McConfig())
    raise ConfigurationError(
        f"unknown measure mode {measure_mode!r}; "
        f"valid names: {', '.join(MEASURE_MODES)}")


def refine(torus_map: TorusMap, part: GridPartition, n: int,
           measure_mode: str = "exact",
           mc_config: Optional[McConfig] = None) -> RefinementRecord:
    """Refinement record at a single depth n."""
    return refine_series(torus_map, part, n, measure_mode, mc_config)[-1]


# --- entropy-rate estimates -------------------------------------------------

def fit_line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares (slope, R^2) of ys against xs; every fit uses this one.

    Constant ys count as perfectly fit.
    """
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    syy = math.fsum((y - y_mean) ** 2 for y in ys)
    slope = sxy / sxx
    if syy == 0.0:
        return slope, 1.0
    ss_res = max(syy - sxy * sxy / sxx, 0.0)
    return slope, 1.0 - ss_res / syy


def tail_slope(entropies) -> float:
    """Slope of H(n) for depths n = 0..n_max over the upper half n >= n_max/2.

    That half is where the transient from the initial partition has died out.
    """
    n_max = len(entropies) - 1
    tail = [n for n in range(n_max + 1) if 2 * n >= n_max]
    return fit_line(tail, [entropies[n] for n in tail])[0]


def _check_same_run(records) -> None:
    first = records[0]
    for r in records:
        if (r.map_name, r.grid) != (first.map_name, first.grid):
            raise ValueError("records mix maps or partitions")
    ns = [r.n for r in records]
    if ns != list(range(len(records))):
        raise ValueError("records must cover consecutive depths starting at 0")


def h_mu(records) -> float:
    """Entropy rate of one refinement series, as the tail slope of H versus n.

    The cruder H(n_max)/n_max estimate is available separately as
    h_mu_ratio.
    """
    records = list(records)
    if len(records) < 5:
        raise ValueError("need records for depths 0..n_max with n_max >= 4")
    _check_same_run(records)
    return tail_slope([r.entropy for r in records])


def h_mu_ratio(records) -> float:
    """H(n_max)/n_max, the textbook limit expression at finite depth."""
    records = list(records)
    if len(records) < 2:
        raise ValueError("need at least depths 0 and 1")
    _check_same_run(records)
    return records[-1].entropy / records[-1].n


@dataclass(frozen=True)
class HksEstimate:
    """Max of h_mu over a partition ladder, with the per-partition profile."""

    value: float
    profile: tuple  # ((m_q, m_p, h_mu), ...) in ladder order
    records: tuple  # per-partition tuple of RefinementRecords


def hks_estimate(torus_map: TorusMap, ladder, n_max: int,
                 measure_mode: str = "exact",
                 mc_config: Optional[McConfig] = None) -> HksEstimate:
    """Estimate the entropy rate as the max of h_mu over a grid ladder."""
    ladder = list(ladder)
    if not ladder:
        raise ConfigurationError("partition ladder is empty")
    sizes = [p.n_cells for p in ladder]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigurationError(
            "ladder must be strictly increasing in resolution")
    all_records = [tuple(refine_series(torus_map, part, n_max, measure_mode,
                                       mc_config))
                   for part in ladder]
    profile = tuple((part.m_q, part.m_p, h_mu(recs))
                    for part, recs in zip(ladder, all_records))
    return HksEstimate(max(h for _, _, h in profile), profile, tuple(all_records))
