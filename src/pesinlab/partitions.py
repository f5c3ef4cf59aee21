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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geometry, limits
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
class RefinementRecord:
    """The nonempty words of depth n as parallel read-only arrays.

    Rows are in lexicographic word order.  codes[i] names row i by its
    length-n prefix: the prefix's row in the depth n-1 record times the
    alphabet size (the grid's cell count), plus the last symbol (at depth 0
    the symbol itself), as group_prefixes makes them; so codes ascend.
    word_rows turns a series of records back into symbol words.
    """

    n: int
    entropy: float
    codes: np.ndarray
    measures: np.ndarray
    map_name: str
    grid: tuple[int, int]
    mode: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("codes", "measures"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nonempty_words(self) -> int:
        return len(self.codes)

    @property
    def stderrs(self) -> np.ndarray:
        """Binomial sampling error of each measure; 0 for exact measures."""
        if self.mode != "mc":
            return np.zeros(len(self.measures))
        return np.sqrt(self.measures * (1.0 - self.measures)
                       / self.meta["n_samples"])


def word_rows(records: Sequence[RefinementRecord],
              rows: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Symbol words of the last record's rows, with their prefix measures.

    records is one refinement series from depth 0; rows picks rows of its
    last record (default: all, in lex order).  Returns words, (W, n+1)
    int32 with words[:, d] the symbol at depth d, and prefix_measures,
    (W, n+1) with column d the measure of the word's length-(d+1) prefix.
    """
    _check_same_run(records)
    m = records[0].grid[0] * records[0].grid[1]
    pos = np.arange(records[-1].nonempty_words) if rows is None \
        else np.asarray(rows, dtype=np.int64)
    words = np.empty((len(pos), len(records)), dtype=np.int32)
    prefix_measures = np.empty((len(pos), len(records)))
    for d in range(len(records) - 1, -1, -1):
        prefix_measures[:, d] = records[d].measures[pos]
        pos, words[:, d] = np.divmod(records[d].codes[pos], m)
    return words, prefix_measures


def group_prefixes(keys: np.ndarray):
    """Group equal integer keys in one sort.

    Returns order, the stable sorting permutation; starts, where each group
    begins in the sorted keys; codes, the distinct keys, ascending; and
    ids, the group of each sorted position.  Keys of prefix ids times the
    alphabet size plus a symbol make codes RefinementRecord codes.

    The keys are widened to int64, shifted left by shift bits, enough to
    hold any position, and each key's position fills those low bits.  The
    packed values are unique, so an in-place sort of them, whatever its
    algorithm, puts equal keys in position order: order is the low bits
    and the keys are the high ones.  Negative keys, and keys at or above
    2^(63 - shift), which would not fit, take a stable argsort instead.
    The keys are spent: an int64 array that is packed is sorted in place
    and returned as ids.
    """
    keys = np.asarray(keys, dtype=np.int64)
    shift = max(len(keys) - 1, 0).bit_length()
    if len(keys) == 0 or (keys.min() >= 0
                          and int(keys.max()) < 1 << (63 - shift)):
        keys <<= shift
        keys |= np.arange(len(keys))
        keys.sort()
        order = keys & ((1 << shift) - 1)
        keys >>= shift
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    codes = keys[starts]
    # the sorted keys are spent, so their buffer takes the ids
    ids = np.cumsum(new, out=keys)
    ids -= 1
    return order, starts, codes, ids


def prefix_levels(words: np.ndarray, m: int):
    """group_prefixes over the columns of (W, N) words on m symbols.

    Yields, per depth n, perm, the rows stably sorted by their length-(n+1)
    prefixes, with the depth's starts, codes and ids (ids[i] is the prefix
    of row perm[i]).  At the last depth words[perm[starts]] are the
    distinct rows in lexicographic order.
    """
    perm = np.arange(len(words))
    ids = np.zeros(len(words), dtype=np.int64)
    for n in range(words.shape[1]):
        order, starts, codes, ids = group_prefixes(ids * m + words[perm, n])
        perm = perm[order]
        yield perm, starts, codes, ids


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


# --- exact refinement -------------------------------------------------------

def _exact_record(n: int, codes: np.ndarray, measures: np.ndarray,
                  torus_map: TorusMap, part: GridPartition) -> RefinementRecord:
    return RefinementRecord(n, entropy_nats(measures.tolist()), codes, measures,
                            torus_map.name, (part.m_q, part.m_p), "exact")


def _keep_cuts(parts: dict, verts: np.ndarray, counts: np.ndarray,
               keys: np.ndarray, areas: np.ndarray) -> None:
    """Append one chunk's cuts thicker than _ZERO_AREA to parts, unpadded.

    parts maps a vertex count to a list of (verts, keys, areas) of cuts
    with that count, (r, count, 2) vertices each, in the order they came.
    """
    thick = areas > _ZERO_AREA
    if len(counts) and thick.all() and counts.min() == counts.max():
        # one count, so the batch is as wide as every row: no padding
        parts.setdefault(int(counts[0]), []).append((verts, keys, areas))
        return
    rows = np.flatnonzero(thick)
    rows = rows[np.argsort(counts[rows], kind="stable")]
    runs = np.flatnonzero(np.diff(counts[rows], prepend=-1, append=-1))
    for start, stop in zip(runs[:-1], runs[1:]):
        c, sel = int(counts[rows[start]]), rows[start:stop]
        parts.setdefault(c, []).append((verts[sel, :c], keys[sel], areas[sel]))


def _refine_pieces(verts: np.ndarray, counts: np.ndarray, owner: np.ndarray,
                   torus_map: TorusMap, part: GridPartition):
    """One depth of exact refinement over a store of pieces.

    A store keeps a depth's pieces unpadded: verts holds every piece's
    vertices in turn, (sum of counts, 2), with each piece's vertex count
    and owner row beside it.  The pieces are mapped forward a run of one
    count at a time, at most CHUNK_ROWS of them per pass, each pass a
    (rows, count, 2) view of the store; the images are cut with the grid
    cells and the cuts thicker than _ZERO_AREA are kept.  Returns the
    child words' codes (lex order) and measures, and their store as
    (verts, counts, owner row), grouped by ascending count, in the order
    the cuts came within a count.
    """
    q_edges = np.array([k / part.m_q for k in range(part.m_q + 1)])
    p_edges = np.array([k / part.m_p for k in range(part.m_p + 1)])
    parts: dict = {}
    runs = np.flatnonzero(np.diff(counts, prepend=-1, append=-1))
    at = 0
    for start, stop in zip(runs[:-1].tolist(), runs[1:].tolist()):
        c = int(counts[start])
        for lo in range(start, stop, geometry.CHUNK_ROWS):
            hi = min(lo + geometry.CHUNK_ROWS, stop)
            batch = verts[at:at + (hi - lo) * c].reshape(hi - lo, c, 2)
            at += (hi - lo) * c
            mv, mn, src = geometry.branch_images_batch(batch, counts[lo:hi],
                                                       torus_map.branches)
            cv, cn, img, iq, ip = geometry.grid_cuts_batch(mv, mn, q_edges, p_edges)
            keys = owner[lo:hi][src[img]] * part.n_cells + iq * part.m_p + ip
            _keep_cuts(parts, cv, cn, keys, geometry.polygon_area_batch(cv, cn))
    # the next store, count by count; each part is let go once copied, so
    # only one copy of the kept cuts is held
    cuts = [cut for c in sorted(parts) for cut in parts.pop(c)]
    keys = np.concatenate([k for _, k, _ in cuts])
    areas = np.concatenate([a for _, _, a in cuts])
    counts = np.repeat([v.shape[1] for v, _, _ in cuts], [len(v) for v, _, _ in cuts])
    verts = np.empty((int(counts.sum()), 2))
    at = 0
    cuts.reverse()
    while cuts:
        v = cuts.pop()[0].reshape(-1, 2)
        verts[at:at + len(v)] = v
        at += len(v)
    # a word's measure is an fsum, which does not depend on the order of
    # its pieces
    order, starts, codes, ids = group_prefixes(keys)
    owner = np.empty_like(ids)
    owner[order] = ids
    sizes = np.diff(starts, append=len(keys))
    measures = areas[order[starts]]
    for w in np.flatnonzero(sizes > 1):
        measures[w] = math.fsum(areas[order[starts[w]:starts[w] + sizes[w]]].tolist())
    return codes, measures, verts, counts, owner


def _exact_series(torus_map: TorusMap, part: GridPartition, n_max: int,
                  on_record: Optional[Callable[[RefinementRecord], None]]
                  ) -> list[RefinementRecord]:
    if torus_map.branches is None:
        raise UnsupportedOperationError(
            f"exact refinement needs piecewise-linear data, "
            f"which map {torus_map.name!r} does not provide")
    what = (f"exact refinement of {torus_map.name} on the "
            f"{part.m_q}x{part.m_p} grid to depth {n_max}")
    limits.check_bytes(limits.refinement_bytes(0, n_max), what, "--depth")
    # one piece per word at depth 0: the cell itself, a 4-gon, so the
    # padded batch of the cells is already their store
    verts, counts = geometry.as_batch(
        [geometry.rect_polygon(*part.cell_rect(k)) for k in range(part.n_cells)])
    measures = geometry.polygon_area_batch(verts, counts)
    verts = verts.reshape(-1, 2)
    codes = owner = np.arange(part.n_cells)
    records = []
    for n in range(n_max + 1):
        if n >= 2:
            limits.check_word_projection(records[-1].nonempty_words,
                                         records[-2].nonempty_words, n,
                                         n_max, what)
        if n > 0:
            codes, measures, verts, counts, owner = _refine_pieces(
                verts, counts, owner, torus_map, part)
        records.append(_exact_record(n, codes, measures, torus_map, part))
        if on_record is not None:
            on_record(records[-1])
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
    # entropy_nats runs faster over Python floats than numpy scalars
    if estimator == "plugin":
        return entropy_nats(freqs.tolist())
    if estimator == "miller_madow":
        return entropy_nats(freqs.tolist()) + (len(counts) - 1) / (2.0 * n_samples)
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


def _mc_record(codes: np.ndarray, counts: np.ndarray, n: int, cfg: McConfig,
               torus_map: TorusMap, part: GridPartition) -> RefinementRecord:
    meta = {"n_samples": cfg.n_samples, "seed": cfg.seed, "estimator": cfg.estimator}
    return RefinementRecord(n, _mc_entropy(counts, cfg.n_samples, cfg.estimator),
                            codes, counts / cfg.n_samples,
                            torus_map.name, (part.m_q, part.m_p), "mc", meta)


def _mc_series(torus_map: TorusMap, part: GridPartition, n_max: int,
               cfg: McConfig,
               on_record: Optional[Callable[[RefinementRecord], None]]
               ) -> list[RefinementRecord]:
    # the bound does not depend on the grid, so on a ladder the first grid
    # is refused before anything is allocated
    limits.check_bytes(limits.refinement_bytes(cfg.n_samples, n_max),
                       f"Monte Carlo refinement of {cfg.n_samples} samples "
                       f"to depth {n_max}", "--mc-samples or --depth")
    rng = np.random.default_rng(cfg.seed)
    pts = rng.random((cfg.n_samples, 2))
    m = part.n_cells

    # The cloud is kept in word order: after each depth's grouping the
    # points themselves are gathered by order, so row i of pts is the
    # sample whose word row is ids[i], and ids ascend.  Each point's
    # arithmetic does not depend on its row, and codes and counts do not
    # depend on the order of the samples inside a word.  The gather takes
    # each row as one complex item, which numpy moves faster than a row
    # of two floats.
    ids = np.zeros(cfg.n_samples, dtype=np.int64)
    records = []
    for n in range(n_max + 1):
        if n > 0:
            pts = torus_map.step_batch(pts)
        order, starts, codes, ids = group_prefixes(
            ids * m + part.cell_index_batch(pts))
        if n < n_max:
            pts = pts.view(complex)[:, 0][order].view(float).reshape(-1, 2)
        counts = np.diff(starts, append=cfg.n_samples)
        records.append(_mc_record(codes, counts, n, cfg, torus_map, part))
        if on_record is not None:
            on_record(records[-1])
    return records


def refine_series(torus_map: TorusMap, part: GridPartition, n_max: int,
                  measure_mode: str = "exact",
                  mc_config: Optional[McConfig] = None,
                  on_record: Optional[Callable[[RefinementRecord], None]] = None
                  ) -> list[RefinementRecord]:
    """Refinement records for every depth 0..n_max (one forward sweep).

    on_record, when given, is called with each record as soon as its depth
    is done, so callers can report progress while the sweep runs.
    """
    if n_max < 0:
        raise ValueError("refinement depth must be nonnegative")
    if measure_mode == "exact":
        return _exact_series(torus_map, part, n_max, on_record)
    if measure_mode == "mc":
        return _mc_series(torus_map, part, n_max, mc_config or McConfig(),
                          on_record)
    raise ConfigurationError(
        f"unknown measure mode {measure_mode!r}; "
        f"valid names: {', '.join(MEASURE_MODES)}")


def progress_line(record: RefinementRecord, n_max: int) -> str:
    """The progress line of one finished depth of an n_max-deep series."""
    return (f"depth {record.n}/{n_max}: {record.nonempty_words} words, "
            f"H={record.entropy:.6g}")


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
                 mc_config: Optional[McConfig] = None,
                 on_record: Optional[Callable[[RefinementRecord], None]] = None
                 ) -> HksEstimate:
    """Estimate the entropy rate as the max of h_mu over a grid ladder.

    on_record is passed to each grid's refine_series.
    """
    ladder = list(ladder)
    if not ladder:
        raise ConfigurationError("partition ladder is empty")
    sizes = [p.n_cells for p in ladder]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigurationError(
            "ladder must be strictly increasing in resolution")
    all_records = [tuple(refine_series(torus_map, part, n_max, measure_mode,
                                       mc_config, on_record))
                   for part in ladder]
    profile = tuple((part.m_q, part.m_p, h_mu(recs))
                    for part, recs in zip(ladder, all_records))
    return HksEstimate(max(h for _, _, h in profile), profile, tuple(all_records))
