"""Partition refinement and entropy-rate estimates.

Words (k_0, ..., k_n) label the cells of the iterated join of a grid
partition with its dynamical preimages.  Their measures are obtained either
exactly, by propagating polygon pieces forward (the piece list of a word is
the n-step image of its cell, and the map preserves area), or by following a
cloud of sample points and counting word frequencies.  Either way the
deepest or largest depths run in tiles of whole words, and one join,
_join_tiles, offsets each tile's codes and joins its parts into the
depth's record.

The entropy kernel is shared by every caller so that two code paths fed the
same measures produce bit-identical entropies.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geometry, limits
from .errors import ConfigurationError, UnsupportedOperationError
from .forking import may_fork, stream
from .maps import TorusMap

# pieces thinner than this are clipping slivers, not cells
_ZERO_AREA = 1e-15

# floats entropy_nats turns into Python floats at a time
_FLOAT_CHUNK = 2 ** 14

# the most a tile's store is projected to grow before the last depth: a
# tile starts at no fewer than limits.EXACT_TILE_PIECES / _TILE_GROWTH
# pieces, since smaller tiles map smaller batches of each vertex count
_TILE_GROWTH = 8

# sample points _mc_counts and _mc_place draw at a time, about 55 bytes of
# scratch a point.  More rows than a tile holds on fine grids, so once a
# chunk's scratch is freed, glibc's malloc serves the tiles' temporaries
# from its heap rather than mapping and unmapping them every tile: at
# 2^14, cat 8x8 with 10^6 samples took 96,000 page faults against 17,000
# and 0.15 s more system time
_DRAW_ROWS = 2 ** 16

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

    A summary keeps n, the entropy, the word count and the run's
    description only: codes and measures are None, and nonempty_words is
    given.  A record with codes counts them.
    """

    n: int
    entropy: float
    codes: Optional[np.ndarray]
    measures: Optional[np.ndarray]
    map_name: str
    grid: tuple[int, int]
    mode: str
    meta: dict = field(default_factory=dict)
    nonempty_words: Optional[int] = None

    def __post_init__(self) -> None:
        if self.codes is None and self.measures is None:
            if self.nonempty_words is None:
                raise ValueError("a summary record needs its word count")
            return
        # a read-only array that owns its data is kept as it is; any other
        # is copied, so no caller's array is frozen or shared
        for name in ("codes", "measures"):
            arr = getattr(self, name)
            if not (isinstance(arr, np.ndarray) and arr.base is None
                    and not arr.flags.writeable):
                arr = np.array(arr)
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "nonempty_words", len(self.codes))

    def _check_words(self) -> None:
        if self.codes is None:
            raise ValueError(
                f"the depth-{self.n} record is a summary, with no codes or "
                "measures; refine with words=True to keep them")

    @property
    def stderrs(self) -> np.ndarray:
        """Binomial sampling error of each measure; 0 for exact measures."""
        self._check_words()
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
    for r in records:
        r._check_words()
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
    The nonzero values become Python floats _FLOAT_CHUNK at a time, whose
    terms are formed in C, so no list the size of values is built.
    """
    arr = values if isinstance(values, np.ndarray) else \
        np.fromiter(values, dtype=float)
    return _entropy_of_parts((arr,))


def _entropy_of_parts(parts: Iterable[np.ndarray]) -> float:
    """entropy_nats of the values of float arrays taken in turn, each let
    go once used; fsum is exact, so the bits are those of the joined array."""

    def terms(chunk):
        # the last chunk's floats are gone before this one's are made
        chunk = chunk[chunk != 0.0].tolist()
        return map(operator.mul, chunk, map(math.log, chunk))

    return -math.fsum(itertools.chain.from_iterable(
        terms(arr[lo:lo + _FLOAT_CHUNK])
        for arr in parts for lo in range(0, len(arr), _FLOAT_CHUNK)))


# --- exact refinement -------------------------------------------------------

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
                   torus_map: TorusMap, part: GridPartition, store: bool = True):
    """One depth of exact refinement over a store of pieces.

    A store keeps a depth's pieces unpadded: verts holds every piece's
    vertices in turn, (sum of counts, 2), with each piece's vertex count
    and owner row beside it.  The pieces are mapped forward a run of one
    count at a time, at most CHUNK_ROWS of them per pass, each pass a
    (rows, count, 2) view of the store; the images are cut with the grid
    cells and the cuts thicker than _ZERO_AREA are kept.  Returns the
    child words' codes (lex order) and measures, and their store as
    (verts, counts, owner row), grouped by ascending count, in the order
    the cuts came within a count.  With store false, as at a series' last
    depth, only each kept cut's key and area are kept, a pass's cut
    vertices go once their areas are known, and only codes and measures
    are returned.
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
            areas = geometry.polygon_area_batch(cv, cn)
            if store:
                _keep_cuts(parts, cv, cn, keys, areas)
            else:
                # no store: the pass's cut vertices are let go here
                thick = areas > _ZERO_AREA
                parts.setdefault(0, []).append((None, keys[thick], areas[thick]))
    # the next store, count by count; each part is let go once copied, so
    # only one copy of the kept cuts is held
    cuts = [cut for c in sorted(parts) for cut in parts.pop(c)]
    keys = np.concatenate([k for _, k, _ in cuts])
    areas = np.concatenate([a for _, _, a in cuts])
    if store:
        counts = np.repeat([v.shape[1] for v, _, _ in cuts],
                           [len(v) for v, _, _ in cuts])
        verts = np.empty((int(counts.sum()), 2))
        at = 0
        cuts.reverse()
        while cuts:
            v = cuts.pop()[0].reshape(-1, 2)
            verts[at:at + len(v)] = v
            at += len(v)
    del cuts
    # a word's measure is an fsum, which does not depend on the order of
    # its pieces
    order, starts, codes, ids = group_prefixes(keys)
    sizes = np.diff(starts, append=len(keys))
    measures = areas[order[starts]]
    for w in np.flatnonzero(sizes > 1):
        measures[w] = math.fsum(areas[order[starts[w]:starts[w] + sizes[w]]].tolist())
    if not store:
        return codes, measures
    owner = np.empty_like(ids)
    owner[order] = ids
    return codes, measures, verts, counts, owner


def _exact_tiles(owner: np.ndarray, n_words: list, n: int, n_max: int
                 ) -> Optional[list[tuple[int, int]]]:
    """Word-row bounds [w_lo, w_hi) of the tiles to cut the store entering
    depth n into, or None to refine it whole.

    The store of P pieces is projected to enter the last depth with
    P g^(n_max - n) pieces, g = R_{n-1} / R_{n-2} from n_words.  It is cut
    once that tops limits.EXACT_TILE_PIECES and g^(n_max - n) is at most
    _TILE_GROWTH, into the fewest tiles of about equal pieces that are each
    projected within the budget, so no tile starts below 1/_TILE_GROWTH of
    it.
    """
    if not 2 <= n < n_max:
        return None
    last = n_words[-1]
    growth = (last / n_words[-2]) ** (n_max - n)
    n_tiles = math.ceil(len(owner) * growth / limits.EXACT_TILE_PIECES)
    if n_tiles < 2 or growth > _TILE_GROWTH:
        return None
    # the first word row whose pieces, with those before it, reach each
    # tile's share of the store
    pieces = np.cumsum(np.bincount(owner, minlength=last))
    cuts = np.searchsorted(pieces, np.arange(1, n_tiles) * (len(owner) / n_tiles))
    bounds = [0, *np.unique(cuts + 1).tolist(), last]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]


def _exact_series(torus_map: TorusMap, part: GridPartition, n_max: int,
                  words: bool = True
                  ) -> Iterator[tuple[float, int, Optional[np.ndarray],
                                      Optional[np.ndarray]]]:
    """Yield the entropy, word count, codes and measures of depths
    0..n_max in turn.

    Each depth refines the store of the one before (_refine_pieces), so a
    depth holds its input store, one copy of its kept cuts and one pass's
    scratch.  The last depth builds no store: it holds its kept cuts' keys
    and areas only, and its input store is let go before it is yielded.

    Once the store entering a depth n is projected to enter the last depth
    above limits.EXACT_TILE_PIECES pieces (_exact_tiles), it is cut into
    tiles of whole word rows [w_lo, w_hi).  A word's pieces never leave its
    ancestor's, so each tile runs alone to n_max, its owner rows counted
    from w_lo, and only one tile's store is live.  Then _join_tiles joins
    the tiled depths in order, each after limits.check_word_projection is
    replayed for it (depth n's ran before the cut), so a refusal comes
    after the same lines as in a whole run.  A word's measure is an fsum
    over its own pieces, all in one tile, and a depth's entropy one fsum
    over its tiles' measures, so every bit is a whole run's.  Without
    words, a tiled depth's codes and measures are None.
    """
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
    codes = np.arange(part.n_cells)
    store = [verts.reshape(-1, 2), counts, codes]
    n_words = []  # R_0, R_1, ... of the depths made
    for n in range(n_max + 1):
        if n >= 2:
            limits.check_word_projection(n_words[-1], n_words[-2], n, n_max,
                                         what)
        tiles = _exact_tiles(store[2], n_words, n, n_max)
        if tiles:
            break
        if n > 0:
            codes, measures, *store = _refine_pieces(*store, torus_map, part,
                                                     n < n_max)
        n_words.append(len(codes))
        yield entropy_nats(measures), len(codes), codes, measures
        # a summary's arrays are not held while the next depth refines
        del codes, measures
    else:
        return  # every depth ran whole
    depths = [[] for _ in range(n, n_max + 1)]
    verts, counts, owner = store
    del store
    for i, (lo, hi) in enumerate(tiles):
        # a subsequence of the store is still grouped by count
        keep = (owner >= lo) & (owner < hi)
        tile = [verts[np.repeat(keep, counts)], counts[keep], owner[keep] - lo]
        del keep
        if i == len(tiles) - 1:
            # the last tile is cut, so the whole store goes
            del verts, counts, owner
        for d, parts in enumerate(depths, n):
            codes, measures, *tile = _refine_pieces(*tile, torus_map, part,
                                                    d < n_max)
            parts.append((codes if words else None, measures))
            del codes, measures

    def checked():
        for d, parts in enumerate(depths, n):
            if d > n:
                limits.check_word_projection(n_words[-1], n_words[-2], d,
                                             n_max, what)
            n_words.append(sum(len(v) for _, v in parts))
            yield parts

    yield from _join_tiles(checked(), [hi - lo for lo, hi in tiles],
                           part.n_cells, lambda parts: (
                               _entropy_of_parts(parts),
                               np.concatenate(parts) if words else None))


def _join_tiles(depths: Iterable[list], before: list, m: int,
                join: Callable[[list], tuple[float, Optional[np.ndarray]]]
                ) -> Iterator[tuple[float, int, Optional[np.ndarray],
                                    Optional[np.ndarray]]]:
    """Yield the entropy, word count, codes and measures of each depth
    from its tiles, the one join of exact and Monte Carlo refinement.

    depths yields, per depth, a list of each tile's (codes, values) in
    tile order.  A tile's codes are keys of its own word rows at the depth
    before, counted from 0, times m plus a symbol, in lex order, or None
    without words; before holds each tile's words at the depth before the
    first.  Each tile's codes are offset in place by the earlier tiles'
    words at the depth before, times m, so that, in turn, they join to the
    depth's.  join takes a list of the value parts, which it may empty as
    it uses them, and returns the entropy and the measures.  The depth's
    list is emptied before join runs, and join's list is let go before the
    depth is yielded, so no part outlives its use, whoever else holds the
    depth's list.
    """
    for parts in depths:
        codes = None
        if parts[0][0] is not None:
            offsets = itertools.accumulate(before, initial=0)
            codes = np.concatenate([np.add(c, at * m, out=c)
                                    for (c, _), at in zip(parts, offsets)])
        before = [len(v) for _, v in parts]
        values = [v for _, v in parts]
        parts.clear()
        entropy, measures = join(values)
        del values
        yield entropy, sum(before), codes, measures
        del codes, measures


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


def _mc_entropy(count_parts: list, n_samples: int, estimator: str,
                words: bool = True) -> tuple[float, Optional[np.ndarray]]:
    """The entropy and measures (None without words) of one depth from its
    tiles' word counts, in lex order.

    The measures, with words, and Grassberger's or Chao-Shen's per-word
    terms fill one word-sized array each, part by part; without words each
    part's measures are a part-sized temporary.  Each count part is let go
    once used.  Every step is elementwise, the terms are summed once over
    the whole array, and plugin and Miller-Madow take one fsum over the
    parts' measures, so the bits are those of the same steps on the joined
    counts.
    """
    n_words = sum(len(c) for c in count_parts)
    measures = np.empty(n_words) if words else None
    if estimator == "grassberger":
        g = _grassberger_terms(max(int(c.max()) for c in count_parts))
    elif estimator == "chao_shen":
        # rescale frequencies by the estimated coverage, then weight each
        # word by its probability of having been seen at all; reduces to
        # plugin when there are no singletons
        singles = sum(int((c == 1).sum()) for c in count_parts)
        coverage = max(1.0 - singles / n_samples, 1.0 / n_samples)

    def parts():
        # each part's rows, counts and measures, its count part let go
        at = 0
        count_parts.reverse()
        while count_parts:
            counts = count_parts.pop()
            rows = slice(at, at + len(counts))
            at += len(counts)
            yield rows, counts, np.divide(
                counts, n_samples, out=measures[rows] if words else None)

    if estimator in ("plugin", "miller_madow"):
        entropy = _entropy_of_parts(freqs for _, _, freqs in parts())
        if estimator == "miller_madow":
            entropy += (n_words - 1) / (2.0 * n_samples)
        return entropy, measures
    terms = np.empty(n_words)
    for rows, counts, freqs in parts():
        if estimator == "grassberger":
            np.multiply(counts, g[counts], out=terms[rows])
        else:
            # -sum(adj ln adj / seen), each step in place
            adj = freqs * coverage
            seen = np.subtract(1.0, adj)
            np.power(seen, n_samples, out=seen)
            np.subtract(1.0, seen, out=seen)
            np.log(adj, out=terms[rows])
            terms[rows] *= adj
            terms[rows] /= seen
    if estimator == "grassberger":
        return math.log(n_samples) - float(np.sum(terms)) / n_samples, measures
    return float(-np.sum(terms)), measures


def _mc_tiles(starts: np.ndarray, n_samples: int) -> list[tuple[int, int]]:
    """Row ranges of runs of whole depth-0 cells, each cut at the first
    cell start at least limits.MC_TILE_SAMPLES rows past its own."""
    cuts = [0]
    while cuts[-1] < n_samples:
        at = np.searchsorted(starts, cuts[-1] + limits.MC_TILE_SAMPLES)
        cuts.append(int(starts[at]) if at < len(starts) else n_samples)
    return list(zip(cuts[:-1], cuts[1:]))


def _mc_chunks(part: GridPartition, cfg: McConfig):
    """The cfg.n_samples seeded points, _DRAW_ROWS at a time, each chunk
    with its points' cells; chunked draws are the rows of one whole draw."""
    rng = np.random.default_rng(cfg.seed)
    for lo in range(0, cfg.n_samples, _DRAW_ROWS):
        pts = rng.random((min(_DRAW_ROWS, cfg.n_samples - lo), 2))
        yield pts, part.cell_index_batch(pts)


def _mc_counts(part: GridPartition, cfg: McConfig) -> np.ndarray:
    """Each grid cell's count of the seeded points: the first pass of the
    depth-0 counting sort, whose second is _mc_place."""
    counts = np.zeros(part.n_cells, dtype=np.int64)
    for _, cells in _mc_chunks(part, cfg):
        counts += np.bincount(cells, minlength=part.n_cells)
    return counts


def _mc_place(part: GridPartition, cfg: McConfig, cell_counts: np.ndarray,
              lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows [lo, hi) of the seeded points in word order at depth 0, lo and
    hi the bounds of whole cells, with no temporary larger than a chunk.

    The second pass of a counting sort over cell_counts (_mc_counts): it
    re-seeds, draws the same chunks, groups each by cell (group_prefixes)
    and moves the points of the cells in [lo, hi) into their next free
    rows.  A cell's rows keep their draw order, so the rows are those of
    the whole draw stably grouped by cell.  Returns them, one complex item
    a point, and ids, each row's depth-0 word row counted from lo's (int32:
    the byte cap keeps the samples far below 2^31).
    """
    free = np.cumsum(cell_counts) - cell_counts - lo
    # the cells whose rows are [lo, hi), as free rows from lo ascend
    first, last = np.searchsorted(free, (0, hi - lo))
    cloud = np.empty(hi - lo, dtype=complex)
    for pts, cells in _mc_chunks(part, cfg):
        order, starts, codes, _ = group_prefixes(cells)
        edges = np.append(starts, len(order))
        a, b = np.searchsorted(codes, (first, last))
        codes = codes[a:b]
        sizes = np.diff(edges[a:b + 1])
        rows = np.repeat(free[codes] - edges[a:b], sizes)
        rows += np.arange(edges[a], edges[b])
        cloud[rows] = pts.view(complex)[order[edges[a]:edges[b]], 0]
        free[codes] += sizes
    sizes = cell_counts[first:last]
    sizes = sizes[sizes > 0]
    return cloud, np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)


def _mc_steps(torus_map: TorusMap, part: GridPartition, n_max: int,
              cloud: np.ndarray, ids: np.ndarray, tiles: list, words: bool
              ) -> Iterator[list]:
    """Yield each tile's (codes, counts) at each depth 1..n_max, codes
    None without words, as _join_tiles takes them: a tile's ids are
    counted from its first row's, so its codes count its own word rows.
    The cloud and ids, which no caller may hold, go before the last."""
    m = part.n_cells
    for lo, hi in tiles:
        ids[lo:hi] -= ids[lo]
    for n in range(1, n_max + 1):
        parts = []
        for lo, hi in tiles:
            pts = torus_map.step_batch(cloud[lo:hi].view(float).reshape(-1, 2))
            order, starts, codes, local = group_prefixes(
                ids[lo:hi].astype(np.int64) * m + part.cell_index_batch(pts))
            if n < n_max:
                ids[lo:hi] = local
                # order is a permutation, so nothing is clipped, and a
                # clipped take writes out directly, with no buffer
                np.take(pts.view(complex)[:, 0], order, out=cloud[lo:hi],
                        mode="clip")
            parts.append((codes if words else None,
                          np.diff(starts, append=hi - lo)))
            # the tile's scratch goes before the next tile is made, and
            # is not held while the depth's record is
            del pts, order, starts, codes, local
        if n == n_max:
            # the last record is the largest, so the cloud makes room for it
            del cloud, ids
        yield parts


def _mc_series(torus_map: TorusMap, part: GridPartition, n_max: int,
               cfg: McConfig, words: bool = True
               ) -> Iterator[tuple[float, int, Optional[np.ndarray],
                                   Optional[np.ndarray]]]:
    """Yield the entropy, word count, codes and measures of depths
    0..n_max in turn, from the words of cfg.n_samples seeded points, in one
    loop on one process or two (forking.stream); without words the codes
    and measures are None, and no codes are joined or sent."""
    limits.check_bytes(limits.refinement_bytes(cfg.n_samples, n_max),
                       f"Monte Carlo refinement of {cfg.n_samples} samples "
                       f"to depth {n_max}", "--mc-samples or --depth")

    # The cloud is kept in word order: _mc_place places it so, and after
    # each grouping the points themselves are gathered by order, so row i
    # of the cloud is the sample whose word row is ids[i], and ids ascend.
    # A depth-0 cell is then a run of rows that no later word leaves, so
    # each depth runs one tile of whole cells at a time (_mc_tiles), and
    # every temporary is tile-sized.  Each tile counts its word rows from
    # 0, and _join_tiles joins the tiles' codes and counts, in lex order,
    # to the depth's.  Each point's arithmetic does not depend on its row,
    # and codes and counts do not depend on the order of the samples
    # inside a word.  The gather takes each row as one complex item, which
    # numpy moves faster than a row of two floats.
    #
    # Depth 0 and the tiles come from the cells' counts (_mc_counts), so
    # tiles never meet, and with two tiles or more and forking.may_fork(),
    # the run forks once, before any point is placed.  A child takes the
    # tiles from the one that starts nearest the middle sample, base: it
    # places rows [base, N) itself, so neither process holds the other's
    # rows.  At each depth it sends each tile's codes (with words) and
    # counts through forking.stream, and they follow this process's tiles
    # in the depth's list, so every bit and every progress line is the
    # same.  Each side's parts are tile-sized, so this process holds what a
    # one-process run would, less the child's rows.  With no split this
    # process places and runs every row, the child's share is empty, and
    # nothing forks.
    cell_counts = _mc_counts(part, cfg)
    codes = np.flatnonzero(cell_counts)
    counts = cell_counts[codes]
    starts = np.cumsum(counts) - counts
    tiles = _mc_tiles(starts, cfg.n_samples)
    # each tile's words at depth 0: the cells that start in it
    before = np.diff(np.searchsorted(
        starts, [lo for lo, _ in tiles] + [cfg.n_samples])).tolist()
    depth0 = [(codes if words else None, counts)]
    del codes, counts, starts

    def join(count_parts):
        return _mc_entropy(count_parts, cfg.n_samples, cfg.estimator, words)

    yield from _join_tiles([depth0], [1], part.n_cells, join)
    k = min(range(1, len(tiles)), default=0,
            key=lambda t: abs(2 * tiles[t][0] - cfg.n_samples))
    if not (n_max and k and may_fork()):
        k = len(tiles)
    base = tiles[k - 1][1]
    theirs = [(lo - base, hi - base) for lo, hi in tiles[k:]]

    def child():
        for parts in _mc_steps(torus_map, part, n_max, *_mc_place(
                part, cfg, cell_counts, base, cfg.n_samples), theirs, words):
            arrays = [a for tile in parts for a in tile if a is not None]
            parts.clear()
            yield arrays
            # sent, so the depth's parts go before the next depth runs
            arrays.clear()

    with stream(child if theirs else None) as receive:
        def depths():
            for parts in _mc_steps(torus_map, part, n_max, *_mc_place(
                    part, cfg, cell_counts, 0, base), tiles[:k], words):
                parts += [(receive() if words else None, receive())
                          for _ in theirs]
                yield parts

        yield from _join_tiles(depths(), before, part.n_cells, join)


def refine_series(torus_map: TorusMap, part: GridPartition, n_max: int,
                  measure_mode: str = "exact",
                  mc_config: Optional[McConfig] = None,
                  progress: Optional[Callable[[str], None]] = None,
                  words: bool = True) -> list[RefinementRecord]:
    """Refinement records for every depth 0..n_max (one forward sweep).

    With words false each record is a summary (RefinementRecord): it keeps
    n, the entropy, the word count and meta, and each depth's codes and
    measures are let go once the record is made, so a caller that reads
    only R_n and H holds no word arrays.  The entropies are those of full
    records.

    progress, when given, is called with each depth's line, "depth n/n_max:
    W words, H=h", as soon as that depth is done, so callers can report
    progress while the sweep runs; exact depths run in tiles are done
    together, once their last tile is.  The sweep starts at once, so a run
    past a resource limit is refused here, before any cell or sample is
    made.
    """
    if n_max < 0:
        raise ValueError("refinement depth must be nonnegative")
    if measure_mode == "exact":
        depths, meta = _exact_series(torus_map, part, n_max, words), {}
    elif measure_mode == "mc":
        cfg = mc_config or McConfig()
        depths = _mc_series(torus_map, part, n_max, cfg, words)
        meta = {"n_samples": cfg.n_samples, "seed": cfg.seed,
                "estimator": cfg.estimator}
    else:
        raise ConfigurationError(
            f"unknown measure mode {measure_mode!r}; "
            f"valid names: {', '.join(MEASURE_MODES)}")
    records = []
    try:
        # no enumerate: its cached result tuple would hold a depth's arrays
        # while the next depth is made
        for entropy, n_words, codes, measures in depths:
            n, arrays = len(records), (None, None)
            if words:
                # both arrays own their data and are not written again, so
                # the record keeps them, read-only, instead of copying them
                codes.setflags(write=False)
                measures.setflags(write=False)
                arrays = (codes, measures)
            records.append(RefinementRecord(
                n, entropy, *arrays, torus_map.name, (part.m_q, part.m_p),
                measure_mode, dict(meta), n_words))
            # a summary's arrays go before the next depth is made
            del codes, measures
            if progress is not None:
                progress(f"depth {n}/{n_max}: {records[-1].nonempty_words} "
                         f"words, H={entropy:.6g}")
    finally:
        # a forked worker is reaped here if progress raises, not whenever
        # the traceback lets the producer go
        depths.close()
    return records


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
                 progress: Optional[Callable[[str], None]] = None,
                 words: bool = True) -> HksEstimate:
    """Estimate the entropy rate as the max of h_mu over a grid ladder.

    progress and words are passed to each grid's refine_series; on a
    ladder of two or more grids each progress line starts with its grid,
    "grid AxB ", and with words false every record is a summary.  A
    ladder keeps every grid's records, so all of them are checked against
    the byte cap before the first grid runs; one grid is checked by
    refine_series.
    """
    ladder = list(ladder)
    if not ladder:
        raise ConfigurationError("partition ladder is empty")
    sizes = [p.n_cells for p in ladder]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigurationError(
            "ladder must be strictly increasing in resolution")
    if len(ladder) > 1:
        mc = measure_mode == "mc"
        n_samples = (mc_config or McConfig()).n_samples if mc else 0
        limits.check_bytes(
            limits.refinement_bytes(n_samples, n_max, len(ladder)),
            f"a ladder of {len(ladder)} grids refined to depth {n_max}",
            "--ladder, --mc-samples or --depth" if mc else "--ladder or --depth")
    all_records = []
    for part in ladder:
        sink = progress
        if progress is not None and len(ladder) > 1:
            def sink(line, grid=f"grid {part.m_q}x{part.m_p} "):
                progress(grid + line)
        all_records.append(tuple(refine_series(
            torus_map, part, n_max, measure_mode, mc_config, sink, words)))
    profile = tuple((part.m_q, part.m_p, h_mu(recs))
                    for part, recs in zip(ladder, all_records))
    return HksEstimate(max(h for _, _, h in profile), profile, tuple(all_records))
