"""Convex polygon pieces on the unit torus, one at a time or in batches.

A piece is a convex polygon stored as a tuple of (x, y) vertex pairs in
counter-clockwise order.  All clipping is against axis-aligned lines, which
keeps axis-aligned rectangles with dyadic vertices bit-exact: a crossing
vertex on the line x = c gets its x coordinate set to c literally, and its
y coordinate is exact whenever the crossed edge is horizontal (the
interpolation term has a zero numerator).  That exactness is what lets the
baker-map refinement produce word measures that are exactly 2^-(n+1).

Batches.  The ``*_batch`` functions act on many pieces at once.  A batch is
a padded float64 vertex array ``verts`` of shape (N, V, 2) plus a vertex
count per row, ``counts`` (N,); vertices past a row's count are padding.
Functions that drop or split rows also return ``rows``, the input row each
output row came from, and keep the per-polygon output order.  Each batched
function repeats its per-polygon counterpart bit for bit:

* ``clip_to_rect_batch`` takes the four sides in clip_to_rect's order.  On
  each side it clips only the rows whose bounding box crosses the line
  (``hi > c`` for coord <= c, ``lo < c`` for coord >= c); any other row has
  no vertex outside, and clip_halfplane returns it unchanged.  A clipped
  row gets the same comparisons and the same crossing expression,
  ``a1 + (c - a0) * (b1 - a1) / (b0 - a0)`` with the clip coordinate set to
  c literally, and emits, for each vertex in order, the vertex if it is
  kept and then the crossing if its edge crosses.  The kept vertices lie
  in the old box, but a crossing can round an ulp outside it on the other
  axis, so the box takes in each crossing before the next side.  Rows left
  with fewer than 3 vertices, where clip_to_rect returns None, are dropped
  once, at the end.
* ``affine_image_batch`` evaluates ``a x + b y + e`` in the same order.
* ``polygon_area_batch`` adds each row's shoelace terms in order in numpy
  and keeps every addition's TwoSum error.  A row whose errors are all 0
  was summed exactly, so its sum is the correctly rounded ``math.fsum`` of
  the same terms; every other row, including rows with a non-finite term
  (whose error is NaN), is summed by fsum.  The area is
  ``0.5 * abs(sum)``, and the zero terms of the padding change no bit.

So a batched run gives the same vertices, and the same areas, as the
per-polygon functions; the tests check this on random convex polygons.
Exact refinement (partitions) computes each kept piece's area once and
takes a word's measure as the fsum of its pieces' areas, so neither the
order of the pieces nor the chunking changes a measure by a bit.

Pruning.  A piece is clipped against a box (a branch domain, or a cell of
a grid; the torus squares are the integer grid's cells) only when its
bounding box overlaps the box strictly.  Otherwise the clip is None, or it
keeps only vertices on one line of the box and its crossings, which lie on
that line too, so every shoelace term cancels against another and the
area is exactly 0.  The boxes come from ``_bounds``, once per batch, and
``grid_cuts_batch`` and ``branch_images_batch`` hand each pair's box on to
``clip_to_rect_batch``, which picks its sides by it.

Memory.  Every stage runs on at most ``CHUNK_ROWS`` rows at a time: the
(piece, cell) pairs of a grid cut, the rows of an area sum, and, in exact
refinement, the pieces mapped forward in one pass.  Scratch arrays stay
bounded whatever the number of pieces; only the pieces kept at a depth
are held in full, unpadded, in the store of ``partitions._refine_pieces``,
whose every pass is a batch of one vertex count and so has no padding.
The last depth of a series keeps only its pieces' keys and areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

Polygon = tuple[tuple[float, float], ...]

# rows (pieces, or (piece, box) pairs) per batched pass
CHUNK_ROWS = 2048

# the four half-planes of clip_to_rect, in its order: (axis, rect column,
# keep_low)
_RECT_SIDES = ((0, 0, False), (0, 1, True), (1, 2, False), (1, 3, True))


def rect_polygon(q0: float, q1: float, p0: float, p1: float) -> Polygon:
    return ((q0, p0), (q1, p0), (q1, p1), (q0, p1))


def polygon_area(poly: Polygon) -> float:
    """Area of a convex polygon by the shoelace sum.

    fsum keeps the result exact for dyadic rectangle vertices (every
    cross product is then exactly representable).
    """
    n = len(poly)
    terms = []
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        terms.append(x0 * y1)
        terms.append(-x1 * y0)
    return 0.5 * abs(math.fsum(terms))


def _crossing(a: tuple[float, float], b: tuple[float, float], axis: int, c: float) -> tuple[float, float]:
    # Zero numerator (edge parallel to the clip normal's orthogonal) must not
    # round: multiply before dividing so 0 * anything / d == 0 exactly.
    if axis == 0:
        y = a[1] + (c - a[0]) * (b[1] - a[1]) / (b[0] - a[0])
        return (c, y)
    x = a[0] + (c - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
    return (x, c)


def clip_halfplane(poly: Polygon, axis: int, c: float, keep_low: bool) -> Polygon | None:
    """Sutherland-Hodgman clip of a convex polygon against coord <= c (or >= c)."""
    out: list[tuple[float, float]] = []
    n = len(poly)
    for i in range(n):
        cur = poly[i]
        nxt = poly[(i + 1) % n]
        cur_in = (cur[axis] <= c) if keep_low else (cur[axis] >= c)
        nxt_in = (nxt[axis] <= c) if keep_low else (nxt[axis] >= c)
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            out.append(_crossing(cur, nxt, axis, c))
    if len(out) < 3:
        return None
    return tuple(out)


def clip_to_rect(poly: Polygon | None, q0: float, q1: float, p0: float, p1: float) -> Polygon | None:
    for axis, c, keep_low in ((0, q0, False), (0, q1, True), (1, p0, False), (1, p1, True)):
        if poly is None:
            return None
        poly = clip_halfplane(poly, axis, c, keep_low)
    return poly


def affine_image(poly: Polygon, a: float, b: float, c: float, d: float,
                 e: float, f: float) -> Polygon:
    """Image under (x, y) -> (a x + b y + e, c x + d y + f).

    Positive determinant assumed, so orientation is preserved.
    """
    return tuple((a * x + b * y + e, c * x + d * y + f) for x, y in poly)


def _torus_squares(lo: float, hi: float) -> range:
    # integer i with [i, i+1] overlapping [lo, hi] strictly, the grid-cut
    # rule: none when the span is a single integer point
    return range(math.floor(lo), math.ceil(hi))


def wrap_to_torus(poly: Polygon) -> list[Polygon]:
    """Split a polygon along integer lines and translate every piece into [0,1)^2."""
    xs = [v[0] for v in poly]
    ys = [v[1] for v in poly]
    pieces = []
    for i in _torus_squares(min(xs), max(xs)):
        for j in _torus_squares(min(ys), max(ys)):
            part = clip_to_rect(poly, float(i), float(i + 1), float(j), float(j + 1))
            if part is None:
                continue
            # translating by (0, 0) leaves a piece bit for bit unchanged
            pieces.append(tuple((x - i, y - j) for x, y in part))
    return pieces


@dataclass(frozen=True)
class Branch:
    """One affine branch of a piecewise-affine torus map.

    rect is the branch domain (q0, q1, p0, p1), or None for the whole
    square; affine holds the (a, b, c, d, e, f) of affine_image, or None for
    no change; wrap splits the image along integer lines back onto the
    torus.  A map's action on pieces is its tuple of branches, applied in
    order by branch_images (one polygon) or branch_images_batch (a batch).
    """

    rect: Optional[tuple[float, float, float, float]]
    affine: Optional[tuple[float, float, float, float, float, float]]
    wrap: bool = False


def _overlaps(poly: Polygon, rect) -> bool:
    xs = [v[0] for v in poly]
    ys = [v[1] for v in poly]
    q0, q1, p0, p1 = rect
    return q0 < max(xs) and q1 > min(xs) and p0 < max(ys) and p1 > min(ys)


def branch_images(poly: Polygon, branches: tuple[Branch, ...]) -> list[Polygon]:
    """Images of one polygon under each branch, in branch order."""
    out = []
    for br in branches:
        part = poly
        if br.rect is not None:
            part = clip_to_rect(poly, *br.rect) if _overlaps(poly, br.rect) else None
            if part is None:
                continue
        if br.affine is not None:
            part = affine_image(part, *br.affine)
        out.extend(wrap_to_torus(part) if br.wrap else [part])
    return out


# --- batches ----------------------------------------------------------------

def as_batch(polys) -> tuple[np.ndarray, np.ndarray]:
    """Padded (verts, counts) batch of a sequence of polygons."""
    counts = np.array([len(p) for p in polys], dtype=np.int64)
    verts = np.zeros((len(counts), int(counts.max(initial=0)), 2))
    for row, poly in enumerate(polys):
        verts[row, :len(poly)] = poly
    return verts, counts


def _next_index(counts: np.ndarray, width: int) -> np.ndarray:
    """(N, width) index of each vertex's successor, wrapping at the count."""
    col = np.arange(width)
    return np.where(col + 1 < counts[:, None], col + 1, 0)


def _bounds(verts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (min, max) vertex coordinates, each (N, 2).

    A row with no vertices gets (inf, -inf), a box that no line crosses.
    """
    lo = np.full((len(counts), 2), np.inf)
    hi = np.full((len(counts), 2), -np.inf)
    full = int(counts.min(initial=0))
    for j in range(verts.shape[1]):
        # columns below the smallest count hold no padding
        live = True if j < full else (counts > j)[:, None]
        np.minimum(lo, verts[:, j], out=lo, where=live)
        np.maximum(hi, verts[:, j], out=hi, where=live)
    return lo, hi


def _clip_rows(verts: np.ndarray, counts: np.ndarray, axis: int, c: np.ndarray,
               keep_low: bool) -> tuple[np.ndarray, ...]:
    """clip_halfplane of every row against coord <= c[row] (or >= c[row]).

    Returns (verts, counts) at a width of at least the input's, with zero
    padding, and the crossings as (row, point) arrays; a row that
    clip_halfplane would turn into None gets count 0.
    """
    n_rows, width = verts.shape[:2]
    valid = np.arange(width) < counts[:, None]
    coord = verts[:, :, axis]
    cur_in = valid & (coord <= c[:, None] if keep_low else coord >= c[:, None])
    nxt = _next_index(counts, width)
    cross = valid & (cur_in != np.take_along_axis(cur_in, nxt, axis=1))
    emit = np.empty((n_rows, 2 * width), dtype=bool)
    emit[:, 0::2] = cur_in
    emit[:, 1::2] = cross
    slot = np.cumsum(emit, axis=1) - 1
    out_n = slot[:, -1] + 1
    out = np.zeros((n_rows, max(width, int(out_n.max())), 2))
    r, k = np.nonzero(cur_in)
    out[r, slot[r, 2 * k]] = verts[r, k]
    r, k = np.nonzero(cross)
    a, b, cr = verts[r, k], verts[r, nxt[r, k]], c[r]
    other = 1 - axis
    pts = np.empty_like(a)
    pts[:, axis] = cr
    pts[:, other] = (a[:, other] + (cr - a[:, axis]) * (b[:, other] - a[:, other])
                     / (b[:, axis] - a[:, axis]))
    out[r, slot[r, 2 * k + 1]] = pts
    return out, np.where(out_n >= 3, out_n, 0), r, pts


def clip_to_rect_batch(verts: np.ndarray, counts: np.ndarray, rects: np.ndarray,
                       bounds=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """clip_to_rect of row i against rects[i] = (q0, q1, p0, p1).

    bounds is the rows' (lo, hi) of _bounds, or boxes containing them; it
    is computed when not given.  Returns (verts, counts, rows) of the rows
    whose clip is not None.
    """
    lo, hi = _bounds(verts, counts) if bounds is None else map(np.array, bounds)
    verts, counts = verts.copy(), counts.copy()
    for axis, col, keep_low in _RECT_SIDES:
        c = rects[:, col]
        todo = np.flatnonzero(hi[:, axis] > c if keep_low else lo[:, axis] < c)
        if todo.size == 0:
            continue
        out, n, r, pts = _clip_rows(verts[todo], counts[todo], axis, c[todo],
                                    keep_low)
        if out.shape[1] > verts.shape[1]:
            wider = np.zeros((len(counts), out.shape[1], 2))
            wider[:, :verts.shape[1]] = verts
            verts = wider
        verts[todo], counts[todo] = out, n
        # the kept vertices are old ones, but a crossing may round just
        # outside the old box on the other axis, so the boxes take it in
        other = 1 - axis
        np.minimum.at(lo[:, other], todo[r], pts[:, other])
        np.maximum.at(hi[:, other], todo[r], pts[:, other])
    rows = np.flatnonzero(counts >= 3)
    return verts[rows, :int(counts.max(initial=0))], counts[rows], rows


def affine_image_batch(verts: np.ndarray, a: float, b: float, c: float,
                       d: float, e: float, f: float) -> np.ndarray:
    """affine_image of every row."""
    x, y = verts[:, :, 0], verts[:, :, 1]
    return np.stack((a * x + b * y + e, c * x + d * y + f), axis=-1)


def polygon_area_batch(verts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """polygon_area of every row."""
    n_rows, width = verts.shape[:2]
    nxt = _next_index(counts, width)
    x, y = verts[:, :, 0], verts[:, :, 1]
    terms = np.empty((n_rows, width, 2))
    terms[:, :, 0] = x * np.take_along_axis(y, nxt, axis=1)
    terms[:, :, 1] = -np.take_along_axis(x, nxt, axis=1) * y
    terms[np.arange(width) >= counts[:, None]] = 0.0
    terms = terms.reshape(n_rows, 2 * width)
    # add the terms in order and keep each addition's TwoSum error: a row
    # whose errors are all 0 summed exactly, so its sum is fsum's; any
    # other (a non-finite term gives a NaN error) goes through fsum
    sums = np.zeros(n_rows)
    inexact = np.zeros(n_rows, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for term in terms.T:
            total = sums + term
            back = total - sums
            inexact |= (sums - (total - back)) + (term - back) != 0.0
            sums = total
    redo = np.flatnonzero(inexact)
    for lo in range(0, len(redo), CHUNK_ROWS):
        rows = redo[lo:lo + CHUNK_ROWS]
        sums[rows] = list(map(math.fsum, terms[rows].tolist()))
    return 0.5 * np.abs(sums)


def concat_batches(parts: list) -> tuple[np.ndarray, ...]:
    """Row-wise concatenation of (verts, counts, *row arrays) batches.

    Empties the parts list as it copies, so only one copy of the rows is
    held at the end.
    """
    width = max((p[0].shape[1] for p in parts), default=0)
    verts = np.zeros((sum(len(p[1]) for p in parts), width, 2))
    rest = [np.concatenate(cols) for cols in zip(*(p[1:] for p in parts))]
    at = 0
    while parts:
        v = parts.pop(0)[0]
        verts[at:at + len(v), :v.shape[1]] = v
        at += len(v)
    return (verts, *rest)


def _row_chunks(sizes: np.ndarray):
    """Row ranges [start, stop) holding at most CHUNK_ROWS pairs (or one row)."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + CHUNK_ROWS, side="right")),
                   start + 1)
        yield start, stop
        start = stop


def grid_cuts_batch(verts: np.ndarray, counts: np.ndarray,
                    q_edges: np.ndarray, p_edges: np.ndarray):
    """Clip every row against the cells of a grid it overlaps strictly.

    Cell (iq, ip) is [q_edges[iq], q_edges[iq+1]] x [p_edges[ip],
    p_edges[ip+1]].  The (row, cell) pairs run iq-major within a row and
    rows in order, CHUNK_ROWS pairs at a time.  Returns (verts, counts,
    rows, iq, ip) of the clips that are not None, by row and then by cell.
    """
    lo, hi = _bounds(verts, counts)
    iq0 = np.searchsorted(q_edges[1:], lo[:, 0], side="right")
    nq = np.maximum(np.searchsorted(q_edges[:-1], hi[:, 0], side="left") - iq0, 0)
    ip0 = np.searchsorted(p_edges[1:], lo[:, 1], side="right")
    npc = np.maximum(np.searchsorted(p_edges[:-1], hi[:, 1], side="left") - ip0, 0)
    sizes = nq * npc
    firsts = np.cumsum(sizes) - sizes
    parts = []
    for start, stop in _row_chunks(sizes):
        rows = np.repeat(np.arange(start, stop), sizes[start:stop])
        local = np.arange(firsts[start], firsts[start] + len(rows)) - firsts[rows]
        iq = iq0[rows] + local // npc[rows]
        ip = ip0[rows] + local % npc[rows]
        cells = np.column_stack((q_edges[iq], q_edges[iq + 1],
                                 p_edges[ip], p_edges[ip + 1]))
        v, n, kept = clip_to_rect_batch(verts[rows], counts[rows], cells,
                                        (lo[rows], hi[rows]))
        parts.append((v, n, rows[kept], iq[kept], ip[kept]))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros((0, 0, 2)), empty, empty, empty, empty
    return concat_batches(parts)


def branch_images_batch(verts: np.ndarray, counts: np.ndarray,
                        branches: tuple[Branch, ...]):
    """branch_images of every row; returns (verts, counts, rows)."""
    lo, hi = _bounds(verts, counts)
    parts = []
    for br in branches:
        v, n, rows = verts, counts, np.arange(len(counts))
        if br.rect is not None:
            q0, q1, p0, p1 = br.rect
            rows = np.flatnonzero((q0 < hi[:, 0]) & (q1 > lo[:, 0])
                                  & (p0 < hi[:, 1]) & (p1 > lo[:, 1]))
            rects = np.broadcast_to(np.array(br.rect, dtype=float), (len(rows), 4))
            v, n, kept = clip_to_rect_batch(verts[rows], counts[rows], rects,
                                            (lo[rows], hi[rows]))
            rows = rows[kept]
        if br.affine is not None:
            v = affine_image_batch(v, *br.affine)
        if br.wrap:
            # cut by the integer grid (padding vertices only widen it), then
            # move each cut back by its cell's corner
            q_edges, p_edges = map(np.arange, np.floor(v.min(axis=(0, 1), initial=0.0)),
                                   np.ceil(v.max(axis=(0, 1), initial=0.0)) + 1)
            v, n, sub, iq, ip = grid_cuts_batch(v, n, q_edges, p_edges)
            v = v - np.stack((q_edges[iq], p_edges[ip]), axis=-1)[:, None, :]
            rows = rows[sub]
        parts.append((v, n, rows))
    v, n, rows = concat_batches(parts)
    if len(branches) > 1:
        order = np.argsort(rows, kind="stable")
        v, n, rows = v[order], n[order], rows[order]
    return v, n, rows
