import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesinlab import MAP_NAMES, geometry, make_map
from pesinlab.geometry import (Branch, _bounds, _crossing, affine_image,
                               as_batch, branch_images_batch, clip_to_rect,
                               clip_to_rect_batch, grid_cuts_batch,
                               polygon_area, polygon_area_batch, rect_polygon,
                               wrap_to_torus)

rng = np.random.default_rng(4)


def test_rect_area_is_exact():
    poly = rect_polygon(0.0, 0.5, 0.25, 0.75)
    assert polygon_area(poly) == 0.25


def test_dyadic_rect_areas_stay_exact():
    # the refinement engine relies on dyadic rectangle areas carrying no
    # rounding at all
    for k in range(1, 20):
        w = 2.0 ** -k
        assert polygon_area(rect_polygon(0.0, w, 0.0, 1.0)) == w


def test_clip_keeps_intersection():
    poly = rect_polygon(0.0, 1.0, 0.0, 1.0)
    cut = clip_to_rect(poly, 0.25, 0.75, 0.5, 1.0)
    assert cut is not None
    assert abs(polygon_area(cut) - 0.25) < 1e-15


def test_clip_disjoint_returns_none():
    poly = rect_polygon(0.0, 0.25, 0.0, 0.25)
    assert clip_to_rect(poly, 0.5, 1.0, 0.5, 1.0) is None


def test_clip_partial_triangle():
    tri = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    cut = clip_to_rect(tri, 0.0, 0.5, 0.0, 1.0)
    # trapezoid of area 1/2 - 1/8
    assert abs(polygon_area(cut) - 0.375) < 1e-15


def test_affine_scales_area_by_determinant():
    poly = rect_polygon(0.0, 0.5, 0.0, 0.5)
    img = affine_image(poly, 2.0, 0.0, 0.0, 0.5, 0.0, 0.0)
    assert abs(polygon_area(img) - 0.25) < 1e-15
    sheared = affine_image(poly, 1.0, 1.0, 0.0, 1.0, 0.3, -0.2)
    assert abs(polygon_area(sheared) - 0.25) < 1e-15


def test_wrap_translates_by_integers():
    poly = ((1.25, -0.5), (1.75, -0.5), (1.75, -0.25), (1.25, -0.25))
    pieces = wrap_to_torus(poly)
    assert len(pieces) == 1
    xs = sorted({x for x, _ in pieces[0]})
    ys = sorted({y for _, y in pieces[0]})
    assert xs == [0.25, 0.75] and ys == [0.5, 0.75]


def test_wrap_splits_straddling_polygon():
    poly = ((0.75, 0.0), (1.25, 0.0), (1.25, 0.5), (0.75, 0.5))
    pieces = wrap_to_torus(poly)
    assert len(pieces) == 2
    total = sum(polygon_area(p) for p in pieces)
    assert abs(total - 0.25) < 1e-15
    for piece in pieces:
        for x, y in piece:
            assert -1e-12 <= x <= 1.0 + 1e-12
            assert -1e-12 <= y <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_wrap_preserves_area(seed):
    local = np.random.default_rng(seed)
    x0, y0 = local.uniform(-2.0, 2.0, 2)
    w, h = local.uniform(0.05, 1.4, 2)
    poly = ((x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h))
    pieces = wrap_to_torus(poly)
    total = sum(polygon_area(p) for p in pieces)
    assert abs(total - w * h) < 1e-12


def test_wrap_drops_polygon_collapsed_onto_integer_point():
    # a zero-area piece on the integer point (1, 2) overlaps no torus
    # square strictly, so neither wrap keeps anything of it
    poly = ((1.0, 2.0), (1.0, 2.0), (1.0, 2.0))
    assert wrap_to_torus(poly) == []
    verts, counts, rows = branch_images_batch(*as_batch([poly]),
                                              (Branch(None, None, wrap=True),))
    assert len(counts) == 0 and len(rows) == 0


# --- batched kernel against the per-polygon oracle --------------------------

MATRICES = ((1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 0.5), (0.5, 0.0, 0.0, 2.0),
            (2.0, 1.0, 1.0, 1.0), (1.0, -1.0, -1.0, 2.0))
oracle_settings = settings(max_examples=60, deadline=None)


def dyadic(lo, hi, k=4):
    """Multiples of 2^-k in [lo, hi], so box edges often meet piece edges."""
    return st.integers(int(lo * 2 ** k), int(hi * 2 ** k)).map(lambda i: i / 2 ** k)


@st.composite
def boxes(draw, lo=-1.0, hi=2.0):
    """(q0, q1, p0, p1) with q0 < q1 and p0 < p1, dyadic or arbitrary."""
    coord = dyadic(lo, hi) | st.floats(lo, hi)
    q0, q1 = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
    p0, p1 = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
    return (q0, q1, p0, p1)


@st.composite
def convex_polygons(draw):
    """Dyadic rectangles and their images under the baker and cat matrices."""
    poly = rect_polygon(*draw(boxes(0.0, 1.0)))
    a, b, c, d = draw(st.sampled_from(MATRICES))
    e, f = draw(dyadic(-1.0, 1.0)), draw(dyadic(-1.0, 1.0))
    return affine_image(poly, a, b, c, d, e, f)


def rows_of(verts, counts):
    return [verts[r, :counts[r]].tobytes() for r in range(len(counts))]


def as_bytes(polys):
    return [np.array(p, dtype=float).tobytes() for p in polys]


@contextmanager
def chunk_rows(n):
    saved = geometry.CHUNK_ROWS
    geometry.CHUNK_ROWS = n
    try:
        yield
    finally:
        geometry.CHUNK_ROWS = saved


@oracle_settings
@given(st.lists(st.tuples(convex_polygons(), boxes()), min_size=1, max_size=12))
def test_batched_clip_matches_clip_to_rect(pairs):
    polys = [p for p, _ in pairs]
    rects = np.array([r for _, r in pairs])
    verts, counts, rows = clip_to_rect_batch(*as_batch(polys), rects)
    expected = [clip_to_rect(p, *r) for p, r in pairs]
    assert rows.tolist() == [i for i, cut in enumerate(expected) if cut is not None]
    kept = [cut for cut in expected if cut is not None]
    assert rows_of(verts, counts) == as_bytes(kept)
    areas = polygon_area_batch(verts, counts)
    assert areas.tobytes() == np.array([polygon_area(p) for p in kept]).tobytes()


@oracle_settings
@given(st.lists(convex_polygons(), min_size=1, max_size=12), st.integers(1, 8))
def test_batched_branches_match_forward_pieces(polys, chunk):
    with chunk_rows(chunk):
        verts, counts, rows = branch_images_batch(*as_batch(polys),
                                                  (Branch(None, None, wrap=True),))
        wrapped = [wrap_to_torus(p) for p in polys]
        assert rows_of(verts, counts) == as_bytes([w for ws in wrapped for w in ws])
        assert rows.tolist() == [i for i, ws in enumerate(wrapped) for _ in ws]
        # the pieces refinement sees lie on the torus; the rest anywhere
        pieces = polys + [w for ws in wrapped for w in ws]
        for name in MAP_NAMES:
            tmap = make_map(name)
            verts, counts, rows = branch_images_batch(*as_batch(pieces), tmap.branches)
            images = [tmap.forward_pieces(p) for p in pieces]
            assert rows_of(verts, counts) == as_bytes([w for ws in images for w in ws])
            assert rows.tolist() == [i for i, ws in enumerate(images) for _ in ws]


@oracle_settings
@given(st.lists(convex_polygons(), min_size=1, max_size=8), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 8))
def test_grid_cuts_skip_only_empty_cells(polys, m_q, m_p, chunk):
    q_edges = np.array([k / m_q for k in range(m_q + 1)])
    p_edges = np.array([k / m_p for k in range(m_p + 1)])
    with chunk_rows(chunk):
        verts, counts, rows, iq, ip = grid_cuts_batch(*as_batch(polys), q_edges, p_edges)
    got = dict(zip(zip(rows.tolist(), iq.tolist(), ip.tolist()), rows_of(verts, counts)))
    assert list(got) == sorted(got)
    for r, poly in enumerate(polys):
        for i in range(m_q):
            for j in range(m_p):
                cut = clip_to_rect(poly, q_edges[i], q_edges[i + 1],
                                   p_edges[j], p_edges[j + 1])
                if (r, i, j) in got:
                    assert got[(r, i, j)] == as_bytes([cut])[0]
                else:
                    # a skipped cell only touches the piece
                    assert cut is None or polygon_area(cut) == 0.0


@oracle_settings
@given(st.lists(st.tuples(convex_polygons(), boxes()), min_size=1, max_size=12),
       st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4))
def test_batched_clip_takes_any_wider_bounds(pairs, widen):
    # bounds wider than the rows' own only pick more rows to clip, and a
    # row with no vertex outside a side comes through that side unchanged
    polys = [p for p, _ in pairs]
    rects = np.array([r for _, r in pairs])
    verts, counts = as_batch(polys)
    lo, hi = _bounds(verts, counts)
    wide = (lo - np.array(widen[:2]), hi + np.array(widen[2:]))
    got_verts, got_counts, rows = clip_to_rect_batch(verts, counts, rects, wide)
    expected = [clip_to_rect(p, *r) for p, r in pairs]
    assert rows.tolist() == [i for i, cut in enumerate(expected) if cut is not None]
    assert rows_of(got_verts, got_counts) == as_bytes([c for c in expected if c is not None])


def test_batched_clip_follows_a_crossing_rounded_past_the_box():
    # the crossing of edge a -> b with x = b[0] rounds one ulp above b, the
    # top vertex, so y <= b[1] cuts the clipped piece again; a box left from
    # before the x clip would skip that side
    a = (0.7035592532691919, 0.4832589924501461)
    b = (0.4730523163219148, 0.834254054501082)
    assert _crossing(a, b, 0, b[0])[1] > b[1]
    poly = (a, b, (0.05, a[1]))
    rect = (0.0, b[0], 0.0, b[1])
    verts, counts, rows = clip_to_rect_batch(*as_batch([poly]), np.array([rect]))
    assert rows.tolist() == [0]
    assert rows_of(verts, counts) == as_bytes([clip_to_rect(poly, *rect)])


def test_batched_clip_drops_rows_under_three_vertices():
    # a segment inside the box is cut by no side, yet clip_to_rect gives None
    segment = ((0.25, 0.25), (0.5, 0.5))
    triangle = ((0.25, 0.25), (0.75, 0.25), (0.5, 0.75))
    rects = np.array([(0.0, 1.0, 0.0, 1.0)] * 2)
    assert clip_to_rect(segment, *rects[0]) is None
    verts, counts, rows = clip_to_rect_batch(*as_batch([segment, triangle]), rects)
    assert rows.tolist() == [1]
    assert rows_of(verts, counts) == as_bytes([triangle])


def _masked_bounds(verts, counts):
    pad = (np.arange(verts.shape[1]) >= counts[:, None])[:, :, None]
    return (np.where(pad, np.inf, verts).min(axis=1),
            np.where(pad, -np.inf, verts).max(axis=1))


@oracle_settings
@given(st.lists(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                         min_size=1, max_size=9), min_size=1, max_size=8))
def test_bounds_match_masked_reference(polys):
    verts, counts = as_batch(polys)
    verts[np.arange(verts.shape[1]) >= counts[:, None]] = 9.0  # junk padding
    for got, want in zip(_bounds(verts, counts), _masked_bounds(verts, counts)):
        assert np.array_equal(got, want)
    # a row without vertices gets a box that no line crosses
    lo, hi = _bounds(verts, np.zeros_like(counts))
    assert (lo == np.inf).all() and (hi == -np.inf).all()


@contextmanager
def counted_fsum(monkeypatch):
    calls = []

    def fsum(values):
        calls.append(1)
        return real_fsum(values)

    real_fsum = math.fsum
    monkeypatch.setattr(math, "fsum", fsum)
    yield calls


def _area_bytes(polys):
    return np.array([polygon_area(p) for p in polys]).tobytes()


@oracle_settings
@given(st.lists(st.lists(st.tuples(dyadic(-4.0, 4.0, 6), dyadic(-4.0, 4.0, 6)),
                         min_size=3, max_size=9), min_size=1, max_size=8))
def test_batched_area_of_dyadic_rows_needs_no_fsum(polys):
    want = _area_bytes(polys)
    with pytest.MonkeyPatch.context() as mp, counted_fsum(mp) as calls:
        got = polygon_area_batch(*as_batch(polys))
    assert got.tobytes() == want
    assert calls == []


@oracle_settings
@given(st.lists(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                         min_size=3, max_size=9), min_size=1, max_size=8))
def test_batched_area_matches_fsum_on_any_rows(polys):
    assert polygon_area_batch(*as_batch(polys)).tobytes() == _area_bytes(polys)


def test_batched_area_falls_back_on_cancelling_terms(monkeypatch):
    # shoelace terms 1e16, 1 and -1e16: added in order they give 0 or 2,
    # fsum gives 1
    poly = ((0.0, 0.0), (1e16, 1.0), (-1.0, 1.0), (0.0, 1e16))
    exact = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.25), (0.0, 0.25))
    assert polygon_area(poly) == 0.5
    with counted_fsum(monkeypatch) as calls:
        got = polygon_area_batch(*as_batch([exact, poly, exact]))
    assert got.tolist() == [0.125, 0.5, 0.125]
    assert len(calls) == 1


@pytest.mark.parametrize("poly", [
    ((1.0, 1.0), (math.inf, 1.0), (math.inf, 2.0), (1.0, 2.0)),  # inf - inf
    ((0.0, -1.0), (math.inf, 1.0), (0.0, 2.0)),                  # inf
    ((0.0, 0.0), (math.inf, 0.0), (0.0, 1.0)),                   # inf * 0
    ((0.0, 1.0), (1.5e308, 1.0), (0.0, 2.0)),                    # term inf
    ((0.0, 0.0), (1.5e308, 0.0), (1.5e308, 1.0), (0.0, 1.0)),    # sum inf
])
def test_batched_area_of_non_finite_rows_matches_fsum(poly):
    def outcome(area):
        try:
            return repr(float(area(poly)))
        except (ValueError, OverflowError) as exc:
            return type(exc)

    assert outcome(lambda p: polygon_area_batch(*as_batch([p]))[0]) == outcome(polygon_area)
