"""Exact refinement against a rational oracle.

Every piece vertex of a cat or baker refinement on an m_q x m_p grid is
rational: the maps have integer or dyadic coefficients and the grid lines
are k/m.  So the per-polygon path of geometry (Sutherland-Hodgman clip,
affine image, wrap onto the torus, shoelace area) run on
fractions.Fraction gives the true words and measures of each depth.  Float
refinement must give the same words, baker's dyadic measures exactly, and
cat's measures to a relative error that grows like lambda^(2n), where
lambda = phi^2 is the cat map's expansion rate.
"""

import math
from fractions import Fraction

import pytest

from pesinlab import GridPartition, make_map, refine_series

PHI2 = (3.0 + math.sqrt(5.0)) / 2.0

# The worst relative error of a cat word's measure at depth n stays below
# 2^-53 * CAT_C * PHI2^(2n).  Measured, error / (2^-53 * PHI2^(2n)) on
# cat 3x5 reads 5.5, 24, 20, 62, 53 and 56 at depths 0-5, on cat 8x8 at
# most 20 to depth 3, and on cat 2x1 at most 0.21 to depth 4; CAT_C is
# about twice the largest.
CAT_C = 128

CASES = [("cat", 3, 5, 4), ("cat", 2, 1, 4), ("baker", 4, 2, 4)]


def _clip(poly, axis, c, keep_low):
    """geometry.clip_halfplane on exact vertices."""
    out = []
    for i, cur in enumerate(poly):
        nxt = poly[(i + 1) % len(poly)]
        cur_in = cur[axis] <= c if keep_low else cur[axis] >= c
        nxt_in = nxt[axis] <= c if keep_low else nxt[axis] >= c
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            t = (c - cur[axis]) / (nxt[axis] - cur[axis])
            cross = [a + t * (b - a) for a, b in zip(cur, nxt)]
            cross[axis] = c
            out.append(tuple(cross))
    return out if len(out) >= 3 else None


def _clip_rect(poly, q0, q1, p0, p1):
    for axis, c, keep_low in ((0, q0, False), (0, q1, True),
                              (1, p0, False), (1, p1, True)):
        poly = _clip(poly, axis, c, keep_low)
        if poly is None:
            return None
    return poly


def _area(poly):
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                   in zip(poly, poly[1:] + poly[:1]))) / 2


def _squares(lo, hi):
    # the integers i whose [i, i + 1] overlaps [lo, hi] with positive length
    return range(math.floor(lo), math.ceil(hi))


def _images(poly, branches):
    """geometry.branch_images on exact vertices."""
    out = []
    for br in branches:
        part = poly
        if br.rect is not None:
            part = _clip_rect(part, *map(Fraction, br.rect))
            if part is None:
                continue
        if br.affine is not None:
            a, b, c, d, e, f = map(Fraction, br.affine)
            part = [(a * x + b * y + e, c * x + d * y + f) for x, y in part]
        if not br.wrap:
            out.append(part)
            continue
        xs, ys = [x for x, _ in part], [y for _, y in part]
        for i in _squares(min(xs), max(xs)):
            for j in _squares(min(ys), max(ys)):
                piece = _clip_rect(part, i, i + 1, j, j + 1)
                if piece is not None:
                    out.append([(x - i, y - j) for x, y in piece])
    return out


def _cuts(poly, m_q, m_p):
    """(cell, cut) for each grid cell the piece meets in positive area."""
    xs, ys = [x for x, _ in poly], [y for _, y in poly]
    for iq in _squares(min(xs) * m_q, max(xs) * m_q):
        for ip in _squares(min(ys) * m_p, max(ys) * m_p):
            cut = _clip_rect(poly, Fraction(iq, m_q), Fraction(iq + 1, m_q),
                             Fraction(ip, m_p), Fraction(ip + 1, m_p))
            if cut is not None and _area(cut) > 0:
                yield iq * m_p + ip, cut


def oracle_series(name, m_q, m_p, depth):
    """Per depth 0..depth, {word: exact measure} of its nonempty words."""
    branches = make_map(name).branches
    pieces = {}
    for iq in range(m_q):
        for ip in range(m_p):
            q0, q1 = Fraction(iq, m_q), Fraction(iq + 1, m_q)
            p0, p1 = Fraction(ip, m_p), Fraction(ip + 1, m_p)
            pieces[(iq * m_p + ip,)] = [[(q0, p0), (q1, p0), (q1, p1), (q0, p1)]]
    series = []
    for n in range(depth + 1):
        if n:
            children = {}
            for word, polys in pieces.items():
                for poly in polys:
                    for image in _images(poly, branches):
                        for k, cut in _cuts(image, m_q, m_p):
                            children.setdefault(word + (k,), []).append(cut)
            pieces = children
        series.append({w: sum(map(_area, polys)) for w, polys in pieces.items()})
    return series


def oracle_codes(series, m):
    """RefinementRecord codes of each depth's words, in lex order."""
    codes, rows = [], {}
    for words in series:
        ordered = sorted(words)
        codes.append([rows.get(w[:-1], 0) * m + w[-1] for w in ordered])
        rows = {w: i for i, w in enumerate(ordered)}
    return codes


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "%s-%dx%d-d%d" % c)
def refined(request):
    name, m_q, m_p, depth = request.param
    records = refine_series(make_map(name), GridPartition(m_q, m_p), depth)
    return name, m_q * m_p, records, oracle_series(name, m_q, m_p, depth)


def test_word_codes_equal_the_oracles(refined):
    _, m, records, series = refined
    assert [r.codes.tolist() for r in records] == oracle_codes(series, m)


def test_measures_match_the_oracle(refined):
    name, _, records, series = refined
    for rec, words in zip(records, series):
        exact = [words[w] for w in sorted(words)]
        if name == "baker":
            # dyadic pieces: every measure is exact
            assert [Fraction(v) for v in rec.measures.tolist()] == exact
            continue
        worst = max(abs(Fraction(v) - e) / e
                    for v, e in zip(rec.measures.tolist(), exact))
        assert worst < 2.0 ** -53 * CAT_C * PHI2 ** (2 * rec.n), rec.n
