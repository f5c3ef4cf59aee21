"""The exact-refinement store: each depth's pieces unpadded, by vertex count.

The oracle is the padded, row-order loop the store replaced: each chunk a
slice of rows, every batch padded to its widest piece, and the kept cuts
concatenated at the widest chunk's width.  Records must not move by a bit.
The deepest depths of a large run are refined in tiles of whole words; the
reference for those is the same run with every depth whole.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesinlab import (GridPartition, ResourceLimitError, geometry, limits,
                      make_map, partitions, refine_series)

# tracemalloc peaks of exact refinement, stated in the README.  Cat 8x8 to
# depth 6 measured 9.35 MiB with the last depth keeping only keys and
# areas; 19.5 when it built a store like the others, 24.4 when every kept
# cut was held until the next store was whole, and 54.4 for the padded
# loop.  Baker 2x1 to depth 14 measured 4.31 MiB, and 7.55 with a last
# store
EXACT_CAT_DEPTH6_PEAK_BYTES = 12 * 2 ** 20
EXACT_BAKER_DEPTH14_PEAK_BYTES = 5.5 * 2 ** 20


def _padded_refine_pieces(verts, counts, owner, torus_map, part):
    """One depth of the padded, row-order refinement: the oracle."""
    q_edges = np.array([k / part.m_q for k in range(part.m_q + 1)])
    p_edges = np.array([k / part.m_p for k in range(part.m_p + 1)])
    kept = []
    for lo in range(0, len(counts), geometry.CHUNK_ROWS):
        hi = lo + geometry.CHUNK_ROWS
        mv, mn, src = geometry.branch_images_batch(verts[lo:hi], counts[lo:hi],
                                                   torus_map.branches)
        cv, cn, img, iq, ip = geometry.grid_cuts_batch(mv, mn, q_edges, p_edges)
        areas = geometry.polygon_area_batch(cv, cn)
        thick = areas > partitions._ZERO_AREA
        keys = owner[lo:hi][src[img]] * part.n_cells + iq * part.m_p + ip
        kept.append((cv[thick], cn[thick], keys[thick], areas[thick]))
    verts, counts, keys, areas = geometry.concat_batches(kept)
    order, starts, codes, ids = partitions.group_prefixes(keys)
    owner = np.empty_like(ids)
    owner[order] = ids
    sizes = np.diff(starts, append=len(keys))
    measures = areas[order[starts]]
    for w in np.flatnonzero(sizes > 1):
        measures[w] = math.fsum(areas[order[starts[w]:starts[w] + sizes[w]]].tolist())
    return codes, measures, verts[:, :int(counts.max(initial=0))], counts, owner


def _padded_stores(name, m_q, m_p, n_max):
    """Yield (codes, measures, verts, counts, owner) of the oracle per depth."""
    torus_map, part = make_map(name), GridPartition(m_q, m_p)
    verts, counts = geometry.as_batch(
        [geometry.rect_polygon(*part.cell_rect(k)) for k in range(part.n_cells)])
    codes = owner = np.arange(part.n_cells)
    measures = geometry.polygon_area_batch(verts, counts)
    yield codes, measures, verts, counts, owner
    for _ in range(n_max):
        codes, measures, verts, counts, owner = _padded_refine_pieces(
            verts, counts, owner, torus_map, part)
        yield codes, measures, verts, counts, owner


def _record_bytes(codes, measures, entropy):
    return codes.dtype.str, codes.tobytes(), measures.tobytes(), repr(entropy)


@functools.lru_cache(maxsize=None)
def _oracle_records(name, m_q, m_p, n_max):
    return [_record_bytes(codes, measures, partitions.entropy_nats(measures.tolist()))
            for codes, measures, *_ in _padded_stores(name, m_q, m_p, n_max)]


def _store_series(name, m_q, m_p, n_max):
    """refine_series with every _refine_pieces call's (args, result)."""
    calls = []
    refine = partitions._refine_pieces

    def spy(*args):
        out = refine(*args)
        calls.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_refine_pieces", spy)
        recs = refine_series(make_map(name), GridPartition(m_q, m_p), n_max)
    return recs, calls


ORACLE_CASES = [("identity", 2, 2, 4), ("baker", 2, 1, 10), ("baker", 4, 2, 10),
                ("cat", 3, 3, 5), ("cat", 3, 5, 5), ("cat", 8, 8, 5)]


def _case_id(case):
    return "%s-%dx%d-d%d" % case


# chunks of 1, 3 and 64 pieces split the runs of one count at many places,
# and the oracle splits its rows elsewhere; cat 8x8 would take 27 s at 1
# and 3 (2-core Xeon), so it runs at 64 only, and at the default in the
# golden records
@pytest.mark.parametrize("case,chunk", [
    (case, chunk) for case in ORACLE_CASES for chunk in (1, 3, 64)
    if chunk == 64 or case[1:3] != (8, 8)],
    ids=lambda v: _case_id(v) if isinstance(v, tuple) else str(v))
def test_store_records_match_padded_oracle(case, chunk, monkeypatch):
    name, m_q, m_p, depth = case
    want = _oracle_records(*case)
    monkeypatch.setattr(geometry, "CHUNK_ROWS", chunk)
    recs = refine_series(make_map(name), GridPartition(m_q, m_p), depth)
    assert [_record_bytes(r.codes, r.measures, r.entropy) for r in recs] == want


def _piece_set(codes, verts, counts, owner):
    """The pieces as a sorted list of (owner's code, vertex bytes)."""
    firsts = np.cumsum(counts) - counts
    return sorted((int(codes[w]), verts[at:at + c].tobytes())
                  for w, at, c in zip(owner.tolist(), firsts.tolist(),
                                      counts.tolist()))


@pytest.mark.parametrize("case", [("baker", 4, 2, 6), ("cat", 3, 5, 4),
                                  ("cat", 8, 8, 3)], ids=_case_id)
def test_store_is_unpadded_and_holds_the_oracles_pieces(case):
    recs, calls = _store_series(*case)
    oracle = list(_padded_stores(*case))
    assert len(calls) == len(oracle) - 1 == case[3]
    *store_calls, (last_args, last) = calls
    for (_, (codes, _, verts, counts, owner)), want in zip(store_calls, oracle[1:]):
        # exactly sum(counts) vertices of two floats, grouped by count
        assert verts.dtype == np.float64 and verts.shape == (counts.sum(), 2)
        assert verts.flags.c_contiguous
        assert (np.diff(counts) >= 0).all() and len(owner) == len(counts)
        w_codes, _, w_verts, w_counts, w_owner = want
        unpadded = np.concatenate([row[:c] for row, c in zip(w_verts, w_counts)])
        assert (_piece_set(codes, verts, counts, owner)
                == _piece_set(w_codes, unpadded, w_counts, w_owner))
        # the oracle pads: cat's duplicated vertices make some pieces wide
        if case[0] == "cat":
            assert w_verts.size > verts.size
    # the last depth builds no store: its codes and measures only
    assert last_args[-1] is False and len(last) == 2
    assert last[0].tobytes() == oracle[-1][0].tobytes()
    assert last[1].tobytes() == oracle[-1][1].tobytes()


@pytest.mark.parametrize("case", [("baker", 2, 1, 8), ("cat", 3, 5, 5),
                                  ("cat", 8, 8, 5)], ids=_case_id)
def test_each_batch_is_a_view_of_one_count(case, monkeypatch):
    stores, widths = [], []
    refine, images = partitions._refine_pieces, geometry.branch_images_batch

    def spy_refine(verts, *args):
        stores.append(verts)
        return refine(verts, *args)

    def spy_images(verts, counts, branches):
        assert (counts == verts.shape[1]).all()
        assert np.shares_memory(verts, stores[-1])
        widths.append(verts.shape[1])
        return images(verts, counts, branches)

    monkeypatch.setattr(partitions, "_refine_pieces", spy_refine)
    monkeypatch.setattr(geometry, "branch_images_batch", spy_images)
    refine_series(make_map(case[0]), GridPartition(*case[1:3]), case[3])
    assert len(stores) == case[3] and widths
    if case[0] == "cat":
        assert len(set(widths)) > 1


def _permuted(verts, counts, owner, perm):
    """The store with its pieces in the order perm."""
    firsts = np.cumsum(counts) - counts
    sizes = counts[perm]
    local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return verts[np.repeat(firsts[perm], sizes) + local], sizes, owner[perm]


@functools.lru_cache(maxsize=None)
def _depth_call(name, m_q, m_p, n):
    """Arguments and result of the _refine_pieces call that makes depth n."""
    return _store_series(name, m_q, m_p, n)[1][-1]


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from([("baker", 2, 1, 5), ("baker", 4, 2, 3),
                             ("cat", 3, 3, 3), ("cat", 3, 5, 2),
                             ("cat", 8, 8, 2)]),
       chunk=st.sampled_from([3, 64, 2048]), seed=st.integers(0, 2 ** 32 - 1),
       store=st.booleans())
def test_a_permuted_store_gives_the_same_record(case, chunk, seed, store):
    # the input store need not be grouped: a run is any stretch of one count;
    # the call that made depth n was the last depth's, which builds no store,
    # and the store path must give the same record
    (verts, counts, owner, torus_map, part, _), (codes, measures) = _depth_call(*case)
    perm = np.random.default_rng(seed).permutation(len(counts))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "CHUNK_ROWS", chunk)
        got = partitions._refine_pieces(*_permuted(verts, counts, owner, perm),
                                        torus_map, part, store)
    assert got[0].tobytes() == codes.tobytes()
    assert got[1].tobytes() == measures.tobytes()


# depth n is made without a store when it is the last depth, and with one
# when a deeper depth follows; the two must give the same record.  On the
# 1x1 and 2x1 grids a word has several pieces, so its measure is an fsum
@pytest.mark.parametrize("case", [("identity", 2, 2, 4), ("baker", 2, 1, 8),
                                  ("baker", 4, 2, 5), ("cat", 3, 5, 4),
                                  ("cat", 8, 8, 4), ("baker", 1, 1, 4),
                                  ("cat", 1, 1, 4), ("cat", 2, 1, 4)],
                         ids=_case_id)
def test_last_depth_record_matches_the_store_paths(case):
    name, m_q, m_p, depth = case
    torus_map, part = make_map(name), GridPartition(m_q, m_p)
    stored = refine_series(torus_map, part, depth + 1)
    for n in range(depth + 1):
        last = refine_series(torus_map, part, n)[-1]
        assert last.n == stored[n].n == n
        assert (_record_bytes(last.codes, last.measures, last.entropy)
                == _record_bytes(stored[n].codes, stored[n].measures,
                                 stored[n].entropy))


def _refinement_peak(name, m_q, m_p, depth):
    tracemalloc.start()
    try:
        refine_series(make_map(name), GridPartition(m_q, m_p), depth)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_refinement_peak_memory_is_bounded():
    assert _refinement_peak("cat", 8, 8, 6) < EXACT_CAT_DEPTH6_PEAK_BYTES


def test_exact_baker_peak_memory_is_bounded():
    assert _refinement_peak("baker", 2, 1, 14) < EXACT_BAKER_DEPTH14_PEAK_BYTES


# --- tiles of whole words ---------------------------------------------------

# (budget, growth): limits.EXACT_TILE_PIECES and partitions._TILE_GROWTH.
# A budget of 1 with the default growth cuts the last depths into tiles of
# a few words; a huge growth cuts at depth 2, so most depths are tiled
TILINGS = [(1, partitions._TILE_GROWTH), (64, 10 ** 9), (2048, 10 ** 9)]

# cat 2x1 has several pieces a word; identity's store never grows, so only
# a budget below its 4 pieces cuts it
TILED_CASES = [("baker", 2, 1, 12), ("cat", 8, 8, 4), ("cat", 2, 1, 8),
               ("cat", 3, 5, 5), ("identity", 2, 2, 5)]


def _traced_series(case, words, budget, growth=partitions._TILE_GROWTH):
    """refine_series at a tile budget, or the word-cap refusal it raised,
    with its word projection checks and progress lines in order, and the
    tile plans it cut."""
    name, m_q, m_p, depth = case
    events = []
    check, tiles = limits.check_word_projection, partitions._exact_tiles

    def spy_check(*args):
        events.append(("check", args))
        check(*args)

    def spy_tiles(*args):
        plan = tiles(*args)
        events.append(("tiles", args[2], plan))
        return plan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "EXACT_TILE_PIECES", budget)
        mp.setattr(partitions, "_TILE_GROWTH", growth)
        mp.setattr(limits, "check_word_projection", spy_check)
        mp.setattr(partitions, "_exact_tiles", spy_tiles)
        try:
            recs = refine_series(make_map(name), GridPartition(m_q, m_p), depth,
                                 progress=lambda line: events.append(
                                     ("line", line)),
                                 words=words)
        except ResourceLimitError as exc:
            recs = (type(exc), str(exc))
    plans = [plan for kind, *rest in events if kind == "tiles"
             for plan in rest[1:] if plan]
    return recs, [e for e in events if e[0] != "tiles"], plans


def _series_bytes(recs):
    return [(r.n, repr(r.entropy), r.nonempty_words, r.meta, r.mode,
             None if r.codes is None else
             _record_bytes(r.codes, r.measures, r.entropy)) for r in recs]


@pytest.mark.parametrize("words", [True, False], ids=["full", "summary"])
@pytest.mark.parametrize("tiling", TILINGS, ids=lambda t: "b%d-g%d" % t)
@pytest.mark.parametrize("case", TILED_CASES, ids=_case_id)
def test_tiled_series_equals_the_whole_store_series(case, tiling, words):
    whole, whole_events, whole_plans = _traced_series(case, words, 2 ** 62)
    tiled, tiled_events, plans = _traced_series(case, words, *tiling)
    assert not whole_plans
    if case[0] != "identity" or tiling[0] < 4:
        assert plans and len(plans[0]) >= 2
    assert _series_bytes(tiled) == _series_bytes(whole)
    # the same checks with the same arguments and the same lines, in order
    assert tiled_events == whole_events


def test_tiles_hold_whole_words_of_about_equal_pieces():
    # cat 2x1 words have many pieces each, of uneven counts
    owner = np.repeat(np.arange(6), [5, 1, 1, 9, 2, 2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "EXACT_TILE_PIECES", 10)
        # 20 pieces growing 1.5-fold over one depth: 30, so three tiles
        assert partitions._exact_tiles(owner, [4, 6], 3, 4) == \
            [(0, 3), (3, 4), (4, 6)]
        # growth beyond _TILE_GROWTH, or a store within the budget, is
        # refined whole; so are depths 0, 1 and the last
        assert partitions._exact_tiles(owner, [1, 6], 3, 5) is None
        assert partitions._exact_tiles(owner[:9], [6, 6], 3, 4) is None
        assert partitions._exact_tiles(owner, [4, 6], 4, 4) is None
        assert partitions._exact_tiles(owner, [6], 1, 4) is None


def test_default_budget_tiles_only_the_largest_stores():
    # baker 2x1 to depth 16 cuts the 8,192 pieces entering depth 13 into
    # four tiles of 2,048; cat 8x8 to depth 5 (the ks-cat-exact benchmark,
    # largest store 11,264 pieces) and to depth 4 are refined whole
    plans = {case: _traced_series(case, False, limits.EXACT_TILE_PIECES)[2]
             for case in [("baker", 2, 1, 16), ("cat", 8, 8, 5),
                          ("cat", 8, 8, 4), ("baker", 2, 1, 14)]}
    assert plans[("baker", 2, 1, 16)] == [
        [(0, 2048), (2048, 4096), (4096, 6144), (6144, 8192)]]
    assert plans[("cat", 8, 8, 5)] == plans[("cat", 8, 8, 4)] == []
    assert plans[("baker", 2, 1, 14)] == []


def _capped_check(refuse_at):
    """limits.check_word_projection with the cap dropped to one word at
    depth refuse_at."""
    check = limits.check_word_projection

    def capped(last, before, n, n_max, what):
        with pytest.MonkeyPatch.context() as mp:
            if n == refuse_at:
                mp.setattr(limits, "EXACT_WORD_CAP", 1)
            check(last, before, n, n_max, what)

    return capped


@pytest.mark.parametrize("words", [True, False], ids=["full", "summary"])
@pytest.mark.parametrize("refuse_at", [2, 3, 5, 7])
def test_a_refused_tiled_depth_prints_the_whole_runs_lines(refuse_at, words,
                                                           monkeypatch):
    # the cap drops to one word at depth refuse_at; at this budget baker 2x1
    # to depth 7 is cut entering depth 2, after that depth's check, into
    # tiles of one word, so depths 3, 5 and 7 are refused before the last
    # tile refines them, and depth 2 before the cut
    monkeypatch.setattr(limits, "check_word_projection",
                        _capped_check(refuse_at))
    case = ("baker", 2, 1, 7)
    whole = _traced_series(case, words, 2 ** 62)
    tiled = _traced_series(case, words, 4, 10 ** 9)
    assert whole[0][0] is ResourceLimitError
    assert "above the cap of 1;" in whole[0][1]
    assert tiled[:2] == whole[:2]
    assert [e[1] for e in whole[1] if e[0] == "line"][-1].startswith(
        f"depth {refuse_at - 1}/7:")
    assert tiled[2] == ([] if refuse_at == 2 else
                        [[(0, 1), (1, 2), (2, 3), (3, 4)]])


def test_a_lowered_word_cap_refuses_tiled_and_whole_runs_alike(monkeypatch):
    monkeypatch.setattr(limits, "EXACT_WORD_CAP", 5000)
    case = ("cat", 8, 8, 7)
    whole, tiled = (_traced_series(case, True, budget, 10 ** 9)
                    for budget in (2 ** 62, 64))
    assert whole[0][0] is ResourceLimitError
    assert tiled[:2] == whole[:2]


def test_tiled_baker_depth16_peak_memory_is_bounded():
    # tracemalloc peak of baker 2x1 to depth 16: 15.6 MiB when every depth
    # refined the whole store, 8.3 MiB in four tiles from depth 13, where
    # about 4 MiB are the records themselves
    assert _refinement_peak("baker", 2, 1, 16) < 11 * 2 ** 20


def _baker16_events(budget, refuse_at=None):
    """baker 2x1 refined to depth 16 at a tile budget, as its
    _refine_pieces calls ("refine") and the depths of its progress lines,
    in order, ending with the word-cap refusal's message if the cap drops
    to one word at depth refuse_at."""
    events, refine = [], partitions._refine_pieces

    def spy_refine(*args):
        events.append("refine")
        return refine(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "EXACT_TILE_PIECES", budget)
        mp.setattr(partitions, "_refine_pieces", spy_refine)
        mp.setattr(limits, "check_word_projection", _capped_check(refuse_at))
        try:
            refine_series(make_map("baker"), GridPartition(2, 1), 16,
                          progress=lambda line: events.append(
                              int(line.split()[1].split("/")[0])),
                          words=False)
        except ResourceLimitError as exc:
            events.append(str(exc))
    return events


def test_tiled_exact_depths_stream_as_the_last_tile_makes_them():
    # at the default budget the store entering depth 13 is cut into four
    # tiles; the first three run to depth 16 (12 refinements), then each
    # of depths 13-16 is handed on as soon as the last tile refines it
    whole = [0] + [e for n in range(1, 17) for e in ("refine", n)]
    assert _baker16_events(2 ** 62) == whole
    tiled = whole[:25] + ["refine"] * 12 + whole[25:]
    assert _baker16_events(limits.EXACT_TILE_PIECES) == tiled
    # a refusal at depth 15 comes after the depth 14 line, as in a whole
    # run, and before the last tile refines depth 15
    whole_refused = _baker16_events(2 ** 62, 15)
    assert "above the cap of 1;" in whole_refused[-1]
    assert whole_refused == whole[:29] + whole_refused[-1:]
    assert _baker16_events(limits.EXACT_TILE_PIECES, 15) == \
        tiled[:41] + whole_refused[-1:]
