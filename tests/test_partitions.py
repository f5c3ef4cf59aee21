import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pesinlab import (MAP_NAMES, MC_ESTIMATORS, ConfigurationError,
                      GridPartition, McConfig, ResourceLimitError,
                      entropy_nats, h_mu, h_mu_ratio, hks_estimate, make_map,
                      refine_series, word_rows)
from pesinlab import geometry, limits, partitions
from pesinlab.partitions import _mc_entropy, fit_line

LN2 = math.log(2.0)
CAT_SIGMA = math.log((3.0 + math.sqrt(5.0)) / 2.0)


# --- entropy_nats -----------------------------------------------------------

def test_entropy_single_cell():
    assert entropy_nats([1.0]) == 0.0


def test_entropy_uniform_four():
    assert abs(entropy_nats([0.25] * 4) - math.log(4.0)) < 1e-15


def test_entropy_zero_convention():
    assert abs(entropy_nats([0.5, 0.5, 0.0, 0.0]) - LN2) < 1e-15


# --- grid bookkeeping -------------------------------------------------------

def test_grid_cells_cover_square():
    part = GridPartition(4, 2)
    assert part.n_cells == 8
    total = 0.0
    for i in range(part.n_cells):
        q0, q1, p0, p1 = part.cell_rect(i)
        total += (q1 - q0) * (p1 - p0)
    assert abs(total - 1.0) < 1e-15


def test_cell_index_batch_matches_rects():
    part = GridPartition(3, 5)
    pts = np.random.default_rng(11).random((500, 2))
    idx = part.cell_index_batch(pts)
    for (q, p), i in zip(pts, idx):
        q0, q1, p0, p1 = part.cell_rect(int(i))
        assert q0 <= q < q1 and p0 <= p < p1


def test_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        GridPartition(0, 4)


# --- refine -----------------------------------------------------------------

def test_refine_identity_no_refinement():
    rec = refine_series(make_map("identity"), GridPartition(2, 2), 3)[-1]
    assert rec.nonempty_words == 4
    for value in rec.measures:
        assert value == 0.25


def test_refine_baker_binary_depth4():
    rec = refine_series(make_map("baker"), GridPartition(2, 1), 4)[-1]
    assert rec.nonempty_words == 32
    for value in rec.measures:
        assert value == 2.0 ** -5


def test_refine_cat_sums_to_one():
    rec = refine_series(make_map("cat"), GridPartition(2, 2), 1)[-1]
    total = math.fsum(rec.measures)
    assert abs(total - 1.0) < 1e-9


def test_refine_series_rejects_negative_depth():
    with pytest.raises(ValueError):
        refine_series(make_map("baker"), GridPartition(2, 1), -1)


def test_word_rows_lookup():
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 2)
    words, prefix = word_rows(recs)
    rows = [tuple(w) for w in words.tolist()]
    assert rows == sorted(rows)
    assert len(rows[3]) == 3
    picked, picked_prefix = word_rows(recs, [3])
    assert tuple(picked[0]) == rows[3]
    assert (picked_prefix[0] == prefix[3]).all()
    assert prefix[3, 2] == recs[2].measures[3]
    with pytest.raises(ValueError):
        recs[2].measures[0] = 99.0
    with pytest.raises(ValueError):
        recs[2].codes[0] = 99


# --- exact oracle -----------------------------------------------------------

@pytest.mark.parametrize("n", range(13))
def test_baker_measures_exact_all_depths(n):
    rec = refine_series(make_map("baker"), GridPartition(2, 1), n)[-1]
    assert rec.nonempty_words == 2 ** (n + 1)
    vals = rec.measures
    assert (vals == 2.0 ** -(n + 1)).all()
    assert abs(rec.entropy - (n + 1) * LN2) < 1e-12


# --- golden records ---------------------------------------------------------

# per depth: the first 16 hex digits of the sha256 of codes.tobytes() and of
# measures.tobytes(), and repr(entropy); recorded from the per-polygon
# Sutherland-Hodgman refinement (the cat 3x5 and depth-6 cat 8x8 pins from
# the batched kernel while it still wrapped by torus squares of its own),
# so the batched kernel must repeat it bit for bit
GOLDEN_RECORDS = {
    ("baker", 2, 1, 10): (
        ("9d34149fbd1fe777", "606e5166986dd9f1", "0.6931471805599453"),
        ("a1e03200f1f82ad2", "5073e61eafb5e090", "1.3862943611198906"),
        ("fece8d601cd4c902", "65c5345153d2f48b", "2.0794415416798357"),
        ("f23d672bb9b341f9", "d5ced4a0fdc0dcd8", "2.772588722239781"),
        ("bcc9bcfc670935c6", "63b5de12fbfe1ed3", "3.4657359027997265"),
        ("7a4644928f3a08db", "25493ecc62734a68", "4.1588830833596715"),
        ("3e4f0a2fd9498da7", "07553244f129e952", "4.852030263919617"),
        ("bbd330b12e8159e1", "62fd56f6dba82940", "5.545177444479562"),
        ("5738153ec97595b1", "8c74246543874a35", "6.238324625039508"),
        ("2f88e9ce00d238e7", "2e9a3ef40f7a6b52", "6.931471805599453"),
        ("5ccf19f4f2c0424b", "4c4229e43269ba0a", "7.6246189861593985"),
    ),
    ("cat", 8, 8, 4): (
        ("7a4644928f3a08db", "25493ecc62734a68", "4.1588830833596715"),
        ("68e37b8a934c7ad4", "62fd56f6dba82940", "5.545177444479562"),
        ("806e70de93323bf3", "ce33cc9f4dbdd36e", "6.813271703147391"),
        ("ce3f7f4cd8298c14", "50966bc10f175f54", "7.963779048047347"),
        ("11f9b9fb7791d24c", "f03f4d7b7578d9a4", "9.030438371863399"),
    ),
    ("cat", 3, 3, 6): (
        ("419ce84f0e9d8926", "35bc6a2162e5cad6", "2.1972245773362196"),
        ("190da043883220b0", "57e8f6fea49fdd49", "3.5835189384561104"),
        ("5a9b784df8d50cb0", "9163cb8791c92138", "4.851613197123937"),
        ("422f56f7851bcf86", "c1f88443a673c24c", "6.002120542023891"),
        ("9795192b22cc3cee", "86385ef67039b8fe", "7.068779865839941"),
        ("bd25dd8c819224d7", "38357c4f8f7c6143", "8.08827355608307"),
        ("6cd391c9e48280c3", "8b7bda8fdbcead38", "9.083107339477657"),
    ),
    ("cat", 3, 5, 6): (
        ("4107167d6f03f7cb", "fc823912fd89bd4f", "2.70805020110221"),
        ("2fd9070565c96846", "45281fc8bcbcf152", "4.176647083879278"),
        ("0a1d0ad44335e521", "f6e1af308af05d7e", "5.381687356197524"),
        ("67a7f04142a38dd0", "2c0dcb18087c309d", "6.486690075688951"),
        ("d3f365b446616ff9", "5f2e47c161e0370c", "7.534985177288071"),
        ("af7dc2fbb2ba8049", "85d07f18be19eff2", "8.552469046780622"),
        ("177bbda0fa92315e", "8026b0d2e5717828", "9.545439791874816"),
    ),
    ("cat", 8, 8, 6): (
        ("7a4644928f3a08db", "25493ecc62734a68", "4.1588830833596715"),
        ("68e37b8a934c7ad4", "62fd56f6dba82940", "5.545177444479562"),
        ("806e70de93323bf3", "ce33cc9f4dbdd36e", "6.813271703147391"),
        ("ce3f7f4cd8298c14", "50966bc10f175f54", "7.963779048047347"),
        ("11f9b9fb7791d24c", "f03f4d7b7578d9a4", "9.030438371863399"),
        ("83a83743e2fce827", "51c04c2ba7a0cfe0", "10.049932062106517"),
        ("eeccc3ec7ee86d9a", "e4fef0ca887ccf38", "11.04476584550114"),
    ),
    ("identity", 2, 2, 4): (
        ("a1e03200f1f82ad2", "5073e61eafb5e090", "1.3862943611198906"),
        ("1162a84ab547d5dd", "5073e61eafb5e090", "1.3862943611198906"),
        ("1162a84ab547d5dd", "5073e61eafb5e090", "1.3862943611198906"),
        ("1162a84ab547d5dd", "5073e61eafb5e090", "1.3862943611198906"),
        ("1162a84ab547d5dd", "5073e61eafb5e090", "1.3862943611198906"),
    ),
}


def _digest(rec):
    return (hashlib.sha256(rec.codes.tobytes()).hexdigest()[:16],
            hashlib.sha256(rec.measures.tobytes()).hexdigest()[:16],
            repr(rec.entropy))


@pytest.mark.parametrize("case", GOLDEN_RECORDS, ids=lambda c: "%s-%dx%d-d%d" % c)
def test_exact_records_match_golden(case):
    name, m_q, m_p, depth = case
    recs = refine_series(make_map(name), GridPartition(m_q, m_p), depth)
    assert tuple(_digest(r) for r in recs) == GOLDEN_RECORDS[case]


@pytest.mark.parametrize("case", [("baker", 2, 1, 8), ("cat", 3, 3, 4)])
def test_exact_records_do_not_depend_on_chunk_size(case, monkeypatch):
    name, m_q, m_p, depth = case
    whole = refine_series(make_map(name), GridPartition(m_q, m_p), depth)
    monkeypatch.setattr(geometry, "CHUNK_ROWS", 7)
    chunked = refine_series(make_map(name), GridPartition(m_q, m_p), depth)
    assert [_digest(r) for r in chunked] == [_digest(r) for r in whole]


# --- prefix grouping --------------------------------------------------------

def _stable_grouping(keys):
    """group_prefixes' outputs from a stable argsort of the keys."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(new), ordered[new], np.cumsum(new) - 1


def _packing_limit(size):
    """The smallest key group_prefixes does not pack for size keys."""
    return 1 << (63 - max(size - 1, 0).bit_length())


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 300), st.integers(1, 40),
       st.sampled_from(["int64", "int32", "edge", "negative"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(0, 1, "int64", False, 0)        # empty
@example(1, 1, "int64", False, 0)        # single
@example(1, 1, "edge", False, 0)         # single key 2^63 - 1
@example(200, 1, "int64", False, 0)      # all equal
@example(200, 5, "edge", False, 0)       # largest packed key
@example(200, 5, "edge", True, 0)        # smallest stable-argsort key
def test_group_prefixes_match_stable_argsort(size, distinct, kind, over, seed):
    rng = np.random.default_rng(seed)
    if kind == "edge":
        # keys up to the packing limit, minus one unless over is set; one
        # key alone packs with no shift, so its limit is 2^63 - 1
        top = min(_packing_limit(size) - 1 + over, 2 ** 63 - 1)
        pool = np.append(rng.integers(0, top, distinct - 1, endpoint=True), top)
    elif kind == "negative":
        pool = rng.integers(-distinct, distinct, distinct)
    else:
        pool = rng.integers(0, 2 ** 31, distinct).astype(kind)
    keys = pool[rng.integers(0, distinct, size)]
    # group_prefixes spends its keys, so it gets a copy
    got = partitions.group_prefixes(keys.copy())
    for out, ref in zip(got, _stable_grouping(keys)):
        assert out.tolist() == ref.tolist()
    order, starts, codes, ids = got
    assert codes.dtype == ids.dtype == order.dtype == np.int64


@pytest.mark.parametrize("size", [1, 2, 3, 1000, 1025])
@pytest.mark.parametrize("over", [False, True])
def test_group_prefixes_pack_below_the_limit(monkeypatch, size, over):
    # keys below 2^(63 - shift) are packed and sorted with no argsort; from
    # the limit up, and for negative keys, the stable argsort takes over
    top = min(_packing_limit(size) - 1 + over, 2 ** 63 - 1)
    keys = np.arange(size, dtype=np.int64)[::-1].copy()
    keys[0] = top
    argsorts = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda *a, **k: argsorts.append(1) or real(*a, **k))
    partitions.group_prefixes(keys.copy())
    assert len(argsorts) == (over and size > 1)
    partitions.group_prefixes(-1 - keys)
    assert len(argsorts) == (over and size > 1) + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 12), st.integers(1, 40),
       st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
def test_prefix_levels_match_np_unique(m, depth, pool, rows, seed):
    # unsorted rows, many of them repeated, sharing prefixes of every length
    rng = np.random.default_rng(seed)
    words = rng.integers(0, m, size=(pool, depth))[rng.integers(0, pool, rows)]
    inverse = np.zeros(rows, dtype=np.int64)
    levels = []
    for n, (perm, starts, codes, ids) in enumerate(
            partitions.prefix_levels(words, m)):
        expect, inverse = np.unique(inverse * m + words[:, n],
                                    return_inverse=True)
        assert perm.tobytes() == np.lexsort(words[:, :n + 1].T[::-1]).tobytes()
        assert codes.tobytes() == expect.tobytes()
        assert ids.tobytes() == inverse[perm].tobytes()
        assert (words[perm[starts], :n + 1]
                == np.unique(words[:, :n + 1], axis=0)).all()
        levels.append(codes)
        # word_rows' decoding of the codes walks back to the prefixes
        pos = np.arange(len(codes))
        prefixes = np.empty((len(codes), n + 1), dtype=words.dtype)
        for d in range(n, -1, -1):
            pos, prefixes[:, d] = np.divmod(levels[d][pos], m)
        assert prefixes.tobytes() == np.unique(words[:, :n + 1],
                                               axis=0).tobytes()


def _unique_refine_pieces(verts, counts, owner, torus_map, part):
    """_refine_pieces grouping its keys with np.unique and a second argsort.

    The reference grouping: the group_prefixes path must return the same
    codes, measures and store bit for bit.  The store layout is rebuilt
    here with gathers and masks: the pieces of each count, CHUNK_ROWS at a
    time, and the kept cuts collected per count in the order they came.
    """
    q_edges = np.array([k / part.m_q for k in range(part.m_q + 1)])
    p_edges = np.array([k / part.m_p for k in range(part.m_p + 1)])
    firsts = np.cumsum(counts) - counts
    kept = {}
    for c in np.unique(counts).tolist():
        # the store is grouped by count, so its rows of count c are a run
        rows = np.flatnonzero(counts == c)
        for lo in range(0, len(rows), geometry.CHUNK_ROWS):
            chunk = rows[lo:lo + geometry.CHUNK_ROWS]
            batch = verts[firsts[chunk][:, None] + np.arange(c)]
            mv, mn, src = geometry.branch_images_batch(batch, counts[chunk],
                                                       torus_map.branches)
            cv, cn, img, iq, ip = geometry.grid_cuts_batch(mv, mn, q_edges, p_edges)
            areas = geometry.polygon_area_batch(cv, cn)
            thick = areas > partitions._ZERO_AREA
            keys = owner[chunk][src[img]] * part.n_cells + iq * part.m_p + ip
            for k in np.unique(cn[thick]).tolist():
                sel = thick & (cn == k)
                kept.setdefault(k, []).append((cv[sel][:, :k], keys[sel], areas[sel]))
    cuts = [cut for k in sorted(kept) for cut in kept[k]]
    verts = np.concatenate([v.reshape(-1, 2) for v, _, _ in cuts])
    counts = np.concatenate([np.full(len(k), v.shape[1]) for v, k, _ in cuts])
    keys = np.concatenate([k for _, k, _ in cuts])
    areas = np.concatenate([a for _, _, a in cuts])
    codes, owner, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    order = np.argsort(owner, kind="stable")
    starts = np.cumsum(sizes) - sizes
    measures = areas[order[starts]]
    for w in np.flatnonzero(sizes > 1):
        measures[w] = math.fsum(areas[order[starts[w]:starts[w] + sizes[w]]].tolist())
    return codes, measures, verts, counts, owner


@pytest.mark.parametrize("case", [("identity", 2, 2, 4), ("baker", 2, 1, 10),
                                  ("cat", 3, 3, 5), ("cat", 8, 8, 4)],
                         ids=lambda c: "%s-%dx%d-d%d" % c)
def test_exact_grouping_matches_unique_reference(case, monkeypatch):
    name, m_q, m_p, depth = case
    part = GridPartition(m_q, m_p)
    recs = refine_series(make_map(name), part, depth)
    grouped = partitions._refine_pieces

    def both(*args):
        # every output, the piece owners too, on the same pieces
        got, ref = grouped(*args), _unique_refine_pieces(*args)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return ref

    monkeypatch.setattr(partitions, "_refine_pieces", both)
    ref = refine_series(make_map(name), part, depth)
    assert len(recs) == len(ref) == depth + 1
    for rec, r in zip(recs, ref):
        assert rec.codes.dtype == r.codes.dtype
        assert _digest(rec) == _digest(r)


def test_baker_h_mu_is_ln2():
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 12)
    assert abs(h_mu(recs) - LN2) < 0.01 * LN2
    assert h_mu(recs) == LN2  # exact dyadic measures make the slope exact


def test_identity_h_mu_zero():
    for grid in ((2, 2), (3, 1), (4, 4)):
        recs = refine_series(make_map("identity"), GridPartition(*grid), 8)
        assert abs(h_mu(recs)) < 1e-9


def test_h_mu_needs_enough_depths():
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 3)
    with pytest.raises(ValueError):
        h_mu(recs)


def test_h_mu_ratio_lags_slope():
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 12)
    # H(n)/n = (n+1)ln2 / n > ln 2, approaching it from above
    assert h_mu_ratio(recs) == 13.0 * LN2 / 12.0


def test_fit_slope_exact_on_linear_data():
    ns = [3, 4, 5, 6]
    hs = [1.0 + 0.25 * n for n in ns]
    assert abs(fit_line(ns, hs)[0] - 0.25) < 1e-14


# --- invariants across maps and modes ---------------------------------------

@pytest.mark.parametrize("name,grid", [
    ("identity", (2, 2)), ("baker", (2, 1)), ("baker", (2, 2)),
    ("cat", (2, 2)),
])
def test_exact_mode_invariants(name, grid):
    recs = refine_series(make_map(name), GridPartition(*grid), 4)
    for rec in recs:
        vals = rec.measures
        assert abs(math.fsum(vals) - 1.0) < 1e-9
        assert rec.entropy <= math.log(rec.nonempty_words) + 1e-12
    for a, b in zip(recs, recs[1:]):
        assert b.entropy >= a.entropy - 1e-12


@pytest.mark.parametrize("name,grid", [
    ("identity", (2, 2)), ("baker", (2, 1)), ("cat", (4, 4)),
])
def test_mc_mode_invariants(name, grid):
    cfg = McConfig(50_000, seed=5)
    recs = refine_series(make_map(name), GridPartition(*grid), 6, "mc", cfg)
    for rec in recs:
        vals = rec.measures
        assert abs(vals.sum() - 1.0) < 1e-9
        assert rec.meta["seed"] == 5
        assert rec.meta["estimator"] == "chao_shen"
    for a, b in zip(recs, recs[1:]):
        assert b.entropy >= a.entropy - 1e-12


def test_mc_seed_determinism():
    part = GridPartition(4, 4)
    a, b, c = (refine_series(make_map("cat"), part, 5, "mc",
                             McConfig(20_000, seed=seed))[-1]
               for seed in (9, 9, 10))
    assert (a.measures == b.measures).all()
    assert a.entropy == b.entropy
    assert a.entropy != c.entropy


# --- Monte Carlo grouping ---------------------------------------------------

def _unique_mc_series(torus_map, part, n_max, cfg):
    """(codes, counts) per depth from a full np.unique of every depth's keys.

    The reference grouping: the word-order loop of refine_series must equal
    it bit for bit.
    """
    pts = np.random.default_rng(cfg.seed).random((cfg.n_samples, 2))
    m = part.n_cells
    codes, ids, counts = np.unique(part.cell_index_batch(pts),
                                   return_inverse=True, return_counts=True)
    series = [(codes, counts)]
    for _ in range(n_max):
        pts = torus_map.step_batch(pts)
        codes, ids, counts = np.unique(ids * m + part.cell_index_batch(pts),
                                       return_inverse=True, return_counts=True)
        series.append((codes, counts))
    return series


def _assert_mc_matches_reference(name, grid, depth, n_samples, seed):
    part = GridPartition(*grid)
    ref = _unique_mc_series(make_map(name), part, depth,
                            McConfig(n_samples, seed=seed))
    for estimator in MC_ESTIMATORS:
        recs = refine_series(make_map(name), part, depth, "mc",
                             McConfig(n_samples, seed=seed, estimator=estimator))
        assert len(recs) == len(ref)
        for rec, (codes, counts) in zip(recs, ref):
            assert rec.codes.dtype == codes.dtype
            assert rec.codes.tobytes() == codes.tobytes()
            assert rec.measures.tobytes() == (counts / n_samples).tobytes()
            assert repr(rec.entropy) == repr(
                _mc_entropy(counts, n_samples, estimator))


MC_GRIDS = [(1, 1), (2, 1), (4, 4), (8, 8)]


@pytest.mark.parametrize("n_samples", [1, 2, 17, 10_000])
@pytest.mark.parametrize("grid", MC_GRIDS, ids=lambda g: "%dx%d" % g)
@pytest.mark.parametrize("name", MAP_NAMES)
def test_mc_grouping_matches_unique_reference(name, grid, n_samples):
    _assert_mc_matches_reference(name, grid, 6, n_samples, seed=1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MAP_NAMES), st.sampled_from(MC_GRIDS),
       st.integers(0, 10), st.integers(1, 3000), st.integers(0, 2 ** 32 - 1))
def test_mc_grouping_matches_unique_reference_property(name, grid, depth,
                                                       n_samples, seed):
    _assert_mc_matches_reference(name, grid, depth, n_samples, seed)


# per depth, in the format of GOLDEN_RECORDS, for
# (map, m_q, m_p, depth, n_samples, seed) with the chao_shen estimator;
# recorded at the commit before the Monte Carlo loop kept its cloud in word
# order, when every depth ran np.unique and the cat step took x % 1.0
GOLDEN_MC_RECORDS = {
    ("cat", 8, 8, 10, 100_000, 0): (
        ("7a4644928f3a08db", "6cbbd494df2da74f", "4.158596448930776"),
        ("68e37b8a934c7ad4", "b137aa0208624971", "5.543920312713618"),
        ("806e70de93323bf3", "12f4068b8a7bdcd0", "6.809181448026121"),
        ("ce3f7f4cd8298c14", "f2f2ee4bf4a917a0", "7.950702763952666"),
        ("274c217856344343", "f60283b99adb6ab5", "9.02302426095197"),
        ("9b88ced36f18daa7", "7b44ca320e845757", "10.031583551051337"),
        ("589842c53cb6e05b", "680c1097daa5374a", "10.993812974062251"),
        ("9fa1459318c5f112", "073a5ec96be08a78", "11.916081910555517"),
        ("19b4f857aa98ee81", "55158f09fbbe6a04", "12.847092821131284"),
        ("c9c501a4e815cf58", "5af040a44be2e477", "13.792118734680297"),
        ("7064bc52865f81b3", "a19050d5f4a5a967", "14.766955076578677"),
    ),
    ("baker", 2, 1, 8, 10_000, 0): (
        ("9d34149fbd1fe777", "ab5dd8a179a2ee60", "0.6931267004201329"),
        ("a1e03200f1f82ad2", "f121df1d3c3cfa7e", "1.3862447187741593"),
        ("fece8d601cd4c902", "c7f164a0e149b72d", "2.079096020922968"),
        ("f23d672bb9b341f9", "7227621668e51fd8", "2.7716810430089454"),
        ("bcc9bcfc670935c6", "b235509fa069af0f", "3.4638736427482115"),
        ("7a4644928f3a08db", "5bc819bd9f1ae8fe", "4.155455267729106"),
        ("3e4f0a2fd9498da7", "a4f35c6a22cd5591", "4.844514351429136"),
        ("bbd330b12e8159e1", "3e27fee472707786", "5.532208310190365"),
        ("5738153ec97595b1", "e954ad22ce4b0abe", "6.213117076737792"),
    ),
}


@pytest.mark.parametrize("case", GOLDEN_MC_RECORDS,
                         ids=lambda c: "%s-%dx%d-d%d-N%d-s%d" % c)
def test_mc_records_match_golden(case):
    name, m_q, m_p, depth, n_samples, seed = case
    recs = refine_series(make_map(name), GridPartition(m_q, m_p), depth, "mc",
                         McConfig(n_samples, seed=seed))
    assert tuple(_digest(r) for r in recs) == GOLDEN_MC_RECORDS[case]


def test_mc_memory_cap_is_checked_before_the_cloud(monkeypatch):
    # 1000 samples to depth 3 need 1000 * (MC_SAMPLE_BYTES + 16 * 4) bytes
    # for the cloud and words, and RECORD_BYTES for each of the 4 depths
    need = 1000 * (limits.MC_SAMPLE_BYTES + 64) + 4 * limits.RECORD_BYTES
    args = (make_map("cat"), GridPartition(4, 4), 3, "mc", McConfig(1000))
    monkeypatch.setattr(limits, "BYTES_CAP", need)
    assert len(refine_series(*args)) == 4
    monkeypatch.setattr(limits, "BYTES_CAP", need - 1)
    monkeypatch.setattr(np.random, "default_rng", None)  # nothing is drawn
    with pytest.raises(ResourceLimitError, match="--mc-samples or --depth"):
        refine_series(*args)
    with pytest.raises(ResourceLimitError):
        hks_estimate(make_map("cat"), [GridPartition(2, 2), GridPartition(4, 4)],
                     3, "mc", McConfig(1000))


def test_exact_depth_records_are_checked_before_the_cells(monkeypatch):
    # exact refinement holds RECORD_BYTES for each depth's record, however
    # few its words, so identity to depth n needs (n + 1) RECORD_BYTES
    args = (make_map("identity"), GridPartition(2, 1))
    monkeypatch.setattr(limits, "BYTES_CAP", 11 * limits.RECORD_BYTES)
    assert len(refine_series(*args, 10)) == 11
    monkeypatch.setattr(geometry, "as_batch", None)   # no cell is built
    with pytest.raises(ResourceLimitError, match="lower --depth"):
        refine_series(*args, 11)


@pytest.mark.parametrize("name,grid", [("baker", (2, 1)), ("cat", (8, 8))])
def test_mc_peak_memory_is_within_the_cap_budget(name, grid):
    # limits.refinement_bytes counts N (MC_SAMPLE_BYTES + 16 (n + 1))
    # bytes for N samples to depth n beside the records, so a run must stay
    # in that
    n_samples, depth = 100_000, 10
    args = (make_map(name), GridPartition(*grid), depth, "mc",
            McConfig(n_samples))
    tracemalloc.start()
    try:
        refine_series(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n_samples * (limits.MC_SAMPLE_BYTES + 16 * (depth + 1))


def test_mc_stderr_is_binomial():
    rec = refine_series(make_map("identity"), GridPartition(2, 1), 0, "mc",
                        McConfig(10_000, seed=0))[-1]
    for f, stderr in zip(rec.measures, rec.stderrs):
        assert abs(stderr - math.sqrt(f * (1 - f) / 10_000)) < 1e-15
    assert rec.meta["n_samples"] == 10_000


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(0)
    with pytest.raises(ConfigurationError):
        McConfig(100, estimator="bootstrap")


# --- estimator corrections --------------------------------------------------

def test_chao_shen_reduces_to_plugin_without_singletons():
    counts = np.array([500, 300, 200])
    assert _mc_entropy(counts, 1000, "chao_shen") == pytest.approx(
        _mc_entropy(counts, 1000, "plugin"), abs=1e-15)


def test_miller_madow_adds_fixed_bonus():
    counts = np.array([400, 350, 250])
    gap = _mc_entropy(counts, 1000, "miller_madow") - _mc_entropy(
        counts, 1000, "plugin")
    assert abs(gap - (3 - 1) / 2000.0) < 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_plugin_estimators_take_the_bits_of_the_array_path(seed):
    # _mc_entropy hands entropy_nats Python floats; numpy scalars, which it
    # used to get, must give the same sum to the bit
    rng = np.random.default_rng(seed)
    n_samples = int(rng.integers(1, 10 ** 6))
    counts = np.bincount(rng.integers(0, 1 + n_samples // 3, n_samples))
    counts = counts[counts > 0]
    freqs = counts / n_samples
    plugin = entropy_nats(freqs)
    assert repr(_mc_entropy(counts, n_samples, "plugin")) == repr(plugin)
    assert repr(_mc_entropy(counts, n_samples, "miller_madow")) == repr(
        plugin + (len(counts) - 1) / (2.0 * n_samples))


def test_grassberger_close_to_plugin_at_large_counts():
    counts = np.full(10, 100_000)
    gap = _mc_entropy(counts, 1_000_000, "grassberger") - _mc_entropy(
        counts, 1_000_000, "plugin")
    assert abs(gap) < 1e-4


def test_corrections_raise_undersampled_entropy():
    counts = np.concatenate([np.full(5000, 1), np.full(100, 50)])
    n = int(counts.sum())
    hp = _mc_entropy(counts, n, "plugin")
    assert _mc_entropy(counts, n, "miller_madow") > hp
    assert _mc_entropy(counts, n, "grassberger") > hp
    assert _mc_entropy(counts, n, "chao_shen") > hp


# --- convergence examples (slow lane) ----------------------------------------

def test_cat_mc_h_mu_within_ten_percent():
    cfg = McConfig(1_000_000, seed=0)
    recs = refine_series(make_map("cat"), GridPartition(8, 8), 10, "mc", cfg)
    h = h_mu(recs)
    assert abs(h - CAT_SIGMA) < 0.10 * CAT_SIGMA


def test_hks_identity_ladder_zero():
    ladder = [GridPartition(2, 2), GridPartition(4, 4), GridPartition(8, 8)]
    est = hks_estimate(make_map("identity"), ladder, 8)
    assert abs(est.value) < 1e-9
    assert len(est.profile) == 3


def test_hks_baker_ladder():
    ladder = [GridPartition(2, 1), GridPartition(2, 2), GridPartition(4, 4)]
    est = hks_estimate(make_map("baker"), ladder, 10)
    assert abs(est.value - LN2) < 0.02 * LN2


def test_hks_cat_ladder_mc():
    ladder = [GridPartition(4, 4), GridPartition(8, 8), GridPartition(16, 16)]
    est = hks_estimate(make_map("cat"), ladder, 10, "mc",
                       McConfig(1_000_000, seed=0))
    assert abs(est.value - CAT_SIGMA) < 0.10 * CAT_SIGMA


@pytest.mark.parametrize("name,grid,mode", [("baker", (2, 1), "exact"),
                                            ("cat", (4, 4), "exact"),
                                            ("cat", (4, 4), "mc")])
def test_hks_ladder_of_one_is_the_grids_h_mu(name, grid, mode):
    # ks-entropy and pesin run one --grid as a ladder of one
    part, depth = GridPartition(*grid), 6
    mc = McConfig(20_000, seed=0) if mode == "mc" else None
    est = hks_estimate(make_map(name), [part], depth, mode, mc)
    recs = refine_series(make_map(name), part, depth, mode, mc)
    assert est.value.hex() == h_mu(recs).hex()
    assert est.profile == ((part.m_q, part.m_p, est.value),)
    assert len(est.records) == 1

    def fields(r):
        return _digest(r), r.n, r.grid, r.mode, r.meta
    assert [fields(r) for r in est.records[0]] == [fields(r) for r in recs]


def test_hks_rejects_bad_ladders():
    with pytest.raises(ValueError):
        hks_estimate(make_map("baker"), [], 8)
    with pytest.raises(ValueError):
        hks_estimate(make_map("baker"),
                     [GridPartition(4, 4), GridPartition(2, 2)], 8)
