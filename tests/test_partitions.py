import math

import numpy as np
import pytest

from pesinlab import (CellWord, ConfigurationError, GridPartition, McConfig,
                      MeasureEstimate, h_mu, h_mu_ratio, hks_estimate,
                      make_map, partition_entropy, refine, refine_series)
from pesinlab.partitions import _mc_entropy, fit_line

LN2 = math.log(2.0)
CAT_SIGMA = math.log((3.0 + math.sqrt(5.0)) / 2.0)


# --- partition_entropy ------------------------------------------------------

def test_entropy_single_cell():
    assert partition_entropy([1.0]) == 0.0


def test_entropy_uniform_four():
    assert abs(partition_entropy([0.25] * 4) - math.log(4.0)) < 1e-15


def test_entropy_zero_convention():
    assert abs(partition_entropy([0.5, 0.5, 0.0, 0.0]) - LN2) < 1e-15


def test_entropy_rejects_negative():
    with pytest.raises(ValueError):
        partition_entropy([0.5, 0.6, -0.1])


def test_entropy_rejects_bad_sum():
    with pytest.raises(ValueError):
        partition_entropy([0.5, 0.4])


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


def test_measure_estimate_validation():
    MeasureEstimate(0.5, "exact")
    with pytest.raises(ValueError):
        MeasureEstimate(1.5, "exact")
    with pytest.raises(ValueError):
        MeasureEstimate(0.5, "exact", stderr=0.01)


# --- refine -----------------------------------------------------------------

def test_refine_identity_no_refinement():
    rec = refine(make_map("identity"), GridPartition(2, 2), 3)
    assert rec.nonempty_words == 4
    for est in rec.word_measures.values():
        assert est.value == 0.25


def test_refine_baker_binary_depth4():
    rec = refine(make_map("baker"), GridPartition(2, 1), 4)
    assert rec.nonempty_words == 32
    for est in rec.word_measures.values():
        assert est.value == 2.0 ** -5


def test_refine_cat_sums_to_one():
    rec = refine(make_map("cat"), GridPartition(2, 2), 1)
    total = math.fsum(e.value for e in rec.word_measures.values())
    assert abs(total - 1.0) < 1e-9


def test_refine_series_rejects_negative_depth():
    with pytest.raises(ValueError):
        refine_series(make_map("baker"), GridPartition(2, 1), -1)


def test_word_table_lookup():
    rec = refine(make_map("baker"), GridPartition(2, 1), 2)
    table = rec.word_measures
    words = list(table)
    assert words == sorted(words, key=lambda w: w.symbols)
    w = words[3]
    assert table[w].value == table[w.symbols].value
    assert len(w) == 3
    vals = table.measure_array()
    vals[0] = 99.0
    assert table.measure_array()[0] != 99.0


# --- exact oracle -----------------------------------------------------------

@pytest.mark.parametrize("n", range(13))
def test_baker_measures_exact_all_depths(n):
    rec = refine(make_map("baker"), GridPartition(2, 1), n)
    assert rec.nonempty_words == 2 ** (n + 1)
    vals = rec.word_measures.measure_array()
    assert (vals == 2.0 ** -(n + 1)).all()
    assert abs(rec.entropy - (n + 1) * LN2) < 1e-12


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
        vals = rec.word_measures.measure_array()
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
        vals = rec.word_measures.measure_array()
        assert abs(vals.sum() - 1.0) < 1e-9
        assert rec.meta["seed"] == 5
        assert rec.meta["estimator"] == "chao_shen"
    for a, b in zip(recs, recs[1:]):
        assert b.entropy >= a.entropy - 1e-12


def test_mc_seed_determinism():
    part = GridPartition(4, 4)
    a = refine(make_map("cat"), part, 5, "mc", McConfig(20_000, seed=9))
    b = refine(make_map("cat"), part, 5, "mc", McConfig(20_000, seed=9))
    c = refine(make_map("cat"), part, 5, "mc", McConfig(20_000, seed=10))
    assert (a.word_measures.measure_array() == b.word_measures.measure_array()).all()
    assert a.entropy == b.entropy
    assert a.entropy != c.entropy


def test_mc_stderr_is_binomial():
    rec = refine(make_map("identity"), GridPartition(2, 1), 0, "mc",
                 McConfig(10_000, seed=0))
    for est in rec.word_measures.values():
        f = est.value
        assert abs(est.stderr - math.sqrt(f * (1 - f) / 10_000)) < 1e-15
        assert est.n_samples == 10_000


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


def test_hks_rejects_bad_ladders():
    with pytest.raises(ValueError):
        hks_estimate(make_map("baker"), [], 8)
    with pytest.raises(ValueError):
        hks_estimate(make_map("baker"),
                     [GridPartition(4, 4), GridPartition(2, 2)], 8)
