import hashlib
import itertools
import math

import numpy as np
import pytest

from pesinlab import (BiorthOperator, ClassicalSource, GamowSpec,
                      GridPartition, McConfig, QuantumSource,
                      ResourceLimitError, decay_detect,
                      entropy_nats, h_mu, make_cell_operators, make_map, mu_via_quantum,
                      prescription_run, quantum_fit_onset, refine_series,
                      semiclassical_h_mu, word_rows)
from pesinlab.partitions import prefix_levels
from pesinlab.pipeline import RATE_FLOOR, VERDICT_MARGIN, _all_words, \
    _word_verdicts

LN2 = math.log(2.0)


def _rank_one_ops(leads, n_max=32):
    ops = []
    for v in leads:
        c = np.zeros((n_max, n_max))
        c[0, 0] = v
        ops.append(BiorthOperator(c))
    return ops


# --- word measures through the operator route --------------------------------

def test_single_cell_measure_relaxes_to_lead():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 2, seed=0, total_mass=0.8, spread=0.0)
    lead = ops[0].coeffs[0, 0].real
    assert abs(lead - 0.4) < 1e-12
    mu = mu_via_quantum(spec, ops, [0], start_step=300)
    assert abs(mu - 0.4) < 1e-6


def test_rank_one_words_multiply_exactly():
    spec = GamowSpec()
    ops = _rank_one_ops([0.5, 0.25])
    for n in (0, 4, 20):
        assert mu_via_quantum(spec, ops, [0] * (n + 1)) == 0.5 ** (n + 1)
        assert mu_via_quantum(spec, ops, [1] * (n + 1)) == 0.25 ** (n + 1)


def test_long_word_measure_tracks_lead_product():
    spec = GamowSpec()
    rng = np.random.default_rng(3)
    r = np.arange(32)
    falloff = 0.5 ** np.maximum(r[:, None] + r[None, :] - 1, 0)
    ops = []
    for _ in range(4):
        c = 3e-4 * rng.random((32, 32)) * falloff * np.exp(
            2j * np.pi * rng.random((32, 32)))
        c[0, 0] = rng.uniform(0.3, 0.7)
        ops.append(BiorthOperator(c))
    word = [int(k) for k in rng.integers(0, 4, 61)]
    mu = mu_via_quantum(spec, ops, word)
    expect = math.prod(ops[k].coeffs[0, 0].real for k in word)
    assert abs(mu - expect) / expect < 1e-3


def test_word_validation():
    spec = GamowSpec()
    ops = _rank_one_ops([0.5, 0.25])
    with pytest.raises(ValueError):
        mu_via_quantum(spec, ops, [])
    with pytest.raises(ValueError):
        mu_via_quantum(spec, ops, [0, 2])
    with pytest.raises(ValueError):
        mu_via_quantum(spec, ops, [0, -1])


# --- decay classification ---------------------------------------------------

def test_detect_geometric_decay():
    vals = [(n, 0.9 ** n) for n in range(21)]
    rep = decay_detect(vals)
    assert rep.verdict == "exponential"
    assert abs(rep.fit_rate - math.log(0.9)) < 1e-6
    assert rep.fit_quality == 1.0


def test_detect_power_law():
    vals = [(n, 1.0 / (n + 1)) for n in range(21)]
    rep = decay_detect(vals)
    assert rep.verdict == "not_exponential"


def test_detect_constant_series():
    rep = decay_detect([(n, 1.0) for n in range(12)])
    assert rep.verdict == "not_exponential"
    assert abs(rep.fit_rate) < 1e-12


def test_detect_input_validation():
    with pytest.raises(ValueError):
        decay_detect([(n, 0.5 ** n) for n in range(7)])
    with pytest.raises(ValueError):
        decay_detect([(n, 0.5 ** n) for n in range(9)] + [(9, 0.0)])
    with pytest.raises(ValueError):
        decay_detect([(n, 0.5 ** n) for n in range(10)], onset=8)


def test_detect_onset_default_is_half():
    rep = decay_detect([(n, 0.8 ** n) for n in range(17)])
    assert rep.onset == 8
    assert rep.values[0] == (0, 1.0)


# --- entropy slope from per-depth measures -----------------------------------

def test_slope_matches_partition_route():
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 12)
    series = [r.measures for r in recs]
    h = semiclassical_h_mu(series)
    assert h == h_mu(recs)
    assert abs(h - LN2) < 0.01 * LN2


def test_slope_single_full_word_is_zero():
    assert semiclassical_h_mu([[1.0]] * 9) == 0.0


def test_slope_constant_profile_is_zero():
    # identical cells whose classes never split: H stays at ln m, slope 0
    assert semiclassical_h_mu([[0.25] * 4] * 9) == 0.0


def test_slope_input_validation():
    with pytest.raises(ValueError):
        semiclassical_h_mu([[1.0]] * 4)
    with pytest.raises(ValueError):
        semiclassical_h_mu([[0.5, 0.6]] * 9)
    with pytest.raises(ValueError):
        semiclassical_h_mu([[0.5], []] + [[0.5]] * 7)
    with pytest.raises(ValueError):
        semiclassical_h_mu([[0.5, -0.1]] * 9)


def test_onset_rule_for_quantum_fits():
    assert quantum_fit_onset(GamowSpec(), 200) == 100
    assert quantum_fit_onset(GamowSpec(), 80) == 40
    assert quantum_fit_onset(GamowSpec(gamma0=0.5), 32) == 20
    # 10 t_R / alpha past the doubles falls back to half the depths
    assert quantum_fit_onset(GamowSpec(gamma0=1e-300, alpha=1e-300), 8) == 4
    # at depth 32, 8 tail points remain from onset 25 at the latest
    assert quantum_fit_onset(GamowSpec(gamma0=1 / 2.45), 32) == 25
    assert quantum_fit_onset(GamowSpec(gamma0=1 / 2.55), 32) == 16


# --- end-to-end runs ---------------------------------------------------------

def test_identity_run_not_proven():
    src = ClassicalSource(make_map("identity"), GridPartition(2, 2))
    run = prescription_run(src, 10)
    assert run.report.verdict == "not_exponential"
    assert run.chaotic is False
    assert abs(run.semiclassical_h_mu) < 1e-9
    assert run.bounds is None
    assert run.source_kind == "classical"


def test_baker_run_chaotic():
    src = ClassicalSource(make_map("baker"), GridPartition(2, 1))
    run = prescription_run(src, 16)
    assert run.chaotic is True
    assert run.report.verdict == "exponential"
    assert abs(run.report.fit_rate + LN2) < 0.02 * LN2
    assert run.passing_fraction == 1.0
    assert abs(run.semiclassical_h_mu - LN2) < 0.01 * LN2


def test_quantum_run_chaotic():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=7)
    run = prescription_run(QuantumSource(spec, tuple(ops)), 80,
                           word_budget=512, seed=0)
    assert run.chaotic is True
    assert run.passing_fraction == 1.0
    assert run.onset == 40
    d1, d2 = run.bounds
    assert math.log(d1) <= run.report.fit_rate <= math.log(d2)
    assert run.source_kind == "quantum"


def test_quantum_per_word_decay_monotone_past_onset():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=7)
    run = prescription_run(QuantumSource(spec, tuple(ops)), 80,
                           word_budget=256, seed=0)
    tail = run.word_magnitudes[:, run.onset:]
    assert (np.diff(tail, axis=1) <= 1e-15).all()


def test_classical_magnitudes_match_partition_bit_for_bit():
    src = ClassicalSource(make_map("baker"), GridPartition(2, 1))
    run = prescription_run(src, 10)
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 10)
    assert run.sampling == "exhaustive"
    assert run.entropy_profile == tuple(r.entropy for r in recs)
    assert run.word_counts == tuple(r.nonempty_words for r in recs)
    for n, rec in enumerate(recs):
        words, _ = word_rows(recs[:n + 1])
        table = dict(zip(map(tuple, words.tolist()), rec.measures))
        for word, mag in zip(run.words, run.word_magnitudes):
            assert table[tuple(word[:n + 1].tolist())] == mag[n]


# (cells, n_max, depth, word_budget, seed): the first 16 hex digits of the
# sha256 of words.tobytes(), of word_magnitudes.tobytes() and of
# repr(entropy_profile), recorded from the per-depth loop that preceded
# gamow.chain_traces, which must repeat it bit for bit.  The depth-80 run
# was recorded from the untruncated chain_traces, and its chain products
# shrink to 5 columns under truncation.
GOLDEN_QUANTUM_RUNS = {
    (3, 8, 12, 64, 5): ("4364657646b96e3e", "5ce412c982e7eaf1",
                        "bc5a9d51777681f8"),
    (2, 6, 7, 256, 0): ("b9539d4a0748dd77", "32b9cb2f1f289022",
                        "ffd20e4c33f47e26"),
    (4, 32, 40, 256, 1): ("646955935797c4cc", "5bd232c0ddeb3e2a",
                          "1a6316abbaa5961f"),
    (4, 32, 80, 512, 0): ("acb69febae15f446", "37dad3c8a3cf7664",
                          "f73ac25c693fd5da"),
}


def _quantum_run(cells, n_max, depth, word_budget, seed):
    spec = GamowSpec(n_max=n_max)
    ops = make_cell_operators(spec, cells, seed=seed)
    run = prescription_run(QuantumSource(spec, tuple(ops)), depth,
                           word_budget=word_budget, seed=seed)
    return spec, ops, run


@pytest.mark.parametrize("case", GOLDEN_QUANTUM_RUNS,
                         ids=lambda c: "m%d-d%d-n%d-w%d-s%d" % c)
def test_quantum_run_matches_golden(case):
    _, _, run = _quantum_run(*case)
    digest = tuple(hashlib.sha256(data).hexdigest()[:16] for data in (
        run.words.tobytes(), run.word_magnitudes.tobytes(),
        repr(run.entropy_profile).encode()))
    assert digest == GOLDEN_QUANTUM_RUNS[case]


def test_quantum_magnitudes_are_prefix_measures_bit_for_bit():
    # one kernel serves both routes, so batching many words changes no bit
    spec, ops, run = _quantum_run(3, 8, 12, 24, 2)
    assert run.sampling == "sampled"
    for word, mags in zip(run.words.tolist(), run.word_magnitudes):
        for n in range(len(word)):
            assert mu_via_quantum(spec, ops, word[:n + 1]) == mags[n]


def _loop_verdicts(mags, onset, r2_threshold):
    return sum(decay_detect(list(enumerate(row)), onset=onset,
                            r2_threshold=r2_threshold).verdict == "exponential"
               for row in mags) / len(mags)


@pytest.mark.parametrize("case", GOLDEN_QUANTUM_RUNS,
                         ids=lambda c: "m%d-d%d-n%d-w%d-s%d" % c)
def test_batched_verdicts_match_decay_detect_on_golden_runs(case):
    _, _, run = _quantum_run(*case)
    for r2_threshold in (0.5, 0.99, 0.9999, 1.0):
        assert _word_verdicts(run.word_magnitudes, run.onset, r2_threshold) \
            == _loop_verdicts(run.word_magnitudes, run.onset, r2_threshold)


def _mixed_rows():
    """Rows of every verdict, with some on or next to a decision boundary."""
    n = np.arange(21.0)
    noise = np.random.default_rng(0).standard_normal((6, 21))
    rows = [np.exp(-0.5 * n), np.exp(RATE_FLOOR * n),
            np.exp((RATE_FLOOR + VERDICT_MARGIN / 2) * n),
            np.exp((RATE_FLOOR - 2 * VERDICT_MARGIN) * n),
            (n + 1.0) ** -2, np.ones(21), np.full(21, 0.3),
            np.exp(-1e-13 * n), np.exp(-n ** 1.5 / 4)]
    rows += [np.exp(-0.2 * n + s * z) for s, z in zip(
        (0.01, 0.1, 0.3, 1.0, 3.0, 10.0), noise)]
    return np.array(rows)


@pytest.mark.parametrize("onset", [0, 1, 3, 10, 17])
@pytest.mark.parametrize("r2_threshold", [0.5, 0.99, 1.0])
def test_batched_verdicts_match_decay_detect_on_mixed_rows(onset,
                                                           r2_threshold):
    mags = _mixed_rows()
    expect = _loop_verdicts(mags, onset, r2_threshold)
    assert 0.0 < expect < 1.0 or r2_threshold == 1.0
    assert _word_verdicts(mags, onset, r2_threshold) == expect


def test_batched_verdicts_raise_decay_detects_error():
    mags = _mixed_rows()
    mags[4, 2] = 0.0
    mags[7, 15] = -1.0
    with pytest.raises(ValueError, match="magnitude at n=2 is 0.0"):
        _word_verdicts(mags, 10, 0.99)


def test_run_entropy_rate_is_the_plug_in_tail_slope():
    # prescription_run takes the rate from the per-depth entropies it
    # already holds; semiclassical_h_mu on the measures must agree
    spec, ops, run = _quantum_run(3, 8, 12, 64, 5)
    measures = [run.word_magnitudes[np.unique(run.words[:, :n + 1], axis=0,
                                              return_index=True)[1], n]
                for n in range(13)]
    cfg = McConfig(20_000, seed=3)
    src = ClassicalSource(make_map("cat"), GridPartition(4, 4), "mc", cfg)
    mc = prescription_run(src, 8, word_budget=64)
    recs = refine_series(make_map("cat"), GridPartition(4, 4), 8, "mc", cfg)
    assert mc.semiclassical_h_mu == semiclassical_h_mu(
        [r.measures for r in recs])
    assert run.semiclassical_h_mu == semiclassical_h_mu(measures)


def test_classical_mc_profile_keeps_estimator_entropies():
    # in mc mode the profile holds the records' chao_shen estimates, which
    # differ from the plug-in entropies of the same measures
    cfg = McConfig(20_000, seed=3)
    src = ClassicalSource(make_map("cat"), GridPartition(4, 4), "mc", cfg)
    run = prescription_run(src, 8, word_budget=64)
    recs = refine_series(make_map("cat"), GridPartition(4, 4), 8, "mc", cfg)
    assert run.entropy_profile == tuple(r.entropy for r in recs)
    assert run.entropy_profile != tuple(
        entropy_nats(r.measures) for r in recs)


def test_exhaustive_vs_sampled_regimes():
    spec = GamowSpec(n_max=8)
    ops = make_cell_operators(spec, 2, seed=1)
    src = QuantumSource(spec, tuple(ops))
    full = prescription_run(src, 8, word_budget=4096, seed=0)
    assert full.sampling == "exhaustive"
    assert full.words.shape == (2 ** 9, 9)
    part = prescription_run(src, 8, word_budget=100, seed=0)
    assert part.sampling == "sampled"
    assert part.words.shape[0] <= 100
    assert len(np.unique(part.words, axis=0)) == part.words.shape[0]


def test_quantum_run_past_the_memory_cap_is_refused(monkeypatch):
    # 8 million words of depth 11 need 2.5 GiB beside the operators; the
    # library refuses them before drawing a word
    spec = GamowSpec()
    src = QuantumSource(spec, tuple(make_cell_operators(spec, 4, seed=0)))
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ResourceLimitError, match="--word-budget, --depth"):
        prescription_run(src, 11, word_budget=8_000_000)


@pytest.mark.parametrize("m, length", [(2, 1), (2, 9), (3, 5), (4, 6),
                                       (7, 3), (5, 1)])
def test_all_words_match_itertools_product(m, length):
    # the exhaustive word set used to be built from one tuple per word
    words = _all_words(m, length)
    ref = np.array(list(itertools.product(range(m), repeat=length)),
                   dtype=np.int32)
    assert words.dtype == np.int32 and words.shape == ref.shape
    assert words.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape, m", [((1, 5), 4), ((4096, 81), 4),
                                      ((3000, 6), 2), ((500, 30), 3)])
def test_distinct_rows_equal_np_unique(shape, m):
    # prefix_levels' dedup of a sampled quantum run's words
    rng = np.random.default_rng(shape[0])
    words = rng.integers(0, m, size=shape, dtype=np.int32)
    dup = shape[0] // 4
    words[:dup] = words[shape[0] - dup:]   # exact duplicates
    expect = np.unique(words, axis=0)
    for perm, starts, _, _ in prefix_levels(words, m):
        pass
    got = words[perm[starts]]
    assert got.dtype == np.int32
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_sampled_run_deterministic():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=7)
    src = QuantumSource(spec, tuple(ops))
    a = prescription_run(src, 40, word_budget=128, seed=5)
    b = prescription_run(src, 40, word_budget=128, seed=5)
    assert np.array_equal(a.words, b.words)
    assert np.array_equal(a.word_magnitudes, b.word_magnitudes)
    assert a.report == b.report
    assert a.entropy_profile == b.entropy_profile
    c = prescription_run(src, 40, word_budget=128, seed=6)
    assert not np.array_equal(a.words, c.words)


def test_progress_callback_runs_per_depth():
    lines = []
    src = ClassicalSource(make_map("baker"), GridPartition(2, 1))
    prescription_run(src, 10, progress=lines.append)
    assert len(lines) == 11
    assert lines[0].startswith("depth 0/10")


def test_run_validation():
    src = ClassicalSource(make_map("baker"), GridPartition(2, 1))
    with pytest.raises(ValueError):
        prescription_run(src, 6)
    with pytest.raises(ValueError):
        prescription_run(src, 10, word_budget=0)
    with pytest.raises(TypeError):
        prescription_run("baker", 10)


def test_quantum_source_validation():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=0)
    with pytest.raises(ValueError):
        QuantumSource(spec, tuple(ops[:1]))
    with pytest.raises(ValueError):
        QuantumSource(GamowSpec(n_max=8), tuple(ops))
