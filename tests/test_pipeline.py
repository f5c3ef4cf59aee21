import math

import numpy as np
import pytest

from pesinlab import (BiorthOperator, ClassicalSource, GamowSpec,
                      GridPartition, McConfig, QuantumSource, decay_detect,
                      entropy_nats, h_mu, make_cell_operators, make_map, mu_via_quantum,
                      prescription_run, quantum_fit_onset, refine_series,
                      semiclassical_h_mu)

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
    series = [r.word_measures.measure_array() for r in recs]
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
        table = rec.word_measures
        for word, mag in zip(run.words, run.word_magnitudes):
            assert table[tuple(word[:n + 1])].value == mag[n]


def test_classical_mc_profile_keeps_estimator_entropies():
    # in mc mode the profile holds the records' chao_shen estimates, which
    # differ from the plug-in entropies of the same measures
    cfg = McConfig(20_000, seed=3)
    src = ClassicalSource(make_map("cat"), GridPartition(4, 4), "mc", cfg)
    run = prescription_run(src, 8, word_budget=64)
    recs = refine_series(make_map("cat"), GridPartition(4, 4), 8, "mc", cfg)
    assert run.entropy_profile == tuple(r.entropy for r in recs)
    assert run.entropy_profile != tuple(
        entropy_nats(r.word_measures.measure_array()) for r in recs)


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
