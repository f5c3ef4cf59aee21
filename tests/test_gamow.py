import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesinlab import (BiorthOperator, GamowSpec, QuantumSource,
                      ResourceLimitError, chain_trace, chain_traces,
                      decay_bounds, eigenvalues, evolution_factors,
                      evolve_matrix_oracle, evolve_operator,
                      make_cell_operators, off_mass_ratio, prescription_run)
from pesinlab import gamow, limits
from pesinlab.gamow import (GEMM_ONE_THREAD, TRUNCATION_EPS, _gemm_rows,
                            _truncation_dim)

# tracemalloc peak of chain_traces on the default 4096 sampled words to
# depth 80, stated in the README.  Blocks of 8 MiB measured 13.3 MiB; the
# depth-major kernel, one 32x32 product per word, peaked at 68.5 MiB
CHAIN_DEFAULT_PEAK_BYTES = 16 * 2 ** 20


def _chain_ops(rng, count, n_max=32, lead_lo=0.3, lead_hi=0.7, off=3e-4):
    """Per-step operators with prescribed lead range and small decaying tails."""
    r = np.arange(n_max)
    falloff = 0.5 ** np.maximum(r[:, None] + r[None, :] - 1, 0)
    ops = []
    for i in range(count):
        mags = off * (0.5 + 0.5 * rng.random((n_max, n_max))) * falloff
        phases = np.exp(2j * np.pi * rng.random((n_max, n_max)))
        c = mags * phases
        c[0, 0] = rng.uniform(lead_lo, lead_hi)
        ops.append(BiorthOperator(c, f"step-{i}"))
    return ops


# --- spectrum and spec ------------------------------------------------------

def test_eigenvalue_ladder():
    z = eigenvalues(GamowSpec())
    assert z[0] == 1.0 + 0j
    assert z[1] == 1.0 - 0.1j
    assert z[5] == 5.0 - 0.5j


def test_relaxation_time():
    assert GamowSpec().t_r == 10.0
    assert GamowSpec(gamma0=0.5, hbar=2.0).t_r == 4.0


def test_spec_validation():
    with pytest.raises(ValueError):
        GamowSpec(gamma0=0.0)
    with pytest.raises(ValueError):
        GamowSpec(omega0=-1.0)
    with pytest.raises(ValueError):
        GamowSpec(n_max=1)


def test_operator_must_be_square():
    with pytest.raises(ValueError):
        BiorthOperator(np.zeros((3, 4)))


# --- evolution --------------------------------------------------------------

def test_factors_fix_the_lead_entry():
    f = evolution_factors(GamowSpec(), 7)
    assert f[0, 0] == 1.0 + 0j


def test_factors_damp_the_diagonal():
    f = evolution_factors(GamowSpec(), 1)
    assert abs(f[1, 1] - math.exp(-0.2)) < 1e-15
    assert abs(f[2, 2] - math.exp(-0.4)) < 1e-15
    assert f[1, 1].imag == 0.0


def test_factors_first_row_magnitude_and_phase():
    j = 5
    f = evolution_factors(GamowSpec(), j)
    for s in (1, 2, 3):
        expect = np.exp(1j * (s - 1) * j) * math.exp(-0.1 * s * j)
        assert abs(f[0, s] - expect) < 1e-14


def test_evolve_zero_steps_is_identity():
    op = BiorthOperator(np.eye(32) * 0.5)
    assert evolve_operator(GamowSpec(), op, 0) is op


def test_evolve_keeps_diagonal_operators_diagonal():
    spec = GamowSpec(n_max=8)
    op = BiorthOperator(np.diag(np.linspace(0.5, 0.1, 8)))
    out = evolve_operator(spec, op, 3)
    assert np.all(out.coeffs == np.diag(np.diag(out.coeffs)))
    assert np.all(out.coeffs.imag == 0.0)
    assert out.coeffs[0, 0] == 0.5


def test_evolve_rejects_negative_steps():
    op = BiorthOperator(np.eye(32))
    with pytest.raises(ValueError):
        evolve_operator(GamowSpec(), op, -1)


def test_evolve_rejects_dimension_mismatch():
    op = BiorthOperator(np.eye(8))
    with pytest.raises(ValueError):
        evolve_operator(GamowSpec(), op, 1)


@pytest.mark.parametrize("seed", range(15))
def test_matrix_oracle_agrees(seed):
    rng = np.random.default_rng(seed)
    n_max = int(rng.integers(2, 33))
    spec = GamowSpec(omega0=float(rng.uniform(0.5, 2.0)),
                     gamma0=float(rng.uniform(0.05, 0.5)), n_max=n_max)
    c = rng.standard_normal((n_max, n_max)) + 1j * rng.standard_normal((n_max, n_max))
    op = BiorthOperator(c)
    j = int(rng.integers(0, 11))
    fast = evolve_operator(spec, op, j).coeffs
    dense = evolve_matrix_oracle(spec, op, j).coeffs
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(fast - dense)) <= 1e-10 * scale


def test_oracle_dimension_cap():
    spec = GamowSpec(n_max=256)
    op = BiorthOperator(np.eye(256))
    with pytest.raises(ResourceLimitError):
        evolve_matrix_oracle(spec, op, 1)


def test_off_mass_decays_past_relaxation():
    spec = GamowSpec()
    [op] = make_cell_operators(spec, 2, seed=7)[:1]
    ratios = [off_mass_ratio(evolve_operator(spec, op, j))
              for j in (0, 50, 100, 200)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-6


def test_off_mass_needs_lead():
    with pytest.raises(ValueError):
        off_mass_ratio(BiorthOperator(np.diag([0.0, 0.5])))


# --- chain traces -----------------------------------------------------------

def test_chain_single_operator_is_plain_trace():
    spec = GamowSpec(n_max=4)
    c = np.diag([0.4, 0.1, 0.05, 0.02])
    res = chain_trace(spec, [BiorthOperator(c)], 0)
    assert res.trace == complex(np.trace(c))
    assert res.n == 0


def test_chain_rank_one_projectors_exact():
    spec = GamowSpec()
    c = np.zeros((32, 32))
    c[0, 0] = 0.5
    ops = [BiorthOperator(c)] * 21
    res = chain_trace(spec, ops, 20)
    assert res.trace == 0.5 ** 21
    assert res.diagonal_product == 0.5 ** 21
    assert res.rel_error == 0.0


def test_chain_start_step_offsets_evolution():
    spec = GamowSpec(n_max=8)
    rng = np.random.default_rng(12)
    op = BiorthOperator(rng.standard_normal((8, 8)) * 0.1 + np.diag([0.5] + [0.0] * 7))
    shifted = chain_trace(spec, [op], 0, start_step=5)
    direct = complex(np.einsum("ii", evolve_operator(spec, op, 5).coeffs))
    assert shifted.trace == direct


def test_chain_length_and_start_validation():
    spec = GamowSpec(n_max=4)
    op = BiorthOperator(np.eye(4) * 0.2)
    with pytest.raises(ValueError):
        chain_trace(spec, [op, op], 0)
    with pytest.raises(ValueError):
        chain_trace(spec, [op], 0, start_step=-1)


def test_long_chain_tracks_diagonal_product():
    spec = GamowSpec()
    ops = _chain_ops(np.random.default_rng(7), 61)
    res = chain_trace(spec, ops, 60)
    assert res.rel_error < 1e-3
    assert res.imag_ratio < 1e-3


def test_long_chain_trace_inside_decay_envelope():
    spec = GamowSpec()
    ops = _chain_ops(np.random.default_rng(7), 61)
    res = chain_trace(spec, ops, 60)
    d1, d2 = decay_bounds(ops)
    lt = math.log(abs(res.trace))
    assert 61 * math.log(d1) < lt < 61 * math.log(d2)


@pytest.mark.parametrize("seed", range(5))
def test_chain_error_plateaus_past_relaxation(seed):
    # beyond n = 10 t_R / alpha every factor is effectively rank one, so the
    # accumulated relative error freezes; allow plateau-level noise only
    spec = GamowSpec()
    ops = _chain_ops(np.random.default_rng(100 + seed), 141)
    errs = [chain_trace(spec, ops[:n + 1], n).rel_error for n in (100, 120, 140)]
    assert errs[1] <= errs[0] * (1 + 1e-3)
    assert errs[2] <= errs[0] * (1 + 1e-3)


# --- truncated chain kernel -------------------------------------------------

def _untruncated_chain_traces(spec, cell_ops, words, start_step=0):
    """The full n_max x n_max product loop that chain_traces truncates."""
    base = np.stack([op.coeffs for op in cell_ops])
    mags = np.empty(words.shape)
    product = None
    for n in range(words.shape[1]):
        syms, rows = np.unique(words[:, n], return_inverse=True)
        evolved = base[syms]
        if start_step + n:
            evolved = evolved * evolution_factors(spec, start_step + n)
        product = evolved[rows] if product is None else product @ evolved[rows]
        trace = np.einsum("wii->w", product)
        mags[:, n] = np.abs(trace)
    return mags, trace


# (cells, n_max, depth, word_budget, seed): the golden quantum runs of
# test_pipeline.py, whose last one reaches truncation dimension 5
@pytest.mark.parametrize("case", [(3, 8, 12, 64, 5), (2, 6, 7, 256, 0),
                                  (4, 32, 40, 256, 1), (4, 32, 80, 512, 0)],
                         ids=lambda c: "m%d-d%d-n%d-w%d-s%d" % c)
def test_truncated_kernel_is_bit_identical_on_golden_runs(case):
    cells, n_max, depth, word_budget, seed = case
    spec = GamowSpec(n_max=n_max)
    ops = make_cell_operators(spec, cells, seed=seed)
    run = prescription_run(QuantumSource(spec, tuple(ops)), depth,
                           word_budget=word_budget, seed=seed)
    mags, _ = _untruncated_chain_traces(spec, ops, run.words)
    assert np.array_equal(run.word_magnitudes, mags)


def test_truncation_dimension_falls_with_depth():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=0)
    dims = []
    words = np.zeros((1, 81), dtype=int)
    chain_traces(spec, ops, words, on_depth=lambda n, col, k, _: dims.append(k))
    assert (dims[0], dims[10], dims[40], dims[80]) == (32, 21, 8, 5)
    assert all(b <= a for a, b in zip(dims, dims[1:]))


def test_truncation_dimension_ignores_the_word_set():
    # k_n comes from every cell operator, so words using one symbol see the
    # same dimensions as words using all four, and shared rows the same bits
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=3)
    rng = np.random.default_rng(3)
    mixed = rng.integers(0, 4, size=(40, 60))
    mixed[0] = 0
    runs = []
    for words in (mixed, mixed[:1]):
        dims = []
        mags, _ = chain_traces(spec, ops, words,
                               on_depth=lambda n, col, k, _: dims.append(k))
        runs.append((dims, mags))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1][:1], runs[1][1])


def test_zero_lead_disables_truncation():
    spec = GamowSpec(n_max=6)
    c = np.zeros((6, 6))
    c[0, 0] = 0.5
    zero = BiorthOperator(np.zeros((6, 6)))
    dims = []
    chain_traces(spec, [BiorthOperator(c), zero], np.zeros((1, 4), dtype=int),
                 on_depth=lambda n, col, k, _: dims.append(k))
    assert dims == [6, 6, 6, 6]


def _per_row_chain_traces(spec, cell_ops, words, start_step=0):
    """The per-row truncated kernel that chain_traces replaced.

    Every row keeps its own (n_max, k_n) product, extended by one matmul per
    row and depth, 64 rows at a time, with no sharing between rows.
    """
    base = np.stack([op.coeffs for op in cell_ops])
    n_rows = words.shape[0]
    dim = spec.n_max
    mags = np.empty(words.shape)
    trace = np.empty(n_rows, dtype=complex)
    flat = np.empty(n_rows * dim * dim, dtype=complex)
    scratch = np.empty(min(n_rows, 64) * dim * dim, dtype=complex)
    k_prev = dim
    for n in range(words.shape[1]):
        evolved = base
        if start_step + n:
            evolved = base * evolution_factors(spec, start_step + n)
        k = min(_truncation_dim(evolved), k_prev)
        old = flat[:n_rows * dim * k_prev].reshape(n_rows, dim, k_prev)
        new = flat[:n_rows * dim * k].reshape(n_rows, dim, k)
        links = evolved[:, :k_prev, :k] if n else evolved[:, :, :k]
        for lo in range(0, n_rows, 64):
            hi = min(lo + 64, n_rows)
            if n:
                out = scratch[:(hi - lo) * dim * k].reshape(hi - lo, dim, k)
                np.matmul(old[lo:hi], links[words[lo:hi, n]], out=out)
                new[lo:hi] = out
            else:
                new[lo:hi] = links[words[lo:hi, n]]
            trace[lo:hi] = np.einsum("wii->w", new[lo:hi, :k])
        np.abs(trace, out=mags[:, n])
        k_prev = k
    return mags, trace


def _assert_matches_per_row(spec, ops, words, start_step=0):
    mags, trace = chain_traces(spec, ops, words, start_step)
    ref_mags, ref_trace = _per_row_chain_traces(spec, ops, words, start_step)
    assert mags.tobytes() == ref_mags.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


def _sampled_words(m, depth, count, seed):
    """The distinct lex-sorted words a sampled quantum run tracks."""
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(0, m, size=(count, depth + 1),
                                  dtype=np.int32), axis=0)


@pytest.mark.parametrize("seed", [0, 7])
def test_kernel_matches_per_row_kernel_on_default_family(seed):
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=seed)
    _assert_matches_per_row(spec, ops, _sampled_words(4, 80, 4096, seed))


def test_kernel_matches_per_row_kernel_with_support_8():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=0, support=8)
    _assert_matches_per_row(spec, ops, _sampled_words(4, 80, 4096, 0))


@pytest.mark.parametrize("n_max, cells", [(2, 2), (2, 3), (8, 4)])
def test_kernel_matches_per_row_kernel_at_small_n_max(n_max, cells):
    spec = GamowSpec(n_max=n_max)
    ops = make_cell_operators(spec, cells, seed=n_max)
    _assert_matches_per_row(spec, ops, _sampled_words(cells, 60, 2000, 1))


@pytest.mark.parametrize("start_step", [1, 5, 40])
def test_kernel_matches_per_row_kernel_past_start_step(start_step):
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=3)
    _assert_matches_per_row(spec, ops, _sampled_words(4, 30, 500, 3),
                            start_step)


def test_kernel_matches_per_row_kernel_on_one_word():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=4)
    _assert_matches_per_row(spec, ops, _sampled_words(4, 80, 1, 4))


def test_kernel_matches_per_row_kernel_on_unsorted_repeated_rows():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 3, seed=5)
    rng = np.random.default_rng(5)
    words = rng.integers(0, 3, size=(300, 40))
    words = np.concatenate([words, words[:100], words[:10]])
    words[200:220, 20:] = 1               # rows sharing long prefixes
    rng.shuffle(words)
    _assert_matches_per_row(spec, ops, words)


def _count_sorts(monkeypatch):
    calls = []
    levels = gamow.prefix_levels

    def spy(words, m):
        calls.append(len(words))
        return levels(words, m)

    monkeypatch.setattr(gamow, "prefix_levels", spy)
    return calls


def test_sorted_distinct_words_skip_the_sort(monkeypatch):
    # quantum prescription hands the kernel distinct, lex-sorted words; the
    # kernel checks that up front and does not group them again
    spec = GamowSpec(n_max=8)
    ops = make_cell_operators(spec, 3, seed=2)
    words = _sampled_words(3, 20, 500, 2)
    ref_mags, ref_trace = _per_row_chain_traces(spec, ops, words)
    calls = _count_sorts(monkeypatch)
    for rows in (words, words[:1]):
        mags, trace = chain_traces(spec, ops, rows)
        assert mags.tobytes() == ref_mags[:len(rows)].tobytes()
        assert trace.tobytes() == ref_trace[:len(rows)].tobytes()
    assert calls == []


@pytest.mark.parametrize("order", ["swapped", "repeated", "reversed"])
def test_unsorted_or_repeated_words_are_still_sorted(monkeypatch, order):
    spec = GamowSpec(n_max=8)
    ops = make_cell_operators(spec, 3, seed=2)
    words = _sampled_words(3, 20, 500, 2)
    rows = {"swapped": np.r_[0, 2, 1, 3:len(words)],
            "repeated": np.r_[0:len(words), len(words) - 1],
            "reversed": np.arange(len(words))[::-1]}[order]
    ref_mags, ref_trace = _per_row_chain_traces(spec, ops, words)
    calls = _count_sorts(monkeypatch)
    mags, trace = chain_traces(spec, ops, words[rows])
    assert calls == [len(rows)]
    assert mags.tobytes() == ref_mags[rows].tobytes()
    assert trace.tobytes() == ref_trace[rows].tobytes()


def test_on_depth_gets_each_distinct_prefix_in_lex_order():
    spec = GamowSpec(n_max=8)
    ops = make_cell_operators(spec, 3, seed=2)
    words = _sampled_words(3, 12, 400, 2)
    first_diff = np.concatenate(
        ([0], np.argmax(words[1:] != words[:-1], axis=1)))
    seen = []
    mags, _ = chain_traces(spec, ops, words, on_depth=lambda n, col, k, p:
                           seen.append((col.copy(), p)))
    for n, (col, prefix_mags) in enumerate(seen):
        assert col.tobytes() == mags[:, n].tobytes()
        assert prefix_mags.tobytes() == col[first_diff <= n].tobytes()


def test_on_depth_prefixes_of_unsorted_repeated_rows():
    spec = GamowSpec(n_max=6)
    ops = make_cell_operators(spec, 2, seed=9)
    words = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1], [0, 1, 0]])
    seen = []
    mags, _ = chain_traces(spec, ops, words, on_depth=lambda n, col, k, p:
                           seen.append(p))
    order = [3, 1, 0]                     # one row of each prefix, lex order
    assert [len(p) for p in seen] == [2, 2, 3]
    assert seen[2].tobytes() == mags[order, 2].tobytes()
    assert seen[1].tobytes() == mags[[1, 0], 1].tobytes()


def _block_words(monkeypatch, rows, spec, ops, start_step=0):
    """Set BLOCK_BYTES to rows words of k_0^2 products; return block sizes."""
    k0 = gamow._chain_links(spec, ops, 1, start_step)[1][0]
    monkeypatch.setattr(limits, "BLOCK_BYTES", rows * 16 * k0 ** 2)
    sizes = []
    block_traces = gamow._block_traces

    def spy(links, dims, words, *args):
        sizes.append(len(words))
        return block_traces(links, dims, words, *args)

    monkeypatch.setattr(gamow, "_block_traces", spy)
    return sizes


def _long_shared_prefixes(m, depth, count, seed):
    """Unsorted rows, many repeated, whose distinct rows share long prefixes."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, m, size=(count, depth + 1))
    words[:, :depth // 2] = rng.integers(0, 2, size=depth // 2)
    words[count // 3:, :depth - 3] = words[0, :depth - 3]
    words = np.concatenate([words, words[::3], words[count // 2:]])
    rng.shuffle(words)
    return words


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("kind", ["sampled", "unsorted"])
def test_blocks_keep_every_bit(monkeypatch, rows, kind):
    spec = GamowSpec(n_max=12)
    ops = make_cell_operators(spec, 3, seed=rows)
    if kind == "sampled":
        words = _sampled_words(3, 30, 60, rows)
    else:
        words = _long_shared_prefixes(3, 30, 40, rows)
    ref_mags, ref_trace = _per_row_chain_traces(spec, ops, words)
    full_mags, _ = _untruncated_chain_traces(spec, ops, words)
    sizes = _block_words(monkeypatch, rows, spec, ops)
    mags, trace = chain_traces(spec, ops, words)
    distinct = np.unique(words, axis=0)
    assert sizes[:-1] == [rows] * (len(sizes) - 1) and sum(sizes) == len(distinct)
    # some block starts inside a prefix shared with the block before it
    starts = distinct[rows::rows]
    assert (starts[:, :5] == distinct[rows - 1:-1:rows][:, :5]).all(axis=1).any()
    assert mags.tobytes() == ref_mags.tobytes() == full_mags.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_blocks_keep_every_bit_on_the_default_family(monkeypatch, rows):
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=rows)
    words = _long_shared_prefixes(4, 40, 24, rows)
    ref_mags, ref_trace = _per_row_chain_traces(spec, ops, words, 3)
    sizes = _block_words(monkeypatch, rows, spec, ops, 3)
    mags, trace = chain_traces(spec, ops, words, 3)
    assert len(sizes) > 1
    assert mags.tobytes() == ref_mags.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_blocks_keep_on_depth_prefixes_dims_and_evolutions(monkeypatch, rows):
    spec = GamowSpec(n_max=10)
    ops = make_cell_operators(spec, 3, seed=2)
    words = _sampled_words(3, 40, 200, rows)
    first_diff = np.concatenate(
        ([0], np.argmax(words[1:] != words[:-1], axis=1)))
    ref_dims = []
    chain_traces(spec, ops, words, 5, on_depth=lambda n, col, k, p:
                 ref_dims.append(k))
    ref, _ = _per_row_chain_traces(spec, ops, words, 5)
    sizes = _block_words(monkeypatch, rows, spec, ops, 5)
    steps = []
    evolve = gamow.evolution_factors
    monkeypatch.setattr(gamow, "evolution_factors",
                        lambda spec, j: steps.append(j) or evolve(spec, j))
    seen = []
    mags, _ = chain_traces(spec, ops, words, 5, on_depth=lambda n, col, k, p:
                           seen.append((n, k, col.copy(), p)))
    assert len(sizes) > 1
    assert steps == list(range(5, 46))           # once per depth
    assert [n for n, *_ in seen] == list(range(41))
    assert [k for _, k, *_ in seen] == ref_dims
    for n, _, col, prefix_mags in seen:
        assert col.tobytes() == mags[:, n].tobytes() == ref[:, n].tobytes()
        assert prefix_mags.tobytes() == col[first_diff <= n].tobytes()


def test_default_kernel_peak_memory_is_bounded():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=0)
    words = _sampled_words(4, 80, 4096, 0)
    tracemalloc.start()
    try:
        chain_traces(spec, ops, words, on_depth=lambda *args: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHAIN_DEFAULT_PEAK_BYTES


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 33), st.integers(2, 5), st.integers(1, 40),
       st.integers(1, 300), st.integers(0, 30), st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_per_row_kernel_on_random_words(n_max, m, depth, rows,
                                                       start_step, seed):
    spec = GamowSpec(n_max=n_max)
    ops = make_cell_operators(spec, m, seed=seed % 1000,
                              support=1 + seed % n_max)
    rng = np.random.default_rng(seed)
    # few symbols in the early columns, so rows share prefixes and repeat
    words = rng.integers(0, m, size=(rows, depth))
    words[:, :depth // 2] %= 2
    _assert_matches_per_row(spec, ops, words, start_step)


def test_gemm_sizing_stays_on_one_thread():
    for k_prev in range(1, 65):
        for k in range(1, k_prev + 1):
            rows = _gemm_rows(k, k_prev)
            assert rows >= 1
            if rows > 1:
                assert rows * k * k * k_prev < 2 ** 16
            # and one more row would reach it
            assert (rows + 1) * k * k * k_prev > GEMM_ONE_THREAD


@st.composite
def chain_families(draw):
    """Random or prescribed cell families, specs and words for chain tests."""
    n_max = draw(st.integers(2, 32))
    spec = GamowSpec(omega0=draw(st.floats(0.1, 3.0)),
                     gamma0=draw(st.floats(0.02, 1.0)),
                     alpha=draw(st.floats(0.2, 3.0)), n_max=n_max)
    m = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        ops = make_cell_operators(
            spec, m, seed=seed, support=draw(st.integers(1, n_max)),
            total_mass=draw(st.floats(0.3, 1.0)),
            spread=draw(st.floats(0.0, 0.9)),
            off_scale=10.0 ** draw(st.floats(-6.0, -1.0)))
    else:
        # off-diagonal magnitudes up to the bound of 1 that configs allow
        leads = 1e-3 + rng.dirichlet(np.ones(m)) * draw(st.floats(0.3, 0.99))
        tables = []
        for lead in leads:
            c = rng.random((n_max, n_max)) * np.exp(
                2j * np.pi * rng.random((n_max, n_max)))
            c[0, 0] = lead
            tables.append(c)
        ops = make_cell_operators(spec, m, "prescribed", tables=tables)
    words = rng.integers(0, m, size=(8, draw(st.integers(1, 150))))
    return spec, ops, words


@settings(max_examples=60, deadline=None)
@given(chain_families())
def test_truncation_error_within_stated_bound(family):
    spec, ops, words = family
    mags, _ = chain_traces(spec, ops, words)
    ref, _ = _untruncated_chain_traces(spec, ops, words)
    # the bound is relative, so it holds where the magnitudes are normal
    # doubles (quantum runs refuse depths whose lead products leave them)
    depth = np.arange(1, words.shape[1] + 1)
    bound = depth * spec.n_max * (TRUNCATION_EPS + 2.0 ** -53) * ref
    normal = ref >= np.finfo(float).tiny
    assert (np.abs(mags - ref) <= bound)[normal].all()


# --- decay bounds -----------------------------------------------------------

def test_bounds_degenerate():
    c = np.zeros((4, 4))
    c[0, 0] = 0.5
    assert decay_bounds([BiorthOperator(c)] * 3) == (0.5, 0.5)


def test_bounds_min_max():
    ops = []
    for v in (0.3, 0.5, 0.7):
        c = np.zeros((4, 4))
        c[0, 0] = v
        ops.append(BiorthOperator(c))
    assert decay_bounds(ops) == (0.3, 0.7)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, 0.5 + 0.1j])
def test_bounds_reject_out_of_range_leads(bad):
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = bad
    with pytest.raises(ValueError):
        decay_bounds([BiorthOperator(c)])


def test_bounds_reject_empty():
    with pytest.raises(ValueError):
        decay_bounds([])


# --- cell operator generation -----------------------------------------------

def test_random_cells_reproducible():
    spec = GamowSpec()
    a = make_cell_operators(spec, 4, seed=7)
    b = make_cell_operators(spec, 4, seed=7)
    c = make_cell_operators(spec, 4, seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x.coeffs, y.coeffs)
    assert not np.array_equal(a[0].coeffs, c[0].coeffs)


def test_random_cells_subnormalized():
    for seed in range(10):
        ops = make_cell_operators(GamowSpec(), 4, seed=seed)
        leads = [op.coeffs[0, 0].real for op in ops]
        assert all(0.0 < v < 1.0 for v in leads)
        assert math.fsum(leads) <= 1.0 + 1e-12
        d1, d2 = decay_bounds(ops)
        assert 0.0 < d1 <= d2 < 1.0


def test_random_cells_off_entries_small():
    ops = make_cell_operators(GamowSpec(), 4, seed=7)
    for op in ops:
        assert off_mass_ratio(op) < 0.05


def test_prescribed_cells_echoed_verbatim():
    spec = GamowSpec(n_max=4)
    tables = []
    for v in (0.4, 0.3):
        t = np.zeros((4, 4), dtype=complex)
        t[0, 0] = v
        t[1, 2] = 0.001j
        tables.append(t)
    ops = make_cell_operators(spec, 2, "prescribed", tables=tables,
                              labels=["a", "b"])
    assert np.array_equal(ops[0].coeffs, tables[0])
    assert np.array_equal(ops[1].coeffs, tables[1])
    assert [op.label for op in ops] == ["a", "b"]


def test_prescribed_cells_validation():
    spec = GamowSpec(n_max=4)
    good = np.zeros((4, 4))
    good[0, 0] = 0.6
    with pytest.raises(ValueError):
        make_cell_operators(spec, 2, "prescribed")
    with pytest.raises(ValueError):
        make_cell_operators(spec, 2, "prescribed", tables=[good])
    with pytest.raises(ValueError):
        make_cell_operators(spec, 2, "prescribed", tables=[good[:2, :2]] * 2)
    with pytest.raises(ValueError):
        # two leads of 0.6 break sub-normalization
        make_cell_operators(spec, 2, "prescribed", tables=[good, good])


def test_generation_mode_validation():
    with pytest.raises(ValueError):
        make_cell_operators(GamowSpec(), 4, "adversarial")
    with pytest.raises(ValueError):
        make_cell_operators(GamowSpec(), 1)


def test_support_is_truncation_stable():
    small = GamowSpec(n_max=16)
    big = GamowSpec(n_max=32)
    ops_s = make_cell_operators(small, 3, seed=5, support=8)
    ops_b = make_cell_operators(big, 3, seed=5, support=8)
    for a, b in zip(ops_s, ops_b):
        assert np.array_equal(a.coeffs[:8, :8], b.coeffs[:8, :8])
        assert np.all(b.coeffs[8:, :] == 0) and np.all(b.coeffs[:, 8:] == 0)
    chain_s = chain_trace(small, [ops_s[i % 3] for i in range(11)], 10)
    chain_b = chain_trace(big, [ops_b[i % 3] for i in range(11)], 10)
    rel = abs(chain_s.trace - chain_b.trace) / abs(chain_b.trace)
    assert rel < 1e-8
