"""Property tests of the refinement and evolution invariants.

Small maps, grids, depths and both measure modes: every depth's measures
sum to 1, baker measures on dyadic grids are exact powers of 2, word_rows
gives lex-sorted unique words, and every prefix measure is the measure of
that prefix's own row.

Random GamowSpecs (n_max <= 12, j <= 40): the closed-form evolution agrees
with the dense matrix-exponential oracle, the (0, 0) evolution factor is
exactly 1 and the rest of the factor diagonal is exactly real.

Random cell-operator families with chains of 60-120 links: the final chain
traces are real to within 1e-3 of their magnitude.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pesinlab import (BiorthOperator, GamowSpec, GridPartition, McConfig,
                      chain_traces, evolution_factors, evolve_matrix_oracle,
                      evolve_operator, make_cell_operators, make_map,
                      refine_series, word_rows)

N_SAMPLES = 2000

property_settings = settings(max_examples=50, deadline=None)


@st.composite
def series(draw):
    """A refinement series of a small map, grid and depth, in either mode."""
    name = draw(st.sampled_from(("identity", "baker", "cat")))
    grid = GridPartition(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    depth = draw(st.integers(0, 4))
    if draw(st.sampled_from(("exact", "mc"))) == "exact":
        return refine_series(make_map(name), grid, depth)
    cfg = McConfig(N_SAMPLES, seed=draw(st.integers(0, 2 ** 32 - 1)))
    return refine_series(make_map(name), grid, depth, "mc", cfg)


@property_settings
@given(series())
def test_measures_sum_to_one(recs):
    for rec in recs:
        if rec.mode == "exact":
            assert abs(math.fsum(rec.measures) - 1.0) <= 1e-12
        else:
            counts = np.rint(rec.measures * N_SAMPLES)
            assert (counts / N_SAMPLES == rec.measures).all()
            assert counts.sum() == N_SAMPLES


@property_settings
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 6))
def test_baker_dyadic_grid_measures_are_exact(a, b, depth):
    assume(a + b >= 1)  # the one-cell partition never refines
    recs = refine_series(make_map("baker"), GridPartition(2 ** a, 2 ** b), depth)
    for rec in recs:
        assert rec.nonempty_words == 2 ** (a + b + rec.n)
        assert (rec.measures == 2.0 ** -(a + b + rec.n)).all()


@property_settings
@given(series())
def test_word_rows_are_lex_sorted_and_unique(recs):
    words, _ = word_rows(recs)
    assert words.shape == (recs[-1].nonempty_words, len(recs))
    rows = [tuple(w) for w in words.tolist()]
    assert rows == sorted(set(rows))
    assert (np.diff(recs[-1].codes) > 0).all()


@property_settings
@given(series(), st.data())
def test_prefix_measures_are_prefix_row_measures(recs, data):
    rows = data.draw(st.lists(st.integers(0, recs[-1].nonempty_words - 1),
                              max_size=20))
    words, prefix = word_rows(recs, rows)
    all_words, all_prefix = word_rows(recs)
    assert (words == all_words[rows]).all()
    assert (prefix == all_prefix[rows]).all()
    for d, rec in enumerate(recs):
        own, _ = word_rows(recs[:d + 1])
        measure_of = dict(zip(map(tuple, own.tolist()), rec.measures.tolist()))
        for word, mags in zip(all_words.tolist(), all_prefix):
            assert mags[d] == measure_of[tuple(word[:d + 1])]


# closed form against the dense oracle, relative to the largest input
# coefficient (observed: below 2e-14)
ORACLE_TOL = 1e-10


@st.composite
def gamow_specs(draw):
    def positive(lo, hi):
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    return GamowSpec(omega0=positive(0.05, 5.0), gamma0=positive(0.01, 2.0),
                     hbar=positive(0.1, 5.0), alpha=positive(0.05, 5.0),
                     n_max=draw(st.integers(2, 12)))


@property_settings
@given(gamow_specs(), st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
def test_closed_form_evolution_matches_dense_oracle(spec, j, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.n_max, spec.n_max)
    op = BiorthOperator(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    fast = evolve_operator(spec, op, j).coeffs
    dense = evolve_matrix_oracle(spec, op, j).coeffs
    assert np.max(np.abs(fast - dense)) <= ORACLE_TOL * np.max(np.abs(op.coeffs))


@property_settings
@given(gamow_specs(), st.integers(0, 40))
def test_evolution_factor_diagonal_is_exactly_real(spec, j):
    diag = np.diag(evolution_factors(spec, j))
    assert diag[0] == 1.0
    assert (diag.imag == 0.0).all()


# worst |Im| / |trace| seen over 300 draws of these ranges: 6e-5
IMAG_TOL = 1e-3


@property_settings
@given(st.integers(2, 5), st.integers(4, 32), st.floats(0.05, 1.0),
       st.floats(0.3, 1.0), st.floats(0.0, 0.9), st.integers(60, 120),
       st.integers(0, 2 ** 32 - 1))
def test_long_chain_traces_are_real(m, n_max, gamma0, total_mass, spread,
                                    length, seed):
    spec = GamowSpec(gamma0=gamma0, n_max=n_max)
    ops = make_cell_operators(spec, m, seed=seed, total_mass=total_mass,
                              spread=spread)
    words = np.random.default_rng(seed).integers(0, m, size=(8, length))
    mags, final = chain_traces(spec, ops, words)
    assert (mags[:, -1] > 0.0).all()
    assert (np.abs(final.imag) <= IMAG_TOL * mags[:, -1]).all()
