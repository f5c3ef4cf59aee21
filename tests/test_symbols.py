import math

import numpy as np
import pytest

from pesinlab import (CoherentState, PolySymbol, hbar_expansion_check,
                      moyal_bracket, pairing, poisson_bracket, star_product)


def _random_symbol(rng, max_degree=4, hbar=1.0):
    """Small-integer random polynomial, exact under rational arithmetic."""
    terms = {}
    for _ in range(rng.integers(2, 6)):
        a = int(rng.integers(0, max_degree + 1))
        b = int(rng.integers(0, max_degree + 1 - a))
        terms[(a, b)] = terms.get((a, b), 0) + int(rng.integers(-5, 6))
    return PolySymbol(terms, hbar)


# --- star product -----------------------------------------------------------

def test_star_q_with_itself():
    q = PolySymbol.q()
    assert star_product(q, q) == PolySymbol({(2, 0): 1})


def test_star_q_p_ordering():
    q, p = PolySymbol.q(), PolySymbol.p()
    assert star_product(q, p) == PolySymbol({(1, 1): 1, (0, 0): 0.5j})
    assert star_product(p, q) == PolySymbol({(1, 1): 1, (0, 0): -0.5j})


def test_star_canonical_commutator():
    q, p = PolySymbol.q(), PolySymbol.p()
    comm = star_product(q, p) - star_product(p, q)
    assert comm == PolySymbol({(0, 0): 1j})


def test_star_with_constant_is_scaling():
    rng = np.random.default_rng(3)
    f = _random_symbol(rng)
    c = PolySymbol.constant(7)
    assert star_product(c, f) == 7 * f
    assert star_product(f, c) == 7 * f


def test_star_reduces_to_product_at_hbar_zero():
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = _random_symbol(rng, hbar=0.0)
        g = _random_symbol(rng, hbar=0.0)
        assert star_product(f, g) == f * g


@pytest.mark.parametrize("seed", range(10))
def test_star_associative_exactly(seed):
    rng = np.random.default_rng(seed)
    f, g, h = (_random_symbol(rng) for _ in range(3))
    assert star_product(star_product(f, g), h) == star_product(f, star_product(g, h))


def test_star_rejects_mixed_hbar():
    with pytest.raises(ValueError):
        star_product(PolySymbol.q(hbar=1.0), PolySymbol.p(hbar=0.5))


# --- brackets ---------------------------------------------------------------

def test_poisson_canonical_pair():
    q, p = PolySymbol.q(), PolySymbol.p()
    assert poisson_bracket(q, p) == PolySymbol.constant(1)
    assert poisson_bracket(p, q) == PolySymbol.constant(-1)


def test_poisson_cubic_example():
    q3 = PolySymbol.monomial(3, 0)
    assert poisson_bracket(q3, PolySymbol.p()) == PolySymbol({(2, 0): 3})


def test_moyal_canonical_pair():
    assert moyal_bracket(PolySymbol.q(), PolySymbol.p()) == PolySymbol.constant(1)


def test_moyal_of_anything_with_itself():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = _random_symbol(rng)
        assert moyal_bracket(f, f).is_zero


def test_moyal_matches_poisson_on_squares():
    q2 = PolySymbol.monomial(2, 0)
    p2 = PolySymbol.monomial(0, 2)
    expected = PolySymbol({(1, 1): 4})
    assert moyal_bracket(q2, p2) == expected
    assert poisson_bracket(q2, p2) == expected


@pytest.mark.parametrize("seed", range(8))
def test_moyal_equals_poisson_below_cubic(seed):
    rng = np.random.default_rng(100 + seed)
    f = _random_symbol(rng, max_degree=2)
    g = _random_symbol(rng)
    if f.is_constant:
        f = f + PolySymbol.q()
    if g.is_constant:
        g = g + PolySymbol.p()
    assert moyal_bracket(f, g) == poisson_bracket(f, g)
    assert moyal_bracket(g, f) == poisson_bracket(g, f)


@pytest.mark.parametrize("seed", range(6))
def test_bracket_bilinearity_and_antisymmetry(seed):
    rng = np.random.default_rng(200 + seed)
    f, g, h = (_random_symbol(rng) for _ in range(3))
    for bracket in (poisson_bracket, moyal_bracket):
        assert bracket(f + g, h) == bracket(f, h) + bracket(g, h)
        assert bracket(3 * f, g) == 3 * bracket(f, g)
        assert bracket(f, g) == -bracket(g, f)


@pytest.mark.parametrize("seed", range(6))
def test_jacobi_identity_on_cubics(seed):
    rng = np.random.default_rng(300 + seed)
    f, g, h = (_random_symbol(rng, max_degree=3) for _ in range(3))
    for bracket in (poisson_bracket, moyal_bracket):
        total = (bracket(f, bracket(g, h)) + bracket(g, bracket(h, f))
                 + bracket(h, bracket(f, g)))
        assert total.is_zero


def test_moyal_requires_positive_hbar():
    with pytest.raises(ValueError):
        moyal_bracket(PolySymbol.q(hbar=0.0), PolySymbol.p(hbar=0.0))


# --- correspondence defects -------------------------------------------------

def test_defect_linear_pair():
    assert hbar_expansion_check(PolySymbol.q(), PolySymbol.p()) == (1, math.inf)


def test_defect_squares():
    star_d, moyal_d = hbar_expansion_check(PolySymbol.monomial(2, 0),
                                           PolySymbol.monomial(0, 2))
    assert star_d >= 1
    assert moyal_d == math.inf


def test_defect_skips_even_orders():
    # a symbol commutes with itself, so Moyal - Poisson is 0 although the
    # even order-4 term of the star series is not
    f = PolySymbol.monomial(2, 2)
    assert moyal_bracket(f, f).is_zero
    assert hbar_expansion_check(f, f) == (2, math.inf)


def test_defect_cubes():
    star_d, moyal_d = hbar_expansion_check(PolySymbol.monomial(3, 0),
                                           PolySymbol.monomial(0, 3))
    assert star_d >= 1
    assert moyal_d == 2


@pytest.mark.parametrize("seed", range(10))
def test_defect_floors_hold_generically(seed):
    rng = np.random.default_rng(400 + seed)
    f = _random_symbol(rng) + PolySymbol.q()
    g = _random_symbol(rng) + PolySymbol.p()
    star_d, moyal_d = hbar_expansion_check(f, g)
    assert star_d >= 1
    assert moyal_d >= 2


def test_defect_rejects_constants():
    with pytest.raises(ValueError):
        hbar_expansion_check(PolySymbol.constant(2), PolySymbol.q())


# --- text round trip --------------------------------------------------------

def test_text_canonical_order():
    f = PolySymbol({(0, 0): 1, (2, 0): 3, (1, 1): -2, (0, 1): 0.5j})
    assert f.to_text() == "3 * q^2 p^0 + -2 * q^1 p^1 + 1/2j * q^0 p^1 + 1 * q^0 p^0"


def test_text_zero():
    assert PolySymbol({}).to_text() == "0"
    assert PolySymbol.from_text("0") == PolySymbol({})


@pytest.mark.parametrize("seed", range(10))
def test_text_round_trip(seed):
    rng = np.random.default_rng(500 + seed)
    f = _random_symbol(rng)
    if rng.integers(0, 2):
        f = f * 1j + _random_symbol(rng)
    assert PolySymbol.from_text(f.to_text(), f.hbar) == f


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        PolySymbol.from_text("q squared plus p")


# --- construction and views -------------------------------------------------

def test_symbol_validation():
    with pytest.raises(ValueError):
        PolySymbol({(-1, 0): 1})
    with pytest.raises(ValueError):
        PolySymbol({(0, 0): 1}, hbar=-0.5)


def test_zero_coefficients_dropped():
    f = PolySymbol({(1, 0): 1, (0, 1): 0})
    assert f.terms == {(1, 0): 1 + 0j}
    assert f.degree == 1
    assert PolySymbol({}).degree == -1


# --- Gaussian pairing -------------------------------------------------------

def test_pairing_normalization():
    state = CoherentState(0.3, -0.8, 1.0)
    assert pairing(state, PolySymbol.constant(1)) == 1.0 + 0j


def test_pairing_first_moments():
    state = CoherentState(0.25, -1.5, 1.0)
    assert pairing(state, PolySymbol.q()) == 0.25 + 0j
    assert pairing(state, PolySymbol.p()) == -1.5 + 0j


def test_pairing_variance_at_origin():
    state = CoherentState(0.0, 0.0, 1.0)
    assert pairing(state, PolySymbol.monomial(2, 0)) == 0.5 + 0j
    state = CoherentState(0.0, 0.0, 0.2)
    q2 = PolySymbol.monomial(2, 0, hbar=0.2)
    assert pairing(state, q2) == 0.1 + 0j


def test_pairing_linear_in_observable():
    rng = np.random.default_rng(6)
    state = CoherentState(0.4, 0.7, 1.0)
    f, g = _random_symbol(rng), _random_symbol(rng)
    lhs = pairing(state, f + 2 * g)
    rhs = pairing(state, f) + 2 * pairing(state, g)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_pairing_normalization_many_states(seed):
    rng = np.random.default_rng(600 + seed)
    q0, p0 = rng.uniform(-3, 3, 2)
    hbar = float(rng.uniform(0.05, 2.0))
    state = CoherentState(float(q0), float(p0), hbar)
    assert abs(pairing(state, PolySymbol.constant(1, hbar)) - 1.0) < 1e-12


def test_pairing_rejects_mismatched_hbar():
    with pytest.raises(ValueError):
        pairing(CoherentState(0, 0, 1.0), PolySymbol.q(hbar=0.5))


def test_coherent_state_needs_positive_hbar():
    with pytest.raises(ValueError):
        CoherentState(0.0, 0.0, 0.0)
