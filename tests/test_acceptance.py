"""End-to-end checks, one per release criterion, each with a runtime budget.

Run with -s to see the per-criterion PASS/FAIL lines as they happen; without
it pytest shows them for failing tests only.
"""

import json
import math
import time

import numpy as np
import pytest

from pesinlab import (CoherentState, GamowSpec, GridPartition, McConfig,
                      PhasePoint, PolySymbol, chain_trace, decay_bounds,
                      evolve_matrix_oracle, evolve_operator, h_mu,
                      hbar_expansion_check, lyapunov_spectrum,
                      make_cell_operators, make_map, pairing, pesin_residual,
                      positive_sum_field, refine_series, star_product)
from pesinlab.cli import main as cli_main

LN2 = math.log(2.0)
CAT_SIGMA = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def _criterion(num: int, budget_s: float, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
    except BaseException as exc:
        print(f"criterion {num}: FAIL ({exc})", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"criterion {num}: FAIL (runtime {elapsed:.2f}s, budget {budget_s:g}s)",
              flush=True)
        raise AssertionError(
            f"criterion {num} exceeded its {budget_s:g}s budget: {elapsed:.2f}s")
    print(f"criterion {num}: PASS ({detail}; {elapsed:.2f}s < {budget_s:g}s)",
          flush=True)


def test_criterion_01_cat_lyapunov():
    def check():
        cat = make_map("cat")
        rng = np.random.default_rng(1)
        worst = 0.0
        for q, p in rng.random((10, 2)):
            s = lyapunov_spectrum(cat, PhasePoint(float(q), float(p)), 10_000)
            assert abs(s.exponents[0] - CAT_SIGMA) < 1e-6
            assert abs(s.exponents[0] + s.exponents[1]) < 1e-6
            worst = max(worst, abs(s.exponents[0] - CAT_SIGMA))
        return f"sigma1 within {worst:.2e} over 10 starts"

    _criterion(1, 1.0, check)


def test_criterion_02_baker_oracle():
    def check():
        recs = refine_series(make_map("baker"), GridPartition(2, 1), 12)
        for rec in recs:
            vals = rec.measures
            assert (vals == 2.0 ** -(rec.n + 1)).all()
            assert rec.entropy == (rec.n + 1) * LN2
        slope = h_mu(recs)
        assert abs(slope - LN2) < 0.01 * LN2
        return f"measures and entropies exact to depth 12, slope {slope:.6f}"

    _criterion(2, 10.0, check)


def test_criterion_03_pesin_identity():
    def check():
        baker_h = h_mu(refine_series(make_map("baker"), GridPartition(2, 1), 12))
        pts = [PhasePoint(*np.random.default_rng(2).random(2)) for _ in range(10)]
        baker_rep = pesin_residual(
            baker_h, positive_sum_field(make_map("baker"), pts, 10_000))
        assert abs(baker_rep.relative_residual) < 0.02

        cat_h = h_mu(refine_series(make_map("cat"), GridPartition(8, 8), 10,
                                   "mc", McConfig(1_000_000, seed=0)))
        cat_rep = pesin_residual(
            cat_h, positive_sum_field(make_map("cat"), pts, 10_000))
        assert abs(cat_rep.relative_residual) < 0.10
        return (f"baker residual {baker_rep.relative_residual:+.4f}, "
                f"cat residual {cat_rep.relative_residual:+.4f}")

    _criterion(3, 120.0, check)


def test_criterion_04_symbol_expansions():
    def rand_symbol(rng):
        terms = {}
        for _ in range(rng.integers(2, 6)):
            a = int(rng.integers(0, 5))
            b = int(rng.integers(0, 5 - a))
            terms[(a, b)] = terms.get((a, b), 0) + int(rng.integers(-5, 6))
        sym = PolySymbol(terms)
        return sym + PolySymbol.q() if sym.is_constant else sym

    def check():
        rng = np.random.default_rng(4)
        for _ in range(200):
            f, g, h = rand_symbol(rng), rand_symbol(rng), rand_symbol(rng)
            star_d, moyal_d = hbar_expansion_check(f, g)
            assert star_d >= 1
            assert moyal_d >= 2
            assert (star_product(star_product(f, g), h)
                    == star_product(f, star_product(g, h)))
        return "defect floors and associativity exact on 200 pairs"

    _criterion(4, 5.0, check)


def test_criterion_05_pairing_normalization():
    def check():
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(50):
            q0, p0 = rng.uniform(-4, 4, 2)
            hbar = float(rng.uniform(0.01, 3.0))
            state = CoherentState(float(q0), float(p0), hbar)
            val = pairing(state, PolySymbol.constant(1, hbar))
            worst = max(worst, abs(val - 1.0))
        assert worst <= 1e-12
        return f"max |pairing - 1| = {worst:.2e} over 50 states"

    _criterion(5, 1.0, check)


def test_criterion_06_evolution_oracle():
    def check():
        from pesinlab import BiorthOperator
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            n_max = int(rng.integers(2, 33))
            spec = GamowSpec(omega0=float(rng.uniform(0.5, 2.0)),
                             gamma0=float(rng.uniform(0.05, 0.5)),
                             hbar=float(rng.uniform(0.5, 2.0)),
                             alpha=float(rng.uniform(0.5, 2.0)),
                             n_max=n_max)
            op = BiorthOperator(rng.standard_normal((n_max, n_max))
                                + 1j * rng.standard_normal((n_max, n_max)))
            j = int(rng.integers(0, 11))
            fast = evolve_operator(spec, op, j).coeffs
            dense = evolve_matrix_oracle(spec, op, j).coeffs
            rel = np.max(np.abs(fast - dense)) / np.max(np.abs(dense))
            worst = max(worst, rel)
        assert worst <= 1e-10
        return f"max relative deviation {worst:.2e} over 100 instances"

    _criterion(6, 30.0, check)


def test_criterion_07_asymptotic_diagonality():
    def check():
        from pesinlab import off_mass_ratio
        spec = GamowSpec()
        threshold_j = math.ceil(20.0 * spec.t_r / spec.alpha)
        assert threshold_j == 200
        worst = 0.0
        for op in make_cell_operators(spec, 4, seed=7):
            for j in (threshold_j, threshold_j + 50, threshold_j + 100):
                worst = max(worst, off_mass_ratio(evolve_operator(spec, op, j)))
        assert worst < 1e-6
        return f"max off-mass ratio {worst:.2e} at j >= {threshold_j}"

    _criterion(7, 5.0, check)


def test_criterion_08_chain_sandwich():
    def check():
        spec = GamowSpec()
        cells = make_cell_operators(spec, 4, seed=7)
        rng = np.random.default_rng(8)
        word = rng.integers(0, 4, 61)
        res = chain_trace(spec, [cells[k] for k in word], 60)
        assert res.rel_error < 1e-3
        d1, d2 = decay_bounds(cells)
        lt = math.log(abs(res.trace))
        assert 61 * math.log(d1) <= lt <= 61 * math.log(d2)
        return (f"rel_error {res.rel_error:.2e}, ln|trace| {lt:.2f} in "
                f"[{61 * math.log(d1):.2f}, {61 * math.log(d2):.2f}]")

    _criterion(8, 60.0, check)


def test_criterion_09_prescription_end_to_end(tmp_path, capsys):
    def check():
        out_g = tmp_path / "gamow"
        rc = cli_main(["prescription", "--source", "gamow", "--omega0", "1",
                       "--gamma0", "0.1", "--hbar", "1", "--alpha", "1",
                       "--cells", "4", "--seed", "7", "--depth", "80",
                       "--out", str(out_g)])
        assert rc == 0
        gdoc = json.loads((out_g / "prescription.json").read_text())
        assert gdoc["chaotic"] is True
        assert gdoc["decay"]["verdict"] == "exponential"
        assert gdoc["decay"]["fit_quality"] >= 0.99

        out_i = tmp_path / "identity"
        rc = cli_main(["prescription", "--source", "classical",
                       "--map", "identity", "--out", str(out_i)])
        assert rc == 0
        idoc = json.loads((out_i / "prescription.json").read_text())
        assert idoc["chaotic"] is False

        out_b = tmp_path / "baker"
        rc = cli_main(["prescription", "--source", "classical",
                       "--map", "baker", "--grid", "2x1",
                       "--out", str(out_b)])
        assert rc == 0
        bdoc = json.loads((out_b / "prescription.json").read_text())
        assert bdoc["chaotic"] is True
        assert abs(bdoc["decay"]["fit_rate"] + LN2) < 0.02 * LN2

        stdout = capsys.readouterr().out
        assert "CHAOTIC (sufficient condition met)" in stdout
        assert "NOT PROVEN CHAOTIC" in stdout
        return (f"gamow rate {gdoc['decay']['fit_rate']:.4f} "
                f"R2 {gdoc['decay']['fit_quality']:.6f}, "
                f"baker rate {bdoc['decay']['fit_rate']:.6f}")

    _criterion(9, 120.0, check)


def test_criterion_10_determinism(tmp_path, capsys):
    def check():
        runs = {
            "presc": ["prescription", "--source", "gamow", "--seed", "7",
                      "--depth", "80"],
            "ks": ["ks-entropy", "--map", "cat", "--grid", "8x8",
                   "--depth", "6", "--mode", "mc", "--mc-samples", "100000",
                   "--seed", "0"],
        }
        for name, args in runs.items():
            dirs = [tmp_path / f"{name}-{i}" for i in (0, 1)]
            for d in dirs:
                assert cli_main(args + ["--out", str(d)]) == 0
            capsys.readouterr()
            for p in sorted(dirs[0].iterdir()):
                twin = dirs[1] / p.name
                assert p.read_bytes() == twin.read_bytes(), p.name
        return "gamow prescription and MC entropy reruns byte-identical"

    _criterion(10, 120.0, check)
