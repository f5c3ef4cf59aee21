import math

import numpy as np
import pytest

from pesinlab import (MAP_NAMES, GridPartition, LyapunovSpectrum, McConfig,
                      PhasePoint, h_mu, lyapunov_spectrum, make_map,
                      pesin_residual, positive_sum_field, refine_series)
from pesinlab.lyapunov import _qr_step

LN2 = math.log(2.0)
CAT_SIGMA = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def test_identity_spectrum_is_zero():
    spec = lyapunov_spectrum(make_map("identity"), PhasePoint(0.3, 0.7), 1000)
    assert spec.exponents == (0.0, 0.0)
    assert spec.positive_sum == 0.0


def test_cat_leading_exponent():
    spec = lyapunov_spectrum(make_map("cat"), PhasePoint(0.1, 0.2), 10_000)
    assert abs(spec.exponents[0] - CAT_SIGMA) < 1e-6
    assert spec.n_iterations == 10_000
    assert spec.x0 == PhasePoint(0.1, 0.2)


def test_cat_exponents_sum_to_zero():
    spec = lyapunov_spectrum(make_map("cat"), PhasePoint(0.1, 0.2), 10_000)
    assert abs(spec.exponents[0] + spec.exponents[1]) < 1e-6


def test_baker_spectrum():
    spec = lyapunov_spectrum(make_map("baker"), PhasePoint(1 / 3, 0.4), 5000)
    assert abs(spec.exponents[0] - LN2) < 1e-6
    assert abs(spec.exponents[1] + LN2) < 1e-6
    assert abs(spec.positive_sum - LN2) < 1e-6


def test_exponents_sorted_descending():
    for name in ("identity", "cat", "baker"):
        spec = lyapunov_spectrum(make_map(name), PhasePoint(0.21, 0.37), 500)
        assert spec.exponents[0] >= spec.exponents[1]


def test_too_few_iterations_rejected():
    with pytest.raises(ValueError):
        lyapunov_spectrum(make_map("cat"), PhasePoint(0.1, 0.2), 99)


@pytest.mark.parametrize("name,target", [
    ("identity", 0.0), ("cat", CAT_SIGMA), ("baker", LN2),
])
def test_initial_condition_independence(name, target):
    rng = np.random.default_rng(42)
    pts = [PhasePoint(*rng.random(2)) for _ in range(10)]
    for x0 in pts:
        spec = lyapunov_spectrum(make_map(name), x0, 10_000)
        assert abs(spec.positive_sum - target) < 1e-6


def test_positive_sum_field_matches_pointwise():
    rng = np.random.default_rng(7)
    pts = [PhasePoint(*rng.random(2)) for _ in range(10)]
    assert abs(positive_sum_field(make_map("identity"), pts, 1000)) < 1e-6
    assert abs(positive_sum_field(make_map("cat"), pts, 10_000) - CAT_SIGMA) < 1e-6
    assert abs(positive_sum_field(make_map("baker"), pts, 10_000) - LN2) < 1e-6


# --- the orbit-stepping reference --------------------------------------------

def _branch_jacobian(torus_map, x):
    """Linear part of the forward branch whose domain holds x."""
    for br in torus_map.branches:
        if br.rect is None or br.rect[0] <= x.q < br.rect[1]:
            a = br.affine
            return (1.0, 0.0, 0.0, 1.0) if a is None else a[:4]
    raise AssertionError(f"no branch holds {x}")


def _orbit_spectrum(torus_map, x0, n):
    """The spectrum loop that steps the orbit and reads J at every point."""
    warmup = min(100, n // 10)
    x = x0
    qm = (1.0, 0.0, 0.0, 1.0)
    for _ in range(warmup):
        qm, _ = _qr_step(qm, _branch_jacobian(torus_map, x))
        x = torus_map.step(x)
    s1 = 0.0
    s2 = 0.0
    for _ in range(n):
        qm, (r11, r22) = _qr_step(qm, _branch_jacobian(torus_map, x))
        s1 += math.log(r11)
        s2 += math.log(r22)
        x = torus_map.step(x)
    exps = tuple(sorted((s1 / n, s2 / n), reverse=True))
    return LyapunovSpectrum(exps, n, x0, sum(e for e in exps if e > 0.0))


@pytest.mark.parametrize("n", [100, 500, 10_000])
@pytest.mark.parametrize("name", MAP_NAMES)
def test_spectrum_equals_orbit_stepping_reference(name, n):
    m = make_map(name)
    rng = np.random.default_rng(n)
    pts = [PhasePoint(*rng.random(2)) for _ in range(5)]
    reference = [_orbit_spectrum(m, x0, n) for x0 in pts]
    for x0, ref in zip(pts, reference):
        assert lyapunov_spectrum(m, x0, n) == ref
    sums = [ref.positive_sum for ref in reference]
    assert positive_sum_field(m, pts, n) == math.fsum(sums) / len(sums)


def test_positive_sum_field_rejects_empty():
    with pytest.raises(ValueError):
        positive_sum_field(make_map("cat"), [], 1000)


# --- identity check ---------------------------------------------------------

def test_pesin_residual_zero_case():
    report = pesin_residual(0.0, 0.0)
    assert report.residual == 0.0
    assert report.relative_residual == 0.0


def test_pesin_residual_fields():
    report = pesin_residual(0.68, 0.693)
    assert report.h_ks_estimate == 0.68
    assert report.lyapunov_positive_sum == 0.693
    assert abs(report.residual + 0.013) < 1e-15
    assert abs(report.relative_residual + 0.013 / 0.693) < 1e-12


def test_pesin_residual_rejects_bad_input():
    with pytest.raises(ValueError):
        pesin_residual(-0.1, 0.5)
    with pytest.raises(ValueError):
        pesin_residual(float("nan"), 0.5)


def test_baker_identity_holds_exact():
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 12)
    pts = [PhasePoint(*np.random.default_rng(1).random(2)) for _ in range(5)]
    lam = positive_sum_field(make_map("baker"), pts, 10_000)
    report = pesin_residual(h_mu(recs), lam)
    assert abs(report.relative_residual) < 0.02


def test_cat_identity_holds_mc():
    recs = refine_series(make_map("cat"), GridPartition(8, 8), 10, "mc",
                         McConfig(1_000_000, seed=0))
    pts = [PhasePoint(*np.random.default_rng(2).random(2)) for _ in range(5)]
    lam = positive_sum_field(make_map("cat"), pts, 10_000)
    report = pesin_residual(h_mu(recs), lam)
    assert abs(report.relative_residual) < 0.10
