"""Lyapunov spectra by tangent-map accumulation, and the entropy identity check.

Every built-in map has one constant tangent matrix (TorusMap.jacobian), so
the tangent map does not depend on where the orbit is: the loop applies
that matrix n times and never steps a point.  The exponents are therefore
the same from every starting point, and x0 is only recorded.

The tangent frame is re-orthonormalized every step (stretch factors of the
built-in maps are >= 2 per step, so anything lazier overflows fast).  The QR
step is written out by hand for 2x2 matrices: the spectrum loop is pure
float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maps import PhasePoint, TorusMap


@dataclass(frozen=True)
class LyapunovSpectrum:
    exponents: tuple[float, float]
    n_iterations: int
    x0: PhasePoint
    positive_sum: float


@dataclass(frozen=True)
class PesinReport:
    h_ks_estimate: float
    lyapunov_positive_sum: float
    residual: float
    relative_residual: float


def _qr_step(qm: tuple, jm: tuple) -> tuple:
    """One re-orthonormalization: factor J @ Q, positive-diagonal convention.

    Matrices are row-major 4-tuples; returns (Q', (r11, r22)).
    """
    a = jm[0] * qm[0] + jm[1] * qm[2]
    b = jm[0] * qm[1] + jm[1] * qm[3]
    c = jm[2] * qm[0] + jm[3] * qm[2]
    d = jm[2] * qm[1] + jm[3] * qm[3]
    r11 = math.hypot(a, c)
    if r11 == 0.0:
        raise ValueError("tangent map collapsed the first frame vector")
    cos = a / r11
    sin = c / r11
    r22 = cos * d - sin * b
    if r22 < 0.0:
        return (cos, sin, sin, -cos), (r11, -r22)
    return (cos, -sin, sin, cos), (r11, r22)


def lyapunov_spectrum(torus_map: TorusMap, x0: PhasePoint, n: int) -> LyapunovSpectrum:
    """Both exponents from n tangent steps, sorted descending.

    x0 is recorded as the orbit's start; the constant tangent matrix makes
    the exponents independent of it.  A short warmup (not counted in the
    averages) lets the frame align with the expanding direction first;
    without it the alignment transient contributes O(1/n) bias, which is
    above tolerance at n = 10^4.
    """
    if n < 100:
        raise ValueError("need at least 100 iterations for a stable spectrum")
    warmup = min(100, n // 10)
    jm = torus_map.jacobian
    qm = (1.0, 0.0, 0.0, 1.0)
    for _ in range(warmup):
        qm, _ = _qr_step(qm, jm)
    s1 = 0.0
    s2 = 0.0
    for _ in range(n):
        qm, (r11, r22) = _qr_step(qm, jm)
        s1 += math.log(r11)
        s2 += math.log(r22)
    exps = tuple(sorted((s1 / n, s2 / n), reverse=True))
    return LyapunovSpectrum(exps, n, x0, sum((e for e in exps if e > 0.0), 0.0))


def positive_sum_field(torus_map: TorusMap, sample_points, n: int) -> float:
    """Equal-weight average of the positive-exponent sum over sample points.

    The sum is the same at every point, so one spectrum gives it; the mean
    is still taken as an fsum of one copy per point, which keeps its bits.
    """
    sample_points = list(sample_points)
    if not sample_points:
        raise ValueError("sample points list is empty")
    v = lyapunov_spectrum(torus_map, sample_points[0], n).positive_sum
    return math.fsum([v] * len(sample_points)) / len(sample_points)


def pesin_residual(h_ks: float, positive_sum: float) -> PesinReport:
    """Compare an entropy-rate estimate against the positive-exponent sum."""
    for name, v in (("h_ks", h_ks), ("positive_sum", positive_sum)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
        if v < 0.0:
            raise ValueError(f"{name} must be nonnegative, got {v}")
    residual = h_ks - positive_sum
    return PesinReport(h_ks, positive_sum, residual,
                       residual / max(positive_sum, 1e-12))
