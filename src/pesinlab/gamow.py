"""Open-system cell operators in a bi-orthogonal eigenbasis.

The effective Hamiltonian is diagonal in this basis with eigenvalues
z_0 = omega0 and z_n = n(omega0 - i gamma0), so a discretized evolution step
acts on a coefficient matrix elementwise.  The elementwise factor for entry
(r, s) is exp(-i (z_r - z_s*) t / hbar), which keeps the (0, 0) entry
invariant bit-for-bit (the exponent is exactly zero) and the remaining
diagonal exactly real.

The decay width gamma0 sets the relaxation time t_R = hbar / gamma0; after a
few multiples of t_R only the (0, 0) coefficient survives, which is what
turns long operator-product traces into products of (0, 0) values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, ResourceLimitError

_ORACLE_DIM_CAP = 200


@dataclass(frozen=True)
class GamowSpec:
    omega0: float = 1.0
    gamma0: float = 0.1
    hbar: float = 1.0
    alpha: float = 1.0
    n_max: int = 32

    def __post_init__(self) -> None:
        for name in ("omega0", "gamma0", "hbar", "alpha"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.n_max < 2:
            raise ValueError("truncation dimension must be at least 2")

    @property
    def t_r(self) -> float:
        """Relaxation time hbar / gamma0."""
        return self.hbar / self.gamma0


def eigenvalues(spec: GamowSpec) -> np.ndarray:
    """z_0 = omega0 (real), z_n = n(omega0 - i gamma0) for n >= 1."""
    z = np.arange(spec.n_max) * complex(spec.omega0, -spec.gamma0)
    z[0] = spec.omega0
    return z


@dataclass(frozen=True)
class BiorthOperator:
    """Truncated coefficient matrix of an operator in the bi-orthogonal basis."""

    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient matrix must be square")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def _check_dim(spec: GamowSpec, op: BiorthOperator) -> None:
    if op.dim != spec.n_max:
        raise ValueError(
            f"operator dimension {op.dim} does not match n_max {spec.n_max}")


def evolution_factors(spec: GamowSpec, j: int) -> np.ndarray:
    """Elementwise factors F with op(j) = F * op(0)."""
    if j < 0:
        raise ValueError("step count must be nonnegative")
    z = eigenvalues(spec)
    t = spec.alpha * j / spec.hbar
    return np.exp(-1j * t * (z[:, None] - np.conj(z)[None, :]))


def evolve_operator(spec: GamowSpec, op: BiorthOperator, j: int) -> BiorthOperator:
    """Closed-form j-step evolution of a coefficient operator."""
    _check_dim(spec, op)
    if j == 0:
        return op
    return BiorthOperator(evolution_factors(spec, j) * op.coeffs, op.label)


def evolve_matrix_oracle(spec: GamowSpec, op: BiorthOperator, j: int) -> BiorthOperator:
    """Same evolution through dense matrix exponentials, as a cross-check.

    U and its adjoint are exponentiated independently (non-Hermitian H, so
    neither is the inverse of the other).
    """
    _check_dim(spec, op)
    if j < 0:
        raise ValueError("step count must be nonnegative")
    if spec.n_max > _ORACLE_DIM_CAP:
        raise ResourceLimitError(
            f"dense oracle capped at dimension {_ORACLE_DIM_CAP}, got {spec.n_max}")
    h = np.diag(eigenvalues(spec))
    t = spec.alpha * j / spec.hbar
    u = scipy.linalg.expm(-1j * t * h)
    udag = scipy.linalg.expm(1j * t * h.conj().T)
    return BiorthOperator(u @ op.coeffs @ udag, op.label)


@dataclass(frozen=True)
class ChainResult:
    n: int
    trace: complex
    diagonal_product: float
    rel_error: float

    @property
    def imag_ratio(self) -> float:
        """|Im trace| / |trace|, the reality diagnostic for long chains."""
        mag = abs(self.trace)
        return abs(self.trace.imag) / mag if mag > 0.0 else 0.0


def chain_trace(spec: GamowSpec, ops, n: int, start_step: int = 0) -> ChainResult:
    """Trace of the ordered product of evolved operators.

    ops[j] is evolved to step start_step + j; the product runs in ascending
    j (order matters before the asymptotic regime and is fixed here).  Also
    reports the product of the (0, 0) coefficients, the value the trace
    approaches once every operator in the chain is past its relaxation time.
    """
    ops = list(ops)
    if len(ops) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} operators, got {len(ops)}")
    if start_step < 0:
        raise ValueError("start step must be nonnegative")
    for op in ops:
        _check_dim(spec, op)
    product: Optional[np.ndarray] = None
    for j, op in enumerate(ops):
        evolved = evolve_operator(spec, op, start_step + j).coeffs
        product = evolved if product is None else product @ evolved
    trace = complex(np.trace(product))
    diag = math.prod(float(op.coeffs[0, 0].real) for op in ops)
    rel = abs(trace - diag) / abs(diag) if diag != 0.0 else math.inf
    return ChainResult(n, trace, diag, rel)


def decay_bounds(ops) -> tuple[float, float]:
    """(min, max) of the (0, 0) coefficients over a set of cell operators."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one cell operator")
    leads = []
    for op in ops:
        c = op.coeffs[0, 0]
        if abs(c.imag) > 1e-12 or not 0.0 < c.real < 1.0:
            raise ValueError(
                f"cell operator {op.label!r} has leading coefficient {c}; "
                "it must be real and strictly between 0 and 1")
        leads.append(c.real)
    return min(leads), max(leads)


def off_mass_ratio(op: BiorthOperator) -> float:
    """Frobenius mass outside the (0, 0) entry, relative to |alpha(0, 0)|."""
    c = op.coeffs
    lead = abs(c[0, 0])
    if lead == 0.0:
        raise ValueError("operator has no (0, 0) mass to compare against")
    # sum the off entries directly: subtracting lead^2 from the total would
    # cancel to zero once the off mass drops below sqrt(ulp) of the lead
    off = np.abs(c) ** 2
    off[0, 0] = 0.0
    return math.sqrt(float(np.sum(off))) / lead


def make_cell_operators(spec: GamowSpec, m: int, generation: str = "random",
                        seed: int = 0, tables=None, labels=None,
                        total_mass: float = 0.95, spread: float = 0.2,
                        off_scale: float = 3e-4,
                        support: Optional[int] = None) -> list[BiorthOperator]:
    """A family of m cell operators, prescribed or randomly generated.

    Random mode draws (0, 0) values summing to total_mass (< 1, so the cells
    behave like a sub-normalized partition) with relative spread around the
    equal split, plus small random off-diagonal coefficients that fall off
    by half per index step.  off_scale is deliberately small: early in a
    chain, off-diagonal entries feed the trace through undamped (0, s)(s, 0)
    excursions whose relative size goes like (off_scale / lead)^2 times the
    number of terms, and the default keeps that far below the 1e-3 regime
    used by the long-chain checks.

    support limits the random draw to the leading support x support block,
    and is drawn at that size, so the same seed gives the same operators
    inside any larger truncation.
    """
    if m < 2:
        raise ValueError("need at least 2 cells")
    if generation == "prescribed":
        if tables is None:
            raise ValueError("prescribed generation needs coefficient tables")
        tables = list(tables)
        if len(tables) != m:
            raise ValueError(f"expected {m} tables, got {len(tables)}")
        labels = labels or [f"cell-{i}" for i in range(m)]
        ops = []
        for tab, label in zip(tables, labels):
            arr = np.array(tab, dtype=complex)
            if arr.shape != (spec.n_max, spec.n_max):
                raise ValueError(
                    f"table shape {arr.shape} does not match n_max {spec.n_max}")
            if np.max(np.abs(arr - np.diag(np.diag(arr)))) > 1.0:
                raise ValueError("off-diagonal coefficients must be bounded by 1")
            op = BiorthOperator(arr, label)
            decay_bounds([op])
            ops.append(op)
        lead_sum = math.fsum(op.coeffs[0, 0].real for op in ops)
        if lead_sum > 1.0 + 1e-12:
            raise ValueError(
                f"leading coefficients sum to {lead_sum}; cells must "
                "sub-normalize (sum at most 1)")
        return ops
    if generation != "random":
        raise ValueError(
            f"unknown generation mode {generation!r}; valid names: prescribed, random")

    if support is None:
        support = spec.n_max
    if not 1 <= support <= spec.n_max:
        raise ConfigurationError(
            f"support must lie in [1, n_max = {spec.n_max}], got {support}")
    if not 0.0 < total_mass <= 1.0:
        raise ConfigurationError(
            f"total_mass, the sum of the (0, 0) weights, must lie in (0, 1], "
            f"got {total_mass}")
    if not 0.0 <= spread < 1.0:
        raise ConfigurationError(
            f"spread of the (0, 0) weights must lie in [0, 1), got {spread}")

    rng = np.random.default_rng(seed)
    raw = 1.0 + spread * (2.0 * rng.random(m) - 1.0)
    leads = total_mass * raw / raw.sum()
    ops = []
    r_idx = np.arange(support)
    falloff = 0.5 ** np.maximum(r_idx[:, None] + r_idx[None, :] - 1, 0)
    for i in range(m):
        mags = off_scale * (0.5 + 0.5 * rng.random((support, support))) * falloff
        phases = np.exp(2j * np.pi * rng.random((support, support)))
        block = mags * phases
        block[0, 0] = leads[i]
        coeffs = np.zeros((spec.n_max, spec.n_max), dtype=complex)
        coeffs[:support, :support] = block
        ops.append(BiorthOperator(coeffs, f"cell-{i}"))
    return ops
