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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import limits
from .errors import ConfigurationError, ResourceLimitError
from .forking import may_fork, stream
from .partitions import prefix_levels

_ORACLE_DIM_CAP = 200

# chain_traces drops the entries of evolved cell operators that are at most
# this many times the smallest (0, 0) lead; its docstring bounds the error
TRUNCATION_EPS = 1e-18
# OpenBLAS runs a GEMM with m n k below this on the calling thread
GEMM_ONE_THREAD = 2 ** 16 - 1


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
    # imported here: no command uses the oracle, and scipy costs start-up
    import scipy.linalg

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


def _truncation_dim(evolved: np.ndarray) -> int:
    """Smallest k such that no entry with max(r, s) >= k matters.

    evolved is the (m, n, n) stack of every cell operator at one step.  An
    entry matters when it is above TRUNCATION_EPS times the smallest |(0, 0)|
    lead; with a zero lead every entry matters.
    """
    dim = evolved.shape[1]
    floor = TRUNCATION_EPS * np.abs(evolved[:, 0, 0]).min()
    if not floor > 0.0:
        return dim
    idx = np.arange(dim)
    shell = np.maximum.outer(idx, idx)
    return int(shell[(np.abs(evolved) > floor).any(axis=0)].max()) + 1


def _gemm_rows(k: int, k_prev: int) -> int:
    """Chain rows per GEMM at depth dimension k after k_prev.

    OpenBLAS starts a second thread once m n k reaches 2^16; a GEMM of r
    rows of k x k_prev by one k_prev x k link stays below that whenever
    r > 1.  One GEMM per symbol group instead gives the same bits and,
    under the package's one-thread pin, ran the default 4096 words to
    depth 80 in 0.30-0.40 s against 0.33-0.40 s; with numpy imported
    first (a two-thread OpenBLAS pool) it took 4.9-5.6 s against 0.37 s
    when the kernel forked, and 1.14 against 0.70 CPU s when it did not
    (medians of 7 on a 2-core Xeon), so the split stays.
    """
    return max(1, GEMM_ONE_THREAD // (k * k * k_prev))


def _chain_links(spec: GamowSpec, cell_ops, depths: int, start_step: int
                 ) -> tuple[list, list]:
    """Each depth's truncated links and truncation dimension k_n.

    Link 0 is the (m, k_0, k_0) stack of cell operators at step start_step;
    link n >= 1 is the (m, k_{n-1}, k_n) corner of the operators at step
    start_step + n, copied so that no depth keeps a whole evolved stack.
    """
    base = np.stack([op.coeffs for op in cell_ops])
    links, dims = [], []
    k = spec.n_max
    for n in range(depths):
        # evolve_operator's arithmetic, once per cell and depth
        evolved = base
        if start_step + n:
            evolved = base * evolution_factors(spec, start_step + n)
        k_prev, k = k, min(_truncation_dim(evolved), k)
        links.append(evolved[:, :k_prev if n else k, :k].copy())
        dims.append(k)
    return links, dims


def _block_traces(links, dims, words: np.ndarray, first_diff: np.ndarray,
                  flat: np.ndarray, product: np.ndarray,
                  mags: np.ndarray) -> np.ndarray:
    """Every depth of one block of distinct, lexicographically sorted words.

    first_diff[r] is the first column where row r differs from row r - 1,
    and 0 for the block's first row, so the depth-n prefixes begin at the
    rows with first_diff <= n.  Writes the block's magnitudes into mags
    and returns its full traces.
    """
    rows = np.arange(len(words))
    for n, (link, k) in enumerate(zip(links, dims)):
        new = first_diff <= n
        # heads[g] is prefix g's slot: its first row in the block
        heads = rows[new]
        syms = words[heads, n]
        trace = np.empty(len(heads), dtype=complex)
        if n == 0:
            out = link[syms]
            flat[heads, :k * k] = out.reshape(len(heads), k * k)
            trace[:] = np.einsum("wii->w", out)
        else:
            parents = slots[heads]
            per_gemm = _gemm_rows(k, k_prev)
            step = max(1, limits.CHUNK_ENTRIES // (k * k_prev))
            for hi in range(len(heads), 0, -step):
                lo = max(hi - step, 0)
                sel = np.argsort(syms[lo:hi], kind="stable")
                # rows < k of each parent, gathered before any slot is written
                old = flat[parents[lo:hi][sel], :k * k_prev].reshape(
                    hi - lo, k, k_prev)
                out = product[:(hi - lo) * k * k].reshape(hi - lo, k, k)
                g_hi = 0
                for sym, size in enumerate(np.bincount(syms[lo:hi]).tolist()):
                    g_lo, g_hi = g_hi, g_hi + size
                    cut = g_hi - size % per_gemm
                    # whole GEMMs of per_gemm prefixes, then one of the rest
                    for a, b in ((g_lo, cut), (cut, g_hi)):
                        if b > a:
                            r = k * min(per_gemm, b - a)
                            np.matmul(old[a:b].reshape(-1, r, k_prev),
                                      link[sym], out=out[a:b].reshape(-1, r, k))
                flat[heads[lo:hi][sel], :k * k] = out.reshape(hi - lo, k * k)
                trace[lo + sel] = np.einsum("wii->w", out)
        # each row's depth-n prefix, as an index into heads and as a slot
        owner = np.cumsum(new) - 1
        slots = heads[owner]
        mags[:, n] = np.abs(trace)[owner]
        k_prev = k
    return trace


def _lex_first_diff(rows: np.ndarray) -> tuple[np.ndarray, bool]:
    """Where each row first differs from the row before (0 for row 0), and
    whether every row is above the one before."""
    first_diff = np.zeros(len(rows), dtype=np.int64)
    first_diff[1:] = np.argmax(rows[1:] != rows[:-1], axis=1)
    r, col = np.arange(1, len(rows)), first_diff[1:]
    return first_diff, bool((rows[r, col] > rows[r - 1, col]).all())


def _block_spans(n_words: int, per_block: int) -> list[tuple[int, int]]:
    """The (lo, hi) rows of each block of per_block words, in row order."""
    return [(lo, min(lo + per_block, n_words))
            for lo in range(0, n_words, per_block)]


def _run_blocks(links, dims, words: np.ndarray, first_diff: np.ndarray,
                spans, mags: np.ndarray, traces: np.ndarray) -> None:
    """Every block of spans in turn, in one buffer as large as the largest,
    writing each block's rows of mags and traces."""
    slot = dims[0] ** 2
    flat = np.empty((max(hi - lo for lo, hi in spans), slot), dtype=complex)
    product = np.empty(min(flat.size, max(limits.CHUNK_ENTRIES, slot)),
                       dtype=complex)
    for lo, hi in spans:
        block_diff = first_diff[lo:hi].copy()
        block_diff[0] = 0
        traces[lo:hi] = _block_traces(links, dims, words[lo:hi], block_diff,
                                      flat, product, mags[lo:hi])


def chain_traces(spec: GamowSpec, cell_ops, words, start_step: int = 0,
                 on_depth: Optional[Callable[[int, np.ndarray, int, np.ndarray],
                                             None]] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """|trace| of every prefix chain of every word, and each full trace.

    Row w of the (W, N) int array words is the chain cell_ops[words[w, 0]],
    ..., link n evolved to step start_step + n.  Each depth evolves every
    cell once and extends the product of every distinct prefix by one link.

    Truncation.  Past the relaxation time entry (r, s) of an evolved
    operator decays like exp(-gamma0 alpha j (r + s) / hbar), so depth n
    keeps only the leading k_n columns of the running products.  k_n is
    _truncation_dim of all of cell_ops at step start_step + n, capped by
    k_{n-1}: every dropped entry is at most TRUNCATION_EPS times the
    smallest (0, 0) lead.  The depth-n trace reads rows < k_n only, and row
    r of a product depends only on row r of the one before, so each running
    product is k_n x k_n.  k_n never depends on the symbols in words, so a
    row's bits do not depend on the other rows.  Against the untruncated
    products, a depth-n magnitude moves by at most
    (n + 1) n_max (TRUNCATION_EPS + 2^-53) of its size: the dropped terms
    give the first part, and BLAS rounds the shorter sums in another order.
    With the default random cells the magnitudes are bit-identical.

    Blocks.  The rows need not be sorted or distinct; unless they already
    are, they are sorted once by partitions.prefix_levels.  The distinct
    words are cut into blocks of lexicographically adjacent words.  Every
    depth of one block runs before the next block starts, and a block
    writes only its own rows of mags and traces.  Rows with the same
    length-(n+1) prefix have the same depth-n product, so within a block
    each distinct prefix's product is computed once, from its parent's; a
    prefix that straddles two blocks is computed in both.  The prefixes are
    grouped by their depth-n symbol, and each group is multiplied by its
    one link in GEMMs of _gemm_rows rows, none large enough to start a BLAS
    thread.  BLAS forms each entry of a GEMM the same way whatever its row
    count, so every magnitude has the bits of a product taken row by row,
    whatever the blocks; tests/test_gamow.py keeps that kernel as the
    reference.

    Workers.  When the distinct words fill more than one full block of
    limits.BLOCK_BYTES, half a block holds a word and forking.may_fork()
    (more than one CPU, no other Python thread), the kernel forks once
    through forking.stream: a child runs the second half of the blocks and
    sends its rows of mags and traces back, and this process runs the
    first half, then copies the child's rows in.  The child reads the links
    copy-on-write; it is always reaped before this returns or raises.
    Otherwise nothing forks and this process runs every block.  Either way
    the bits are the same.

    Memory.  Each of the w workers runs its blocks in one flat buffer of
    BLOCK_BYTES // w, one k_0^2 slot per word (at least one word), so the
    blocks hold BLOCK_BYTES in all; a prefix lives in the slot of its first
    row in the block.  A prefix's parent sits in the same slot or an
    earlier one, so chunks of CHUNK_ENTRIES gathered entries run from the
    last slot down, and each chunk gathers its parents before writing its
    products.  limits.quantum_run_bytes counts the rest, with two
    workers' chunk scratch.

    on_depth(n, mags[:, n], k_n, prefix_mags) runs in this process for
    every depth in order once all blocks are done, with the magnitudes of
    the depth's distinct prefixes in lexicographic order, each once;
    returns mags (W, N) and traces (W,).
    """
    words = np.asarray(words)
    if words.ndim != 2 or 0 in words.shape:
        raise ValueError(
            f"words must be a (W, N) array with W, N >= 1, got shape "
            f"{words.shape}")
    if not 0 <= words.min() <= words.max() < len(cell_ops):
        raise ValueError(f"word symbols must lie in [0, {len(cell_ops)})")
    for op in cell_ops:
        _check_dim(spec, op)
    links, dims = _chain_links(spec, cell_ops, words.shape[1], start_step)
    distinct = words
    first_diff, in_order = _lex_first_diff(words)
    if not in_order:
        for perm, starts, _, ids in prefix_levels(words, len(cell_ops)):
            pass
        # where[w] is row w's place among the distinct rows in lex order
        where = np.empty(len(words), dtype=np.int64)
        where[perm] = ids
        distinct = words[perm[starts]]
        first_diff, _ = _lex_first_diff(distinct)

    slot_bytes = 16 * dims[0] ** 2
    full = limits.BLOCK_BYTES // slot_bytes
    workers = 2 if len(distinct) > full >= 2 and may_fork() else 1
    spans = _block_spans(len(distinct), max(
        1, limits.BLOCK_BYTES // workers // slot_bytes))
    mags = np.empty(distinct.shape)
    traces = np.empty(len(distinct), dtype=complex)
    mine = spans[:len(spans) // workers]
    base = mine[-1][1]

    def child():
        _run_blocks(links, dims, distinct, first_diff, spans[len(mine):],
                    mags, traces)
        yield [mags[base:], traces[base:]]

    with stream(child if workers == 2 else None) as receive:
        _run_blocks(links, dims, distinct, first_diff, mine, mags, traces)
        mags[base:] = receive(float).reshape(-1, mags.shape[1])
        traces[base:] = receive(complex)
    row_mags = mags if in_order else mags[where]
    if on_depth is not None:
        for n, k in enumerate(dims):
            on_depth(n, row_mags[:, n], k, mags[first_diff <= n, n])
    return row_mags, (traces if in_order else traces[where])


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
    _, final = chain_traces(spec, ops, np.arange(n + 1)[None], start_step)
    trace = complex(final[0])
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
    # cancel to zero once the off mass drops below sqrt(ulp) of the lead;
    # an overflow gives an infinite ratio, which limits.check_off_mass
    # refuses, so it warns of nothing
    with np.errstate(over="ignore"):
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
            raise ConfigurationError(
                "prescribed generation needs coefficient tables")
        tables = list(tables)
        if len(tables) != m:
            raise ConfigurationError(f"expected {m} tables, got {len(tables)}")
        labels = labels or [f"cell-{i}" for i in range(m)]
        if not isinstance(labels, (list, tuple)) or len(labels) != m:
            raise ConfigurationError(
                f"labels must be a list of {m} names, got {labels!r}")
        ops = []
        for tab, label in zip(tables, labels):
            arr = np.array(tab, dtype=complex)
            if arr.shape != (spec.n_max, spec.n_max):
                raise ConfigurationError(
                    f"table shape {arr.shape} does not match n_max {spec.n_max}")
            if np.max(np.abs(arr - np.diag(np.diag(arr)))) > 1.0:
                raise ConfigurationError(
                    "off-diagonal coefficients must be bounded by 1")
            op = BiorthOperator(arr, label)
            try:
                decay_bounds([op])
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
            ops.append(op)
        lead_sum = math.fsum(op.coeffs[0, 0].real for op in ops)
        if lead_sum > 1.0 + 1e-12:
            raise ConfigurationError(
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
