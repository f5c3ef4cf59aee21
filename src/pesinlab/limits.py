"""Every resource limit a run is held to, each checked before the work.

A run fits them, or stops with ResourceLimitError (ConfigurationError for
phases), exit 2 on the command line, naming the flags to lower.

- BYTES_CAP, 2 GiB: check_bytes refuses refinement_bytes, operator_bytes,
  or quantum_run_bytes above it.
- EXACT_WORD_CAP, 2^20 words, as projected from the last two depths;
  checked once a depth, before the store that finishes the depth refines
  it: in a refinement run in tiles, that is the last tile's
  (partitions._exact_series).
- MAX_LYAP_STEPS, 10^7 steps: 14 s at 0.7 M steps/s on a 2-core Xeon.
- check_phases: evolution phases past a double; check_off_mass: an
  off-(0, 0) mass ratio past a double; check_underflow: quantum (0, 0)
  lead products below the normal doubles.

Bytes per unit, measured with tracemalloc:
- RECORD_BYTES a refinement depth, for its record, progress and output:
  ks-entropy took 2,375 a depth on exact identity 2x1 and 3,381 on Monte
  Carlo baker 2x1 with one sample (depths 1,000-3,000).
- MC_SAMPLE_BYTES a Monte Carlo sample, for the cloud and loop arrays,
  plus 16 a sample and depth for the words.  Peaks of one-process runs
  with summary records, whose peak is the loop arrays', 2 x 10^5 samples
  over the four estimators: 56 on baker 2x1 (depth 24), 42 on cat 8x8
  (depth 12), 43 on cat 64x64 (depth 3, where depth 0's chunk scratch
  sets the peak); past the records of full runs 44, 24 and 27, against
  81-85, 81 and 64 when each depth ran over the whole cloud.  The two
  processes of a forked run each place and run only their own rows of
  the cloud and ids (20 between them), and each draws every chunk: with
  summaries the calling process peaked at 42, 32 and 34 and its child at
  46, 34 and 34, summed 88, 66 and 68, against 98-102, 66-69 and 61 when
  the calling process placed the whole cloud and its child copied out
  its half.  It stays 128, which counts a child whether or not a run
  forks, so no refusal moves.
- DRAW_ENTRY_BYTES an entry of a random draw's support block (64.8);
  EVOLVE_ENTRY_BYTES an entry of gamow-evolve's JSON and CSV (600-700
  when both were built whole before writing).  They are now written as
  they are made, each JSON list of floats as one joined string and the
  CSV one matrix row at a time: --n-max 1000 --cells 2 peaks at 114 bytes
  a coefficient, the operators and the JSON document's lists of floats
  included (108 MiB, against 599 MB), so 640 overstates it; it stays, so
  no refusal moves.
- QUANTUM_WORD_BYTES a quantum word, QUANTUM_SYMBOL_BYTES a word and
  symbol: words (4), magnitudes (8), prefix magnitudes or fit temporaries
  (8), traces, sort indices and row sums.  4 cells of 32 x 32 took 70 +
  16.3 bytes a symbol per word (depths 9-80); whole runs peaked at
  0.63-0.87 of quantum_run_bytes.
- BLOCK_BYTES of chain-product blocks in gamow.chain_traces, the total
  over its workers: one worker's blocks are 512 words at n_max 32
  (smaller blocks were slower on one core), and each of two workers'
  half as many.  CHUNK_ENTRIES gathered complex entries per chunk; each
  worker gathers its own, and quantum_run_bytes counts two workers'.
- MC_TILE_SAMPLES samples a Monte Carlo tile of whole depth-0 cells
  reaches before it is cut; a larger cell is one tile.  10^6 samples to
  depth 10, medians of nine interleaved runs on a 2-core Xeon: cat 32x32
  (cells of about 1,000 samples) took 0.69 s at 2^11, 0.49-0.54 s from
  2^13 to 2^15 and 0.60 s at 2^17; cat 8x8 took 0.49-0.57 s from 2^12
  to 2^16, alike within the noise.  Its tracemalloc peak, 59-61 MiB
  over that range, barely depends on it.
- EXACT_TILE_PIECES pieces an exact refinement's store may be projected
  to enter the last depth with before the deepest depths run in tiles of
  whole words (partitions._exact_tiles), each tile projected within it.
  Tracemalloc peaks with full records at 2^14, against every depth
  whole: baker 2x1 to depth 16 (four tiles from depth 13) 8.3 against
  15.6 MiB in the same 0.28 s, cat 8x8 to depth 7 (six tiles from depth
  6) 11.5 against 25.1 MiB.  Cat 8x8 to depth 7 with summaries, medians
  of five in process on a 2-core Xeon: 9.3 MiB and 1.14 s at 2^13, 8.8
  and 1.01 s at 2^14, 11.5 and 0.97 s at 2^15, 14.5 and 0.95 s at 2^16,
  and 23.0 and 0.97 s whole; smaller tiles map smaller batches of each
  vertex count, which costs time.
"""

import math
import sys

import numpy as np

from .errors import ConfigurationError, ResourceLimitError

BYTES_CAP = 2 * 2 ** 30
EXACT_WORD_CAP = 2 ** 20
MAX_LYAP_STEPS = 10 ** 7
RECORD_BYTES = 4096
MC_SAMPLE_BYTES = 128
DRAW_ENTRY_BYTES = 72
EVOLVE_ENTRY_BYTES = 640
QUANTUM_WORD_BYTES = 96
QUANTUM_SYMBOL_BYTES = 20
BLOCK_BYTES = 2 ** 23
CHUNK_ENTRIES = 2 ** 15
MC_TILE_SAMPLES = 2 ** 14
EXACT_TILE_PIECES = 2 ** 14


def check_bytes(need: int, what: str, flags: str) -> None:
    """Refuse need bytes above BYTES_CAP; what needs them, flags size it."""
    if need > BYTES_CAP:
        from decimal import Decimal    # prints a need past the doubles
        gib = need / 2 ** 30 if need < 2 ** 1000 else Decimal(need) / 2 ** 30
        raise ResourceLimitError(
            f"{what} may need {gib:.3g} GiB, above the "
            f"{BYTES_CAP / 2 ** 30:.3g} GiB cap; lower {flags}")


def refinement_bytes(n_samples: int, depth: int, grids: int = 1) -> int:
    """The depth records of grids refinements, each with the words of its
    n_samples Monte Carlo samples (0 in exact mode), and the cloud and loop
    arrays of one, with a forked worker's, as a ladder's grids run in turn."""
    return grids * (depth + 1) * (RECORD_BYTES + 16 * n_samples) \
        + n_samples * MC_SAMPLE_BYTES


def operator_bytes(cells: int, dim: int, support: int, use_bytes: int) -> int:
    """cells dim x dim operators, each built from a copy, their draw on a
    support x support block (0 for tables) and use_bytes of work."""
    draw = DRAW_ENTRY_BYTES * min(support, dim) ** 2
    return (cells + 1) * 16 * dim ** 2 + draw + use_bytes


def quantum_words(cells: int, depth: int, budget: int) -> tuple[int, bool]:
    """Words a quantum run tracks, and whether they are all the words;
    past budget's bit length cells^(depth + 1) tops budget, cells >= 2."""
    every = cells ** min(depth + 1, budget.bit_length())
    return min(every, budget), every <= budget


def quantum_run_bytes(n_words: int, depth: int, cells: int, dim: int) -> int:
    """Bytes a quantum run of n_words words may hold beside its operators:
    chain_traces' four operator copies, depth + 1 links, BLOCK_BYTES of
    blocks over all its workers and the chunk scratch of each of two
    workers, counted whether or not the run forks, so the estimate does
    not depend on the host's CPUs."""
    ops = 16 * cells * dim ** 2 * (depth + 5)
    block = max(BLOCK_BYTES, 16 * dim ** 2) + 64 * max(CHUNK_ENTRIES, dim ** 2)
    return ops + block + n_words * (QUANTUM_WORD_BYTES
                                    + QUANTUM_SYMBOL_BYTES * (depth + 1))


def check_phases(spec, steps: int, step_flag: str) -> None:
    """Refuse phases t |z_r - z_s*| past a double: t <= alpha steps / hbar
    and |z| <= (n_max - 1) |omega0 - i gamma0|."""
    bound = math.inf
    # a step count or dimension past the doubles overflows on its own
    if max(steps, spec.n_max) <= sys.float_info.max:
        t = spec.alpha * steps / spec.hbar
        bound = t * 2 * (spec.n_max - 1) * math.hypot(spec.omega0,
                                                      spec.gamma0)
    if steps and not math.isfinite(bound):
        raise ConfigurationError(
            f"evolution phases up to step {steps} overflow a double; lower "
            f"--omega0, --gamma0, --alpha, --n-max or {step_flag}, or raise "
            "--hbar")


def check_off_mass(ratio: float) -> float:
    """An evolved operator's off-(0, 0) mass ratio, refused when it has
    overflowed a double (a huge off_scale against small leads)."""
    if not math.isfinite(ratio):
        raise ConfigurationError(
            "the off-(0,0) mass ratio overflows a double; lower --off-scale "
            "or raise --total-mass")
    return ratio


def check_word_projection(last: int, before: int, n: int, n_max: int,
                          what: str) -> None:
    """Refuse depth n when R_{n-1} (R_{n-1}/R_{n-2})^(n_max-n+1) tops the
    cap, with last = R_{n-1} and before = R_{n-2} words."""
    log_words = math.log(last) + (n_max - n + 1) * math.log(last / before)
    if log_words > math.log(EXACT_WORD_CAP):
        raise ResourceLimitError(
            f"{what} is projected to reach about "
            f"10^{log_words / math.log(10.0):.1f} words, above the cap of "
            f"{EXACT_WORD_CAP}; use --mode mc or a smaller --depth")


def check_underflow(leads, words: np.ndarray, depth: int) -> None:
    """Refuse a depth at which a row of words has a (0, 0) lead product,
    over the cells' leads, below the smallest normal double."""
    ln_tiny = math.log(sys.float_info.min)
    if np.log(leads)[words].sum(axis=1).min() < ln_tiny:
        raise ResourceLimitError(
            f"--depth {depth} underflows: a tracked word's (0,0) lead product "
            f"falls below the smallest normal double {math.exp(ln_tiny):.3g}; "
            f"--depth {int(ln_tiny / math.log(min(leads))) - 1} is the "
            "largest depth at which no word can")
