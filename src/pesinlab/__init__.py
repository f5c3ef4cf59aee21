"""Entropy rates, Lyapunov spectra, and trace-decay chaos diagnostics.

The package covers both sides of the entropy identity for torus maps
(refined-partition entropy against the positive Lyapunov sum), a small
polynomial symbol calculus with the deformed product, a solvable
resonance operator model, and the detection pipeline that ties the
classical and operator routes together.  The ``pesinlab`` console script
fronts the same machinery.

Importing the package loads none of its modules: each name of ``__all__``
loads its module on first use (PEP 562), so ``pesinlab.make_map`` loads
``maps`` and not ``gamow``.  The CLI loads the modules that every command
runs and defers the rest (``_lazy_submodule``); README's start-up section
lists which command loads what.
"""

import os

# before numpy loads: an idle OpenBLAS worker spins on a second CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConfigurationError", "ResourceLimitError",
               "UnsupportedOperationError"),
    "gamow": ("BiorthOperator", "ChainResult", "GamowSpec", "chain_trace",
              "chain_traces", "decay_bounds", "eigenvalues",
              "evolution_factors", "evolve_matrix_oracle", "evolve_operator",
              "make_cell_operators", "off_mass_ratio"),
    "lyapunov": ("LyapunovSpectrum", "PesinReport", "lyapunov_spectrum",
                 "pesin_residual", "positive_sum_field"),
    "maps": ("MAP_NAMES", "PhasePoint", "TorusMap", "make_map"),
    "partitions": ("MC_ESTIMATORS", "MEASURE_MODES", "GridPartition",
                   "HksEstimate", "McConfig", "RefinementRecord",
                   "entropy_nats", "fit_line", "h_mu", "h_mu_ratio",
                   "hks_estimate", "refine_series", "word_rows"),
    "pipeline": ("VERDICTS", "ClassicalSource", "DecayReport",
                 "PrescriptionRun", "QuantumSource", "decay_detect",
                 "mu_via_quantum", "prescription_run", "quantum_fit_onset",
                 "semiclassical_h_mu"),
    "symbols": ("CoherentState", "PolySymbol", "hbar_expansion_check",
                "moyal_bracket", "pairing", "poisson_bracket",
                "star_product"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


def _lazy_submodule(name):
    """pesinlab.<name>, registered as imported, whose code runs on its
    first attribute use (importlib.util.LazyLoader).

    Callers bind the module and reach its names through it
    (``gamow.make_cell_operators(...)``), so a command that never uses the
    module never compiles or runs it, while sys.modules and the package
    attribute hold it as an ordinary import would.
    """
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module
