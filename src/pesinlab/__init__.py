"""Entropy rates, Lyapunov spectra, and trace-decay chaos diagnostics.

The package covers both sides of the entropy identity for torus maps
(refined-partition entropy against the positive Lyapunov sum), a small
polynomial symbol calculus with the deformed product, a solvable
resonance operator model, and the detection pipeline that ties the
classical and operator routes together.  The ``pesinlab`` console script
fronts the same machinery.
"""

from .errors import (ConfigurationError, ResourceLimitError,
                     UnsupportedOperationError)
from .gamow import (BiorthOperator, ChainResult, GamowSpec, chain_trace,
                    decay_bounds, eigenvalues, evolution_factors,
                    evolve_matrix_oracle, evolve_operator,
                    make_cell_operators, off_mass_ratio)
from .lyapunov import (LyapunovSpectrum, PesinReport, lyapunov_spectrum,
                       pesin_residual, positive_sum_field)
from .maps import (MAP_NAMES, PhasePoint, Trajectory, TorusMap, iterate,
                   make_map, preimage_cell)
from .partitions import (MC_ESTIMATORS, MEASURE_MODES, CellWord,
                         GridPartition, HksEstimate, McConfig,
                         MeasureEstimate, RefinementRecord, WordTable,
                         entropy_nats, fit_line, h_mu, h_mu_ratio,
                         hks_estimate, partition_entropy, refine,
                         refine_series)
from .pipeline import (VERDICTS, ClassicalSource, DecayReport,
                       PrescriptionRun, QuantumSource, decay_detect,
                       mu_via_quantum, prescription_run, quantum_fit_onset,
                       semiclassical_h_mu)
from .symbols import (CoherentState, PolySymbol, hbar_expansion_check,
                      moyal_bracket, pairing, poisson_bracket, star_product)

__version__ = "0.1.0"

__all__ = [
    "BiorthOperator", "CellWord", "ChainResult", "ClassicalSource",
    "CoherentState", "ConfigurationError", "DecayReport", "GamowSpec",
    "GridPartition", "HksEstimate", "LyapunovSpectrum", "MAP_NAMES",
    "MC_ESTIMATORS", "MEASURE_MODES", "McConfig", "MeasureEstimate",
    "PesinReport", "PhasePoint", "PolySymbol", "PrescriptionRun",
    "QuantumSource", "RefinementRecord", "ResourceLimitError",
    "Trajectory", "TorusMap",
    "UnsupportedOperationError", "VERDICTS", "WordTable", "chain_trace",
    "decay_bounds", "decay_detect", "eigenvalues", "entropy_nats",
    "evolution_factors", "evolve_matrix_oracle", "evolve_operator",
    "fit_line", "h_mu", "h_mu_ratio", "hks_estimate", "iterate",
    "lyapunov_spectrum", "make_cell_operators", "make_map",
    "moyal_bracket", "mu_via_quantum", "off_mass_ratio", "pairing",
    "partition_entropy", "pesin_residual", "poisson_bracket",
    "positive_sum_field", "preimage_cell", "prescription_run",
    "quantum_fit_onset", "refine", "refine_series", "semiclassical_h_mu",
    "star_product", "__version__",
]
