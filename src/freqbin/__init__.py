"""Simulator and statistics toolkit for frequency-bin entangled photon pairs
manipulated by RF phase modulators and measured with even/odd interleavers.
"""

from .bell import (ChshReport, SettingQuad, chsh_finite, chsh_ideal, optimize_general,
                   optimize_symmetric, chsh_optimal_quad, symmetric_chsh, symmetric_quad)
from .bessel import bessel_j, truncation_order
from .binspace import (TwoPhotonState, apply_dispersion, apply_modulator, correlated_state,
                       modulation_kernel, parity_probabilities, parity_tables)
from .closedform import ProbTable, apply_crosstalk, effective_drive, ideal_probabilities
from .config import RunConfig, load_config
from .counts import (CountRecord, Histogram, chsh_estimate, correlator_estimate,
                     crosstalk_for_visibility, emit_histogram, extract_counts, ingest_histogram,
                     simulate_counts, synthesize_histogram, visibility)
from .errors import (BesselDomainError, EstimatorError, FreqbinError, HistogramFormatError,
                     InvalidInputError, OptimizationError, ProbabilitySumError, TruncationCapError,
                     WindowBoundError)
from .params import (BinWindow, DispersionProfile, MeasurementModel, ModulationSetting,
                     TruncationPolicy, crosstalk_from_extinction_db)

__version__ = "0.1.0"

__all__ = [
    "BesselDomainError", "BinWindow", "ChshReport", "CountRecord", "DispersionProfile",
    "EstimatorError", "FreqbinError", "Histogram", "HistogramFormatError", "InvalidInputError",
    "MeasurementModel", "ModulationSetting", "OptimizationError", "ProbTable",
    "ProbabilitySumError", "RunConfig", "SettingQuad", "TruncationCapError", "TruncationPolicy",
    "TwoPhotonState", "WindowBoundError", "apply_crosstalk", "apply_dispersion", "apply_modulator",
    "bessel_j", "chsh_estimate", "chsh_finite", "chsh_ideal", "correlated_state",
    "correlator_estimate", "crosstalk_for_visibility", "crosstalk_from_extinction_db",
    "effective_drive", "emit_histogram", "extract_counts", "ideal_probabilities",
    "ingest_histogram", "load_config", "modulation_kernel", "optimize_general",
    "optimize_symmetric", "chsh_optimal_quad", "parity_probabilities", "parity_tables",
    "simulate_counts", "symmetric_chsh", "symmetric_quad", "synthesize_histogram",
    "truncation_order", "visibility",
]
