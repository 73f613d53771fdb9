"""Exception types for data-level failures (the CLI maps these to exit code 3)."""


class FreqbinError(Exception):
    """Base class for errors raised by this package on bad data or inputs."""


class InvalidInputError(FreqbinError, ValueError):
    """An argument violates a documented precondition."""


class BesselDomainError(FreqbinError, ValueError):
    """Bessel argument outside the validated |x| <= 50 domain."""


class TruncationCapError(FreqbinError, RuntimeError):
    """The sideband tail still exceeds the tolerance at the hard order cap."""

    def __init__(self, message, residual, order):
        super().__init__(message)
        self.residual = residual
        self.order = order


class WindowBoundError(FreqbinError, ValueError):
    """A modulation step would widen the bin window past the absolute bound."""


class ProbabilitySumError(FreqbinError, RuntimeError):
    """A computed parity table's total is farther from 1 than the truncation policy allows."""


class HistogramFormatError(FreqbinError, ValueError):
    """Malformed coincidence-histogram file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EstimatorError(FreqbinError, ValueError):
    """A statistical estimate cannot be formed from the given counts."""


class OptimizationError(FreqbinError, RuntimeError):
    """An optimization run failed to locate a valid optimum."""
