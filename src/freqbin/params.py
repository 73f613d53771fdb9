"""Plain parameter records shared across the simulation and statistics layers."""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi
MAX_ORDER_CAP = 1000  # largest max_order: a cap error may take a Miller pass over cap + 70 orders
MAX_BINS = 1_000_000  # widest bin window: parse_bins' ranges and the banded parity engine


def is_int(value) -> bool:
    """True for an integer that is not a bool, such as a JSON integer."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number that is not a bool: a Python or numpy integer or float, say."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def json_number(source: str, name: str, value, integer: bool = False):
    """value itself if its type is exactly int or, unless integer, float: what json decodes numbers to."""
    if not (type(value) is int or not integer and type(value) is float):
        kind = "an integer" if integer else "a number"
        raise InvalidInputError(f"bad {source}: {name} must be {kind}, got {value!r}")
    return value


def strict_int(text: str) -> int:
    """int(text) for ASCII digits with an optional leading '-' and ASCII spaces around them.

    int() alone also takes '+', '_' separators and non-ASCII digits; here they raise its ValueError.
    """
    if not re.fullmatch(r" *-?[0-9]+ *", text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def canonical_phase(phase: float) -> float:
    """Reduce an angle into [0, 2*pi)."""
    if not math.isfinite(phase):
        raise InvalidInputError("phase must be finite")
    out = phase % TWO_PI
    if out >= TWO_PI:  # fp edge: tiny negative inputs wrap onto 2*pi itself
        out = 0.0
    return out


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail cut for sideband sums: squared amplitude beyond the kept orders stays below epsilon**2."""

    epsilon: float = 1e-12
    max_order: int = 64

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidInputError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not is_int(self.max_order):
            raise InvalidInputError(f"max_order must be an integer, got {self.max_order!r}")
        if not 1 <= self.max_order <= MAX_ORDER_CAP:
            raise InvalidInputError(f"max_order must lie in [1, {MAX_ORDER_CAP}]")


@dataclass(frozen=True)
class ModulationSetting:
    """RF drive of one modulator: dimensionless amplitude c = pi*v/V_pi and phase in radians."""

    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.amplitude) or self.amplitude < 0.0:
            raise InvalidInputError("modulation amplitude must be finite and >= 0")
        object.__setattr__(self, "phase", canonical_phase(self.phase))


@dataclass(frozen=True)
class BinWindow:
    """Inclusive range of frequency-bin indices; bin n sits at absolute frequency w0 + n*Omega."""

    min_bin: int
    max_bin: int

    def __post_init__(self):
        if self.min_bin > self.max_bin:
            raise InvalidInputError(f"empty bin window [{self.min_bin}, {self.max_bin}]")

    @property
    def width(self) -> int:
        return self.max_bin - self.min_bin + 1

    def bins(self) -> range:
        return range(self.min_bin, self.max_bin + 1)

    def contains(self, n: int) -> bool:
        return self.min_bin <= n <= self.max_bin

    def index(self, n: int) -> int:
        if not self.contains(n):
            raise InvalidInputError(f"bin {n} outside window [{self.min_bin}, {self.max_bin}]")
        return n - self.min_bin

    def negated(self) -> BinWindow:
        return BinWindow(-self.max_bin, -self.min_bin)


@dataclass(frozen=True)
class DispersionProfile:
    """Per-bin propagation phase, quadratic_coefficient * n**2 radians unless overridden."""

    quadratic_coefficient: float = 0.0
    per_bin_overrides: dict[int, float] | None = None

    def __post_init__(self):
        phases = [self.quadratic_coefficient, *(self.per_bin_overrides or {}).values()]
        if not all(math.isfinite(phase) for phase in phases):
            raise InvalidInputError("dispersion phases must be finite")
        if not abs(self.quadratic_coefficient) <= math.pi:
            raise InvalidInputError(
                f"dispersion quadratic_coefficient must lie in [-pi, pi], got {self.quadratic_coefficient!r}"
                ": the phase c n**2 of every integer bin n has period 2 pi in c")

    def phases(self, bins) -> np.ndarray:
        """Phase in radians at each bin index in bins."""
        n = np.asarray(bins, dtype=float)
        out = self.quadratic_coefficient * n * n
        for bin_index, phase in (self.per_bin_overrides or {}).items():
            out[n == bin_index] = phase
        return out

    def is_zero(self) -> bool:
        return self.quadratic_coefficient == 0.0 and not self.per_bin_overrides


@dataclass(frozen=True)
class MeasurementModel:
    """Detection-chain imperfections: interleaver crosstalk, lumped efficiency, flat accidentals.

    pair_rate is the detected true-coincidence rate (Hz) before the efficiency
    factor, accidental_rate the total accidental rate (Hz) summed over the four
    outcomes, duration the acquisition time (s) per setting pair.
    """

    crosstalk: float = 0.0
    efficiency: float = 1.0
    pair_rate: float = 1.5
    accidental_rate: float = 0.75
    duration: float = 1800.0

    def __post_init__(self):
        if not 0.0 <= self.crosstalk <= 0.5:
            raise InvalidInputError("crosstalk must lie in [0, 0.5]")
        if not 0.0 < self.efficiency <= 1.0:
            raise InvalidInputError("efficiency must lie in (0, 1]")
        if not (0.0 <= self.pair_rate < math.inf and 0.0 <= self.accidental_rate < math.inf):
            raise InvalidInputError("rates must be finite and >= 0")
        if not 0.0 < self.duration < math.inf:
            raise InvalidInputError("duration must be positive and finite")


def crosstalk_from_extinction_db(extinction_db: float) -> float:
    """Parity-flip probability equivalent to an interleaver extinction ratio in dB."""
    return 1.0 / (1.0 + 10.0 ** (extinction_db / 10.0))
