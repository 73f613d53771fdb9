"""Infinite-comb closed-form model of the parity coincidence statistics.

The two modulator drives (a, alpha) and (b, beta) enter the joint statistics
only through the amplitude D = |a e^{i alpha} + b e^{i beta}| of their phasor
sum; its phase drops out. The four parity-resolved coincidence probabilities
are then

    P(E,E) = P(O,O) = (1 + J_0(2D)) / 4
    P(E,O) = P(O,E) = (1 - J_0(2D)) / 4

These are infinite-comb results: they are the limit of a source spectral
envelope that varies slowly from bin to bin. A finite state whose envelope
is smooth on the bin scale approaches them closely, but a sharp uniform
K-bin window differs from them by O(1/K). For odd K, 1/(2K) of that gap is
the even/odd count imbalance, present before any modulation: one parity
holds (K+1)/2 of the bins, so the unmodulated uniform table has
P(E,E), P(O,O) = (K +- 1)/(2K) rather than 1/2 each (21/41 and 20/41 over
bins -20..20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import bessel_j
from .errors import InvalidInputError
from .params import ModulationSetting

_PROB_SLACK = 1e-9
PROB_NAMES = ("p_ee", "p_eo", "p_oe", "p_oo")  # ProbTable's entries, in order


@dataclass(frozen=True)
class ProbTable:
    """Joint parity-outcome probabilities P(x, y) for x, y in {even, odd}."""

    p_ee: float
    p_eo: float
    p_oe: float
    p_oo: float

    def __post_init__(self):
        for name, p in zip(PROB_NAMES, self.as_tuple()):
            if not -_PROB_SLACK <= p <= 1.0 + _PROB_SLACK:
                raise InvalidInputError(f"{name} = {p!r} is not a probability")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_ee, self.p_eo, self.p_oe, self.p_oo)

    @property
    def total(self) -> float:
        return self.p_ee + self.p_eo + self.p_oe + self.p_oo

    @property
    def correlator(self) -> float:
        """E = P(E,E) - P(E,O) - P(O,E) + P(O,O)."""
        return self.p_ee - self.p_eo - self.p_oe + self.p_oo


def effective_drive(a_setting: ModulationSetting, b_setting: ModulationSetting) -> float:
    """Effective drive amplitude D >= 0: the modulus of the two drives' phasor sum."""
    a, alpha = a_setting.amplitude, a_setting.phase
    b, beta = b_setting.amplitude, b_setting.phase
    return math.sqrt(max(a * a + b * b + 2.0 * a * b * math.cos(alpha - beta), 0.0))


def ideal_probabilities(d: float) -> ProbTable:
    """Closed-form parity coincidence table at effective drive amplitude d."""
    if not d >= 0.0:  # also rejects nan
        raise InvalidInputError("effective drive amplitude must be >= 0")
    j0 = bessel_j(0, 2.0 * d)
    same = 0.25 * (1.0 + j0)
    cross = 0.25 * (1.0 - j0)
    return ProbTable(same, cross, cross, same)


def apply_crosstalk(table: ProbTable, crosstalk: float) -> ProbTable:
    """Mix the table under independent per-photon parity flips with probability crosstalk."""
    if not 0.0 <= crosstalk <= 0.5:
        raise InvalidInputError("crosstalk must lie in [0, 0.5]")
    if crosstalk == 0.0:
        return table
    t = 1.0 - crosstalk
    x = crosstalk
    ee, eo, oe, oo = table.as_tuple()
    return ProbTable(
        t * t * ee + t * x * eo + x * t * oe + x * x * oo,
        t * x * ee + t * t * eo + x * x * oe + x * t * oo,
        x * t * ee + x * x * eo + t * t * oe + t * x * oo,
        x * x * ee + x * t * eo + t * x * oe + t * t * oo,
    )
