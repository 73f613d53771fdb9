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
_PROB_LOW, _PROB_HIGH = -_PROB_SLACK, 1.0 + _PROB_SLACK
PROB_NAMES = ("p_ee", "p_eo", "p_oe", "p_oo")  # ProbTable's entries, in order


@dataclass(frozen=True)
class ProbTable:
    """Joint parity-outcome probabilities P(x, y) for x, y in {even, odd}."""

    p_ee: float
    p_eo: float
    p_oe: float
    p_oo: float

    def __post_init__(self):
        _check_entries(self.p_ee, self.p_eo, self.p_oe, self.p_oo)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_ee, self.p_eo, self.p_oe, self.p_oo)

    @property
    def total(self) -> float:
        return self.p_ee + self.p_eo + self.p_oe + self.p_oo

    @property
    def correlator(self) -> float:
        """E = P(E,E) - P(E,O) - P(O,E) + P(O,O)."""
        return self.p_ee - self.p_eo - self.p_oe + self.p_oo


def _check_entries(ee: float, eo: float, oe: float, oo: float) -> None:
    """Raise InvalidInputError naming the first entry outside [-1e-9, 1 + 1e-9]; nan is outside."""
    low, high = _PROB_LOW, _PROB_HIGH
    if low <= ee <= high and low <= eo <= high and low <= oe <= high and low <= oo <= high:
        return
    for name, p in zip(PROB_NAMES, (ee, eo, oe, oo)):
        if not low <= p <= high:
            raise InvalidInputError(f"{name} = {p!r} is not a probability")


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
    return ProbTable(*_mix(table.as_tuple(), crosstalk))


def _mix(entries, crosstalk: float) -> tuple[float, float, float, float]:
    """The entries (ee, eo, oe, oo) mixed by the flip matrix F(crosstalk) (x) F(crosstalk).

    Each photon keeps its parity with probability t = 1 - crosstalk, so an
    entry takes the weight t*t, t*x or x*x by how many of the two labels
    flip. Products of floats commute, so each weight is computed once.
    """
    t = 1.0 - crosstalk
    x = crosstalk
    tt, tx, xx = t * t, t * x, x * x
    ee, eo, oe, oo = entries
    return (tt * ee + tx * eo + tx * oe + xx * oo,
            tx * ee + tt * eo + xx * oe + tx * oo,
            tx * ee + xx * eo + tt * oe + tx * oo,
            xx * ee + tx * eo + tx * oe + tt * oo)
