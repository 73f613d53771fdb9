"""Reference implementations the tests compare the library against.

Each oracle takes a route independent of the code it checks: the
Jacobi-Anger residual sums the sideband expansion term by term, the
phase average integrates the rotation angle by quadrature instead of through
the Bessel identity, and the crosstalk mix multiplies out each flip weight
term by term instead of once per table.
"""

import cmath
import math

import numpy as np

from freqbin import InvalidInputError, ModulationSetting, ProbTable, bessel_j


def jacobi_anger_residual(c: float, theta: float, order_cap: int) -> float:
    """|exp(-i c cos(theta)) - sum_{|p| <= cap} J_p(c) exp(i p (theta - pi/2))|.

    Test oracle for the sideband expansion of the modulator phase factor.
    """
    if c < 0.0:
        raise InvalidInputError("modulation amplitude must be >= 0")
    if order_cap < 0:
        raise InvalidInputError("order_cap must be >= 0")
    lhs = cmath.exp(-1j * c * math.cos(theta))
    acc = 0j
    for p in range(-order_cap, order_cap + 1):
        acc += bessel_j(p, c) * cmath.exp(1j * p * (theta - 0.5 * math.pi))
    return abs(lhs - acc)


def phase_average_oracle(a_setting: ModulationSetting,
                         b_setting: ModulationSetting,
                         quadrature_points: int = 256) -> ProbTable:
    """Numerically average cos^2 / sin^2 of the summed rotation angle over the phase label.

    Uses an equally spaced midpoint rule on [0, pi]; the integrand is smooth
    and pi-periodic, so the rule converges spectrally (1e-9 agreement with
    ideal_probabilities at >= 256 points). Independent of the Bessel-identity
    route, hence usable as its oracle.
    """
    if quadrature_points < 64:
        raise InvalidInputError("need at least 64 quadrature points")
    phi = (np.arange(quadrature_points) + 0.5) * (math.pi / quadrature_points)
    theta = (a_setting.amplitude * np.cos(phi - a_setting.phase)
             + b_setting.amplitude * np.cos(phi - b_setting.phase))
    same = 0.5 * float(np.mean(np.cos(theta) ** 2))
    cross = 0.5 * float(np.mean(np.sin(theta) ** 2))
    return ProbTable(same, cross, cross, same)


def crosstalk_oracle(table: ProbTable, crosstalk: float) -> ProbTable:
    """The table under independent per-photon parity flips, each weight multiplied out in place.

    apply_crosstalk's body before the weights t*t, t*x and x*x were computed
    once per table; products of floats commute, so the two agree bit for bit.
    """
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
