"""Integer-order Bessel functions of the first kind with controlled error.

bessel_j evaluates one order at a time in two regimes over the validated
domain |x| <= 50:

* ascending power series when the argument is small (|x| <= 5) or the order
  dominates the argument (4*order >= x**2), where the alternating series
  loses at most ~1e-14 absolute to cancellation, and which stops on a
  relative 1e-18, so tiny high-order values keep full relative precision;
* Miller's backward recurrence normalized with J_0 + 2*sum_k J_{2k} = 1
  otherwise.

The test suite pins the absolute accuracy at 1e-12 against a high-precision
oracle; in practice both regimes sit near 1e-14.

The sideband kernel takes J_0 .. J_P from one Miller pass at every amplitude,
started just above the order its tail test needs.
"""

from __future__ import annotations

import math

from .errors import BesselDomainError, InvalidInputError, TruncationCapError
from .params import TruncationPolicy, is_int

X_MAX = 50.0          # validated accuracy domain
_SERIES_X_MAX = 5.0   # largest series term is I_0(5) ~ 27, so cancellation is harmless
_MILLER_PAD = 40      # downward-recurrence start above max(order, x); see test margin
_RESCALE_LIMIT = 1e250
_SERIES_MAX_TERMS = 400
_TAIL_MARGIN = 30     # orders examined beyond the cap when locating the tail cut
_MILLER_X_MIN = 1e-20  # below: J_p = (x/2)**p / p! in double precision, and 2p/x could overflow


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integer order, |x| <= 50, absolute error <= 1e-12.

    Negative orders and arguments are reduced through the reflection
    identities J_{-p}(x) = (-1)**p J_p(x) and J_p(-x) = (-1)**p J_p(x).
    """
    if not is_int(order):
        raise InvalidInputError(f"Bessel order must be an integer, got {order!r}")
    _check_domain(x)
    n = abs(int(order))
    sign = 1.0
    if order < 0 and n % 2 == 1:
        sign = -sign
    if x < 0.0 and n % 2 == 1:
        sign = -sign
    ax = abs(x)
    if ax == 0.0:
        return 1.0 if n == 0 else 0.0
    if ax <= _SERIES_X_MAX or 4.0 * n >= ax * ax:
        return sign * _series(n, ax)
    return sign * _miller(n, ax)[n]


def _check_domain(x: float) -> None:
    if not math.isfinite(x) or abs(x) > X_MAX:
        raise BesselDomainError(f"|x| = {abs(x)!r} outside validated domain |x| <= {X_MAX}")


def _series(n: int, x: float) -> float:
    """J_n(x) = sum_k (-1)^k (x/2)^{n+2k} / (k! (n+k)!) for x >= 0."""
    half = 0.5 * x
    if n <= 170:
        term = half**n / math.factorial(n)
    elif half == 0.0:  # a subnormal x whose half rounds to zero; log(0) would raise
        return 0.0
    else:
        log_term = n * math.log(half) - math.lgamma(n + 1.0)
        if log_term < -745.0:  # underflows double precision entirely
            return 0.0
        term = math.exp(log_term)
    total = term
    q = half * half
    for k in range(1, _SERIES_MAX_TERMS):
        term *= -q / (k * (n + k))
        total += term
        if abs(term) <= 1e-18 * abs(total):  # relative, so tiny values keep full precision
            return total
    raise RuntimeError(f"Bessel series did not converge for J_{n}({x})")


def _miller(n_max: int, x: float, pad: int = _MILLER_PAD) -> list[float]:
    """J_0(x) .. J_{n_max}(x) by backward recurrence, for 0 <= x <= 50.

    The recurrence starts pad orders above max(n_max, x); the default keeps
    every returned order accurate, a smaller pad only the orders well below
    the start.
    """
    if x < _MILLER_X_MIN:
        out = [1.0]
        for p in range(1, n_max + 1):
            out.append(out[-1] * (0.5 * x) / p)
        return out
    m = max(n_max, int(math.ceil(x))) + pad
    out = [0.0] * (n_max + 1)
    jnext = 0.0     # running J~_{p+1}
    jcur = 1e-30    # running J~_p, seeded at p = m
    even_sum = jcur if m % 2 == 0 else 0.0  # sum of J~_q over even q >= 2
    for p in range(m, 0, -1):
        jprev = (2.0 * p / x) * jcur - jnext
        jnext = jcur
        jcur = jprev
        q = p - 1
        if q > 0 and q % 2 == 0:
            even_sum += jcur
        if q <= n_max:
            out[q] = jcur
        if abs(jcur) > _RESCALE_LIMIT:
            scale = 1.0 / abs(jcur)
            jcur *= scale
            jnext *= scale
            even_sum *= scale
            out = [v * scale for v in out]
    norm = out[0] + 2.0 * even_sum
    return [v / norm for v in out]


def truncation_order(c: float, policy: TruncationPolicy = TruncationPolicy()) -> int:
    """Smallest P with sum_{|p| > P} J_p(c)**2 <= policy.epsilon**2."""
    return len(_sideband_amplitudes(c, policy)) - 1


def _sideband_amplitudes(c: float, policy: TruncationPolicy) -> list[float]:
    """J_0(c) .. J_P(c) for the truncation order P of truncation_order.

    One Miller pass up to order n gives the amplitudes. One pass down from n
    then adds the tail's terms 2 J_p**2, smallest first, for as long as the
    tail stays within epsilon**2, so tolerances far below the double-precision
    resolution of (1 - partial sum) stay meaningful; past max_order it adds
    on down to the cap for the cap error's residual. n is where the bound
    |J_n(c)| <= (c/2)**n / n! puts J_n**2 1e-20 below both the tolerance and
    the 1e-16 resolution of the normalization sum; past n > c the bound halves
    per order, so the orders above n cannot move the tail test or the kept
    amplitudes, and the pass keeps the order, or raises the cap error, that a
    scan of every order up to max_order + _TAIL_MARGIN would.
    """
    if c < 0.0:
        raise InvalidInputError("modulation amplitude must be >= 0")
    _check_domain(c)
    tol = policy.epsilon * policy.epsilon
    top = policy.max_order + _TAIL_MARGIN
    goal = 1e-20 * min(tol, 1e-16)
    n, bound = 0, 1.0
    while n < top and bound * bound > goal:
        n += 1
        bound *= 0.5 * c / n
    # a pass seeded just above n is inexact only in its top orders; when the
    # bound is cut at top, every order up to it must be exact
    js = _miller(n, c, 1 if n < top else _MILLER_PAD)
    order, tail = n, 0.0  # tail = 2 * sum_{order < p <= n} J_p^2
    while order and tail + 2.0 * js[order] * js[order] <= tol:
        tail += 2.0 * js[order] * js[order]
        order -= 1
    if order <= policy.max_order:
        return js[:order + 1]
    for p in range(order, policy.max_order, -1):
        tail += 2.0 * js[p] * js[p]
    raise TruncationCapError(
        f"residual {tail:.3e} above {tol:.3e} at order cap {policy.max_order}",
        residual=tail,
        order=policy.max_order,
    )
