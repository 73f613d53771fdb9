"""Bessel evaluation, truncation, and Jacobi-Anger machinery.

High-precision oracles (mpmath at 40 digits) are independent of the package's
double-precision series/Miller implementation.
"""

import math
import struct

import mpmath as mp
import numpy as np
import pytest

from freqbin import (BesselDomainError, InvalidInputError, TruncationCapError, TruncationPolicy,
                     bessel_j, truncation_order)
from freqbin.bessel import _miller, _series, _sideband_amplitudes
from oracles import jacobi_anger_residual

mp.mp.dps = 40

ORDERS = [0, 1, 2, 3, 5, 8, 13, 16, 21, 34, 50, 64, 80]
ARGUMENTS = [0.0, 1e-6, 0.01, 0.5, 0.9272, 2.405, 2.782, 4.9, 5.0, 5.1,
             7.3, 10.0, 16.0, 25.0, 33.3, 41.0, 49.9, 50.0]


def oracle_j(order, x):
    """Arbitrary-precision reference value."""
    return float(mp.besselj(order, mp.mpf(x)))


def oracle_j0_series(x):
    """Power series for J_0 at 40 digits; independent route used to bisect its first zero."""
    x = mp.mpf(x)
    total = mp.mpf(1)
    term = mp.mpf(1)
    k = 0
    while abs(term) > mp.mpf(10) ** -38:
        k += 1
        term *= -(x / 2) ** 2 / k**2
        total += term
    return total


class TestBesselJ:
    def test_j0_at_zero_is_one(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_higher_orders_at_zero_vanish(self):
        assert bessel_j(3, 0.0) == 0.0
        assert bessel_j(-7, 0.0) == 0.0

    def test_negative_order_reflection_example(self):
        assert bessel_j(-3, 1.7) == -bessel_j(3, 1.7)

    def test_table_one_drive_value(self):
        # theory correlator for the low-amplitude setting pair, J_0(4 * 0.2318)
        assert abs(bessel_j(0, 0.9272) - 0.796) <= 5e-4

    def test_near_first_j0_zero(self):
        assert abs(bessel_j(0, 2.405)) <= 1e-4

    def test_first_j0_zero_by_bisection_oracle(self):
        lo, hi = mp.mpf(2), mp.mpf(3)
        assert oracle_j0_series(lo) > 0 > oracle_j0_series(hi)
        for _ in range(120):
            mid = (lo + hi) / 2
            if oracle_j0_series(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = float((lo + hi) / 2)
        assert abs(root - 2.404825557695773) < 1e-12
        assert abs(bessel_j(0, root)) <= 1e-12

    @pytest.mark.parametrize("order", ORDERS)
    def test_accuracy_against_oracle_grid(self, order):
        for x in ARGUMENTS:
            assert abs(bessel_j(order, x) - oracle_j(order, x)) <= 1e-12

    def test_accuracy_negative_arguments_and_orders(self):
        rng = np.random.default_rng(20240811)
        for _ in range(200):
            order = int(rng.integers(-70, 71))
            x = float(rng.uniform(-50.0, 50.0))
            assert abs(bessel_j(order, x) - oracle_j(order, x)) <= 1e-12

    def test_reflection_identity_exact(self):
        for p in range(17):
            for x in np.linspace(-20.0, 20.0, 41):
                assert bessel_j(-p, float(x)) == (-1) ** p * bessel_j(p, float(x))

    def test_recurrence_consistency(self):
        for x in (0.5, 1.7, 4.2, 5.5, 12.3, 33.0, 49.0):
            for p in range(1, 17):
                lhs = bessel_j(p - 1, x) + bessel_j(p + 1, x)
                rhs = 2.0 * p / x * bessel_j(p, x)
                assert abs(lhs - rhs) <= 1e-10

    def test_large_order_underflows_to_zero(self):
        assert bessel_j(600, 50.0) == 0.0

    @pytest.mark.parametrize("order", [1.5, 2.0, True, "1", np.float64(1.0), None])
    def test_non_integer_order_rejected(self, order):
        # 1.5 once gave J_1, truncated toward zero
        with pytest.raises(InvalidInputError, match="Bessel order must be an integer"):
            bessel_j(order, 1.0)

    def test_numpy_integer_orders_accepted(self):
        for order in (np.int64(3), np.int32(-3), np.uint8(2)):
            assert bessel_j(order, 1.0) == bessel_j(int(order), 1.0)

    def test_domain_errors(self):
        with pytest.raises(BesselDomainError):
            bessel_j(0, 50.0001)
        with pytest.raises(BesselDomainError):
            bessel_j(2, -51.0)
        with pytest.raises(BesselDomainError):
            bessel_j(0, float("nan"))
        with pytest.raises(BesselDomainError):
            bessel_j(0, float("inf"))


def oracle_sideband_amplitudes(c, policy):
    """Per-order reference for _sideband_amplitudes: J_p(c) from bessel_j for every
    order up to max_order + 30, then the tail test. Past c the amplitudes fall by
    half or more per order, so the scan stops once 2 J_p^2 is 1e-40 below the
    tolerance (or 0): the orders above it cannot move a tail compared with it."""
    if c < 0.0:
        raise InvalidInputError("modulation amplitude must be >= 0")
    top = policy.max_order + 30
    tol = policy.epsilon * policy.epsilon
    js = []
    for p in range(top + 1):
        js.append(bessel_j(p, c))
        if p > c and 2.0 * js[-1] * js[-1] <= 1e-40 * tol:
            break
    js += [0.0] * (top + 1 - len(js))
    tails = [0.0] * (top + 1)  # tails[P] = 2 * sum_{p > P} J_p^2
    acc = 0.0
    for p in range(top, 0, -1):
        acc += 2.0 * js[p] * js[p]
        tails[p - 1] = acc
    for order in range(policy.max_order + 1):
        if tails[order] <= tol:
            return js[:order + 1]
    raise TruncationCapError("cap", residual=tails[policy.max_order], order=policy.max_order)


def amplitude_outcome(fn, c, policy):
    """("ok", amplitudes) or (error type, cap order or None, cap residual or None)."""
    try:
        return ("ok", fn(c, policy))
    except (BesselDomainError, InvalidInputError, TruncationCapError) as exc:
        return (type(exc), getattr(exc, "order", None), getattr(exc, "residual", None))


def assert_same_outcome(c, policy):
    got = amplitude_outcome(_sideband_amplitudes, c, policy)
    want = amplitude_outcome(oracle_sideband_amplitudes, c, policy)
    case = f"c={c!r} epsilon={policy.epsilon!r} max_order={policy.max_order}"
    assert got[0] == want[0], case
    if want[0] == "ok":
        assert len(got[1]) == len(want[1]), case  # same kept order
        assert max(abs(a - b) for a, b in zip(got[1], want[1])) <= 1e-15, case
    else:
        assert got[1] == want[1], case
        if want[2] is not None:
            # both routes hold the tiny tail orders to full relative precision
            assert got[2] == pytest.approx(want[2], rel=1e-13), case
    return want[0]


class TestSeries:
    # the series stops on a relative 1e-18, so values far below 1 keep full
    # relative precision; an absolute stop left J_30(1) 3.2e-5 off
    @pytest.mark.parametrize("order, x", [(30, 1.0), (60, 0.5), (94, 0.5), (64, 0.01),
                                          (40, 5.0), (80, 4.9)])
    def test_tiny_values_relative_accuracy(self, order, x):
        exact = mp.besselj(order, mp.mpf(x))
        assert abs(bessel_j(order, x) - exact) <= 5e-16 * abs(exact)


def oracle_series(n, x):
    """The single-order series loop, kept verbatim as a bitwise oracle for _series and bessel_j."""
    half = 0.5 * x
    if n <= 170:
        term = half**n / math.factorial(n)
    else:
        log_term = n * math.log(half) - math.lgamma(n + 1.0)
        if log_term < -745.0:
            return 0.0
        term = math.exp(log_term)
    total = term
    q = half * half
    for k in range(1, 400):
        term *= -q / (k * (n + k))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return total
    raise RuntimeError


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


class TestPairSeries:
    # _series and bessel_j must stay bitwise what the single-order loop returns,
    # across the lgamma start that takes over above order 170
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 169, 170, 171, 172])
    def test_each_order_matches_the_single_order_loop(self, n):
        top = 5.0 if n < 4 else 2.0 * math.sqrt(n) - 1e-9  # inside bessel_j's series regime
        # first zeros of J_0 and J_1, where the series totals cancel most
        xs = [1e-300, 1e-12, 0.01, 0.9272, 2.404825557695773, 3.8317059702075125]
        xs += np.linspace(0.1, top, 60).tolist()
        for x in xs:
            assert bits(_series(n, x)) == bits(oracle_series(n, x)), x
            assert bits(bessel_j(n, x)) == bits(oracle_series(n, x)), x

    def test_subnormal_argument_above_order_170_is_zero(self):
        # x / 2 rounds to 0, where the lgamma start's log(0) would raise
        assert _series(171, 5e-324) == 0.0
        assert bessel_j(171, 5e-324) == 0.0 and bessel_j(170, 5e-324) == 0.0


class TestMiller:
    # the kernel's pass runs at every amplitude, so the recurrence is held to the
    # oracle far below bessel_j's x > 5 range, down to the subnormal 5e-324
    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-200, 1e-12, 1e-6, 0.01, 0.5, 2.405, 4.9,
                                   12.5, 50.0])
    def test_accuracy_against_oracle(self, x):
        for n_max in (0, 1, 7, 94):
            got = _miller(n_max, x)
            assert len(got) == n_max + 1
            for p, value in enumerate(got):
                exact = mp.besselj(p, mp.mpf(x))
                assert abs(value - float(exact)) <= 2e-16
                # relative accuracy in the zero-free range p > x, where the tail test reads
                if p > x and abs(exact) >= 1e-307:
                    assert abs((value - exact) / exact) <= 1e-14

    def test_zero_argument(self):
        assert _miller(3, 0.0) == [1.0, 0.0, 0.0, 0.0]


class TestSidebandAmplitudes:
    def test_matches_per_order_oracle_on_random_cases(self):
        rng = np.random.default_rng(20261018)
        kinds = {"ok": 0, TruncationCapError: 0}
        for _ in range(3000):
            c = float(rng.uniform(0.0, 50.0))
            epsilon = float(10.0 ** rng.uniform(-15.0, math.log10(0.99)))
            max_order = int(rng.choice([1, 8, 64, 1000]))
            kinds[assert_same_outcome(c, TruncationPolicy(epsilon, max_order))] += 1
        assert min(kinds.values()) >= 500  # both the kept-order and the cap paths are exercised

    @pytest.mark.parametrize("c, epsilon, max_order", [
        (0.0, 1e-12, 64), (5e-324, 1e-12, 64), (1e-300, 1e-12, 64), (1e-150, 1e-160, 64),
        (1e-19, 1e-15, 1000), (1e-21, 1e-15, 1000), (0.5, 1e-160, 1000), (50.0, 0.99, 1),
    ])
    def test_edge_amplitudes_match_oracle(self, c, epsilon, max_order):
        assert assert_same_outcome(c, TruncationPolicy(epsilon, max_order)) == "ok"

    @pytest.mark.parametrize("c, epsilon, max_order", [
        (0.5, 1e-200, 64),  # epsilon**2 underflows to 0 and no tail within the cap rounds to 0
        (45.0, 1e-12, 64), (50.0, 1e-12, 64), (3.0, 1e-12, 4),
    ])
    def test_cap_errors_match_oracle(self, c, epsilon, max_order):
        assert assert_same_outcome(c, TruncationPolicy(epsilon, max_order)) is TruncationCapError

    @pytest.mark.parametrize("c", [-0.1, -math.inf, math.nan, math.inf, 50.0001])
    def test_domain_errors_match_oracle(self, c):
        assert assert_same_outcome(c, TruncationPolicy()) in (InvalidInputError, BesselDomainError)

    def test_tiny_amplitudes_keep_the_leading_term(self):
        assert _sideband_amplitudes(5e-324, TruncationPolicy()) == [1.0]
        assert _sideband_amplitudes(1e-150, TruncationPolicy(epsilon=1e-160)) == [1.0, 5e-151]


class TestTruncationOrder:
    def test_zero_amplitude(self):
        assert truncation_order(0.0) == 0

    def test_residual_below_tolerance_by_oracle(self):
        order = truncation_order(0.6955)
        tail = 2 * mp.fsum(mp.besselj(p, mp.mpf("0.6955")) ** 2 for p in range(order + 1, order + 60))
        assert tail <= mp.mpf(1e-24)
        # one order fewer must not satisfy the tolerance, or the order is not minimal
        tail_short = tail + 2 * mp.besselj(order, mp.mpf("0.6955")) ** 2
        assert tail_short > mp.mpf(1e-24)

    def test_monotone_in_amplitude(self):
        assert truncation_order(0.2318) <= truncation_order(0.6955)

    def test_normalization_within_kept_orders(self):
        for c in np.linspace(0.0, 3.0, 13):
            order = truncation_order(float(c))
            kept = mp.besselj(0, mp.mpf(float(c))) ** 2 + 2 * mp.fsum(
                mp.besselj(p, mp.mpf(float(c))) ** 2 for p in range(1, order + 1))
            assert mp.mpf(1) - mp.mpf(1e-24) <= kept <= mp.mpf(1)

    @pytest.mark.parametrize("c, epsilon, order", [
        (1.9290369775982903, 0.00019528931640591462, 6),
        (0.17087189561177435, 0.0001467547473606055, 2),
    ])
    def test_tail_equal_to_the_tolerance_is_cut(self, c, epsilon, order):
        # in double precision the tail above the order sums to exactly epsilon**2,
        # which meets "tail <= epsilon**2"; a strict test would keep one order more
        tail = 2 * mp.fsum(mp.besselj(p, mp.mpf(c)) ** 2 for p in range(order + 1, order + 60))
        assert float(tail) == pytest.approx(epsilon * epsilon, rel=1e-12)
        assert truncation_order(c, TruncationPolicy(epsilon)) == order

    def test_cap_error_carries_residual(self):
        with pytest.raises(TruncationCapError) as excinfo:
            truncation_order(45.0)
        assert excinfo.value.residual > 1e-24
        assert excinfo.value.order == 64

    def test_custom_policy_cap(self):
        with pytest.raises(TruncationCapError):
            truncation_order(3.0, TruncationPolicy(epsilon=1e-12, max_order=4))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(InvalidInputError):
            truncation_order(-0.1)


class TestJacobiAnger:
    def test_zero_amplitude_zero_cap(self):
        assert jacobi_anger_residual(0.0, 1.234, 0) == 0.0

    def test_residual_at_default_truncation(self):
        cap = truncation_order(0.6955)
        assert jacobi_anger_residual(0.6955, 0.3, cap) <= 1e-10

    def test_residual_large_amplitude(self):
        assert jacobi_anger_residual(2.0, math.pi / 2, 40) <= 1e-10

    def test_residual_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            c = float(rng.uniform(0.0, 3.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            cap = truncation_order(c)
            assert jacobi_anger_residual(c, theta, cap) <= 1e-10

    def test_rejects_negative_amplitude(self):
        with pytest.raises(InvalidInputError):
            jacobi_anger_residual(-1.0, 0.0, 3)

    def test_rejects_negative_order_cap(self):
        with pytest.raises(InvalidInputError, match="order_cap must be >= 0"):
            jacobi_anger_residual(0.5, 0.1, -1)
