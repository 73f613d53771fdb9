"""Independent reference values for the benchmark's output checks.

Nothing here calls freqbin. The finite-bin correlator uses the band form of
the dense simulation: for the state sum_n f(n) |n>|-n> and sideband kernels
u_A, u_B, the parity correlator is

    E = (1 - 2 chi)^2 * sum_d C(d) G_A(d) H_B(d)

with C(d) = sum_n f(n) f*(n+d), G_A(d) = sum_p (-1)^p u_A(p) u_A*(p-d) and
H_B(d) = sum_q (-1)^q u_B(q) u_B*(q+d). Kernels are kept to a fixed order
well past every truncation the program can choose, so the reference does not
depend on the program's truncation policy; the difference is below 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

_REF_ORDER = 40  # J_40(1.5) ~ 1e-60: far beyond any kept sideband order


def _kernel(amplitude: float, phase: float) -> np.ndarray:
    from scipy.special import jv

    p = np.arange(-_REF_ORDER, _REF_ORDER + 1)
    return jv(p, amplitude) * np.exp(1j * p * (phase - 0.5 * math.pi))


def _parity_gram(u: np.ndarray) -> np.ndarray:
    """g(d) = sum_p (-1)^p u(p) u*(p + d) for d in [-2P, 2P], indexed by d + 2P."""
    signed = u * (-1.0) ** np.arange(-_REF_ORDER, _REF_ORDER + 1)
    # np.correlate(x, y, "full")[k] = sum_p x(p + k - 2P) y*(p)
    return np.conj(np.correlate(u, signed, mode="full"))


def finite_correlator(a: tuple[float, float], b: tuple[float, float], bins,
                      crosstalk: float, quadratic_dispersion: float) -> float:
    """Parity correlator of the uniform correlated state over the contiguous Alice bins `bins`."""
    n = np.asarray(bins, dtype=float)
    if n.size == 0 or np.any(np.diff(n) != 1.0):
        raise ValueError("reference expects a contiguous, increasing bin range")
    # Both arms pick up quadratic_dispersion * n^2, at bins n and -n.
    f = np.exp(2j * quadratic_dispersion * n * n) / math.sqrt(n.size)
    lags = min(n.size - 1, 2 * _REF_ORDER)
    # C(d) = sum_n f(n) f*(n + d); np.correlate(f, f)[d + K - 1] is its conjugate.
    c = np.conj(np.correlate(f, f, mode="full"))[n.size - 1 - lags:n.size + lags]
    g_a = _parity_gram(_kernel(*a))[::-1]  # G_A(d) = g_A(-d)
    h_b = _parity_gram(_kernel(*b))
    mid = 2 * _REF_ORDER
    total = np.sum(c * g_a[mid - lags:mid + lags + 1] * h_b[mid - lags:mid + lags + 1])
    return (1.0 - 2.0 * crosstalk) ** 2 * float(total.real)


def finite_report(quad, bins, crosstalk: float, quadratic_dispersion: float) -> tuple[list, float]:
    """Correlators (00, 01, 10, 11) and S for a quad of (amplitude, phase) pairs a0, a1, b0, b1."""
    a0, a1, b0, b1 = quad
    corr = [finite_correlator(sa, sb, bins, crosstalk, quadratic_dispersion)
            for sa, sb in ((a0, b0), (a0, b1), (a1, b0), (a1, b1))]
    return corr, corr[0] + corr[1] + corr[2] - corr[3]


def ideal_chsh(quad, crosstalk: float) -> float:
    """Closed-form S with interleaver crosstalk: sum of +-(1 - 2 chi)^2 J_0(2 D_ij)."""
    from scipy.special import j0

    a0, a1, b0, b1 = quad
    s = 0.0
    for sign, (sa, sb) in zip((1, 1, 1, -1), ((a0, b0), (a0, b1), (a1, b0), (a1, b1))):
        drive = abs(sa[0] * np.exp(1j * sa[1]) + sb[0] * np.exp(1j * sb[1]))
        s += sign * float(j0(2.0 * drive))
    return (1.0 - 2.0 * crosstalk) ** 2 * s
