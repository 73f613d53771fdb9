"""Exact finite-truncation simulation of the discrete frequency-bin space.

A two-photon state is a dense complex amplitude table over a rectangular
window of bin-index pairs (m, n). A phase modulator on one arm convolves the
table along that axis with the sideband kernel J_p(c) e^{i p (gamma - pi/2)},
widening the window by the kept order. Each dense operation has one body,
written for arm A: arm B runs as arm A of the swapped state (windows
exchanged, table transposed), and the result is swapped back.

The CHSH and pattern pipelines need only the four even/odd sums of the
modulated correlated state sum_n f(n) |n>|-n>, and parity_tables computes
them without the K x K table. Both modulators are convolutions, so

    P(x, y) = sum_pi sum_{|d| <= 2P} C_pi(d) g^A_{(x - pi) mod 2}(d) g^B_{(y + pi) mod 2}(-d)

with the envelope correlation C_pi(d) = sum_{n = pi mod 2} f(n) f*(n + d)
and the parity-split kernel Gram sums g_pi(d) = sum_{p = pi mod 2} u(p) u*(p - d).
The kernel u(p) = J_p(c) e^{i p (gamma - pi/2)} factors its phase out of them:
g_pi(d) = e^{i d (gamma - pi/2)} R_pi(d), with the real R_pi(d) =
sum_{p = pi mod 2} J_p J_{p - d} set by the drive c alone. So a setting pair
sees its phases only through w(d) = e^{i d (gamma_A - gamma_B)}, and

    P(x, y) = sum_pi sum_d Re(C_pi(d) w(d)) R^A_{(x - pi) mod 2}(d) R^B_{(y + pi) mod 2}(-d).

One call batches every pair: one Bessel row per distinct drive, every row of
R_pi from one matrix product, and all the tables from one contraction. When
the bins fill their window and the dispersion is the quadratic profile
c n^2 (or zero) with no per-bin overrides, C_pi(d) is a geometric sum in
closed form: a bin-pair count on a uniform envelope, a Dirichlet kernel
times a phase on a dispersed one. Other envelopes take C_pi from two
correlations over the window. For S pairs over A distinct drives a call
costs O(A P^2 + S P) time past the O(K) read of the bins, and O(K P) more
for the correlations, instead of O(K^2 P) per setting pair. Each pair's
four sums then go through the table model the dense path uses: ProbTable
checks the entries and apply_crosstalk mixes them. The dense
TwoPhotonState path, held to |bin| <= DEFAULT_BIN_BOUND, is its test oracle
and the only path that gives the bin-resolved amplitude table.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .bessel import _sideband_amplitudes
from .closedform import ProbTable, apply_crosstalk
from .errors import InvalidInputError, ProbabilitySumError, WindowBoundError
from .params import (MAX_BINS, BinWindow, DispersionProfile, MeasurementModel, ModulationSetting,
                     TruncationPolicy, is_int)

DEFAULT_BIN_BOUND = 512  # |bin| bound of the dense K x K path
_DEFAULT_POLICY = TruncationPolicy()


@dataclass(eq=False)
class TwoPhotonState:
    """Amplitude table over (Alice bin, Bob bin) pairs.

    Operations never mutate their input state; instances are value-semantic.
    """

    window_a: BinWindow
    window_b: BinWindow
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.window_a.width, self.window_b.width):
            raise InvalidInputError(
                f"amplitude table shape {amp.shape} does not match windows "
                f"({self.window_a.width}, {self.window_b.width})")
        self.amplitudes = amp

    @property
    def norm(self) -> float:
        """Probability weight of the table, sum |amplitude|^2."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def amplitude(self, m: int, n: int) -> complex:
        return complex(self.amplitudes[self.window_a.index(m), self.window_b.index(n)])


def _alice_bins(bins_a) -> tuple[np.ndarray, BinWindow]:
    """The bins as a sorted int64 array and the window they span; each bin must be an integer.

    A bin that is not an integer raises InvalidInputError, one past int64
    WindowBoundError; when the bins hold both, the first of them in the
    bins' order decides.
    """
    values = bins_a if isinstance(bins_a, (list, tuple, range)) else list(bins_a)
    # array("q") reads each bin through __index__, which floats, strings, None,
    # numpy bools and numpy floats lack. Python bools have it, so the bins that
    # read as 0 or 1 (as uint64, every other bin reads 2 or more) are checked
    # one by one.
    try:
        bins = np.frombuffer(array("q", values), dtype=np.int64)
    except OverflowError:
        raise WindowBoundError("bin indices must fit in int64") from None
    except TypeError:
        bins = None
    if bins is None or not all(is_int(values[i])
                               for i in (bins.view(np.uint64) < 2).nonzero()[0].tolist()):
        bad = next((value for value in values if not is_int(value)), None)
        raise InvalidInputError(f"bins must be integers, got {bad!r}")
    bins.sort()
    if not bins.size:
        raise InvalidInputError("need at least one bin")
    if np.any(bins[1:] == bins[:-1]):
        raise InvalidInputError("duplicate bins in correlated state")
    return bins, BinWindow(int(bins[0]), int(bins[-1]))


def correlated_state(bins_a) -> TwoPhotonState:
    """Uniform frequency-correlated state (1/sqrt(K)) sum_n |n>|-n> over the given Alice bins.

    The bins must lie in |n| <= DEFAULT_BIN_BOUND: the dense table holds the
    square of the window's width, so a wider span raises WindowBoundError
    before anything is allocated.
    """
    bins, window_a = _alice_bins(bins_a)
    _check_bin_bound(window_a, DEFAULT_BIN_BOUND)
    window_b = window_a.negated()
    amp = np.zeros((window_a.width, window_b.width), dtype=complex)
    # Bob's bin -n sits at column -n - window_b.min_bin = window_a.max_bin - n
    amp[bins - window_a.min_bin, window_a.max_bin - bins] = 1.0 / math.sqrt(bins.size)
    return TwoPhotonState(window_a, window_b, amp)


def modulation_kernel(setting: ModulationSetting,
                      policy: TruncationPolicy = _DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """Sideband offsets p in [-P, P] and weights J_p(c) e^{i p (gamma - pi/2)}."""
    amps = _bessel_rows([_sideband_amplitudes(setting.amplitude, policy)])[0]
    p_max = amps.size // 2
    offsets = np.arange(-p_max, p_max + 1)
    angles = offsets * (setting.phase - 0.5 * math.pi)
    return offsets, amps * (np.cos(angles) + 1j * np.sin(angles))


def _bessel_rows(amplitudes) -> np.ndarray:
    """Real sideband amplitudes J_p(c) as zero-padded rows over p in [-P_max, P_max].

    amplitudes[s] lists J_0 .. J_P(c) of one drive; column j holds offset
    p = j - P_max, for P_max the largest kept order P.
    """
    p_max = max(len(js) for js in amplitudes) - 1
    bessel = np.zeros((len(amplitudes), 2 * p_max + 1))
    for row, js in zip(bessel, amplitudes):
        row[p_max:p_max + len(js)] = js
    # J_{-p} = (-1)**p J_p
    bessel[:, :p_max] = bessel[:, :p_max:-1]
    bessel[:, :p_max][:, ::-2] *= -1.0
    return bessel


def apply_modulator(state: TwoPhotonState,
                    arm: str,
                    setting: ModulationSetting,
                    policy: TruncationPolicy = _DEFAULT_POLICY,
                    *,
                    bin_bound: int = DEFAULT_BIN_BOUND) -> TwoPhotonState:
    """Convolve one arm with the modulation kernel, widening its window by the kept order P.

    The output window must stay within |bin| <= bin_bound, which turns
    unbounded growth under repeated application into an explicit error.
    """
    state = _as_arm_a(state, arm)
    offsets, weights = modulation_kernel(setting, policy)
    p_max = int(offsets[-1])
    win = state.window_a
    wide = BinWindow(win.min_bin - p_max, win.max_bin + p_max)
    _check_bin_bound(wide, bin_bound)

    old = state.amplitudes
    full = np.zeros((wide.width, old.shape[1]), dtype=complex)
    for k, w in enumerate(weights):
        full[k:k + old.shape[0]] += w * old
    return _as_arm_a(TwoPhotonState(wide, state.window_b, full), arm)


def _as_arm_a(state: TwoPhotonState, arm: str) -> TwoPhotonState:
    """The state with the given arm on axis 0; its own inverse, and the one arm check.

    Arm B swaps the windows and transposes the table into a C-ordered copy,
    so each operation has one body, written for arm A, and calls this first.
    """
    if arm == "A":
        return state
    if arm != "B":
        raise InvalidInputError(f"arm must be 'A' or 'B', got {arm!r}")
    return TwoPhotonState(state.window_b, state.window_a, np.ascontiguousarray(state.amplitudes.T))


def _check_bin_bound(window: BinWindow, bin_bound: int) -> None:
    if window.min_bin < -bin_bound or window.max_bin > bin_bound:
        raise WindowBoundError(
            f"window [{window.min_bin}, {window.max_bin}] exceeds |bin| <= {bin_bound}")


def apply_dispersion(state: TwoPhotonState, profile: DispersionProfile, arm: str) -> TwoPhotonState:
    """Multiply the chosen arm's bin n amplitudes by e^{i phi(n)}; norm unchanged."""
    state = _as_arm_a(state, arm)
    _check_overrides(profile, state.window_a, arm)
    factors = np.exp(1j * profile.phases(state.window_a.bins()))
    phased = TwoPhotonState(state.window_a, state.window_b, state.amplitudes * factors[:, None])
    return _as_arm_a(phased, arm)


def _check_overrides(profile: DispersionProfile, win: BinWindow, arm: str) -> None:
    if profile.per_bin_overrides:
        outside = [n for n in profile.per_bin_overrides if not win.contains(n)]
        if outside:
            raise InvalidInputError(f"dispersion overrides outside arm {arm} window: {outside}")


def parity_probabilities(state: TwoPhotonState, model: MeasurementModel | None = None) -> ProbTable:
    """Even/odd joint detection table; sums to the state's norm.

    Interleaver crosstalk from the model, when given, flips each photon's
    parity label independently with probability model.crosstalk.
    """
    intensity = np.abs(state.amplitudes) ** 2
    even_a, even_b = (np.arange(w.min_bin, w.max_bin + 1) % 2 == 0
                      for w in (state.window_a, state.window_b))
    table = ProbTable(*(float(intensity[np.ix_(rows, cols)].sum())
                        for rows in (even_a, ~even_a) for cols in (even_b, ~even_b)))
    return table if model is None else apply_crosstalk(table, model.crosstalk)


def parity_tables(bins_a,
                  pairs,
                  model: MeasurementModel | None = None,
                  dispersion: DispersionProfile | None = None,
                  policy: TruncationPolicy | None = None) -> list[ProbTable]:
    """Parity table of the modulated correlated state for each (A setting, B setting) pair.

    The state is correlated_state(bins_a), with the dispersion phases, when
    given, on both arms. Each table equals the dense pipeline's
    (apply_modulator on A, then on B, then parity_probabilities with the
    model) to rounding, and the same inputs raise the same errors, save that
    only the window width is bounded: past MAX_BINS bins it raises once bins_a
    is read, before anything else is computed. The banded form in the module
    docstring computes all tables in one pass. C_pi takes its closed form
    when the bins fill their window and the dispersion has no per-bin
    overrides, and the envelope correlation otherwise.
    """
    if policy is None:
        policy = _DEFAULT_POLICY
    bins, window_a = _alice_bins(bins_a)
    if window_a.width > MAX_BINS:
        raise WindowBoundError(f"window [{window_a.min_bin}, {window_a.max_bin}] exceeds {MAX_BINS} bins")
    window_b = window_a.negated()
    dispersed = dispersion is not None and not dispersion.is_zero()
    if dispersed:
        _check_overrides(dispersion, window_a, "A")
        _check_overrides(dispersion, window_b, "B")

    # one amplitude pass and one row of real Gram sums per distinct drive, in
    # first-occurrence order, so that a cap error names the drive the dense
    # pipeline fails on
    rows = {}
    pair_rows = [(rows.setdefault(setting_a.amplitude, len(rows)),
                  rows.setdefault(setting_b.amplitude, len(rows)))
                 for setting_a, setting_b in pairs]
    if not pair_rows:
        return []
    bessel = _bessel_rows([_sideband_amplitudes(amplitude, policy) for amplitude in rows])
    reach = min(bessel.shape[1], window_a.width) - 1  # largest |d|: 2 P_max, and below K
    grams = _parity_grams(bessel, reach)
    l1 = np.abs(bessel).sum(axis=1).tolist()

    # C_pi of the envelope f(n) without its 1/sqrt(K) norm, which C_pi takes
    # as a factor 1/K, so that a uniform envelope's C_pi are exact bin-pair counts
    if bins.size == window_a.width and not (dispersed and dispersion.per_bin_overrides):
        corr = _window_correlation(window_a, dispersion.quadratic_coefficient if dispersed else 0.0, reach)
    else:
        envelope = np.zeros(window_a.width, dtype=complex if dispersed else float)
        envelope[bins - window_a.min_bin] = 1.0
        if dispersed:
            n = np.arange(window_a.min_bin, window_a.max_bin + 1)
            envelope *= np.exp(1j * (dispersion.phases(n) + dispersion.phases(-n)))
        corr = _envelope_correlation(envelope, window_a.min_bin, reach)
    corr /= bins.size

    # m[k, pi, s, t] = sum_d Re(C_pi(d) w_k(d)) R^A_s(d) R^B_t(-d) for pair k,
    # w_k(d) = e^{i d (gamma_A - gamma_B)}; the Gram rows are zero past each
    # drive's own reach 2P
    index_a, index_b = np.array(pair_rows).T
    delta = np.array([setting_a.phase - setting_b.phase for setting_a, setting_b in pairs])
    angles = np.arange(-reach, reach + 1) * delta[:, None, None]
    if corr.dtype == complex:
        phased = (corr * np.exp(1j * angles)).real
    else:
        phased = corr * np.cos(angles)
    m = np.einsum("kpd,ksd,ktd->kpst", phased, grams[index_a], grams[index_b, :, ::-1])
    values = (m[:, 0] + m[:, 1, ::-1, ::-1]).reshape(-1, 4)

    tol = policy.epsilon * policy.epsilon
    tables = []
    for (row_a, row_b), table_values in zip(pair_rows, values.tolist()):
        table = ProbTable(*table_values)
        # Each kernel u keeps all but t <= epsilon**2 of its squared norm, and
        # |sum_p u(p) e^{ip theta}| <= sum_p |u(p)|. The correlated state's
        # sideband phases are uniform on each arm, so by Cauchy-Schwarz the
        # total is 1 - t_A - t_B + X with |X| <= epsilon**2 (1 + l1_A)(1 + l1_B).
        spread = tol * (1.0 + l1[row_a]) * (1.0 + l1[row_b])
        low, high = 1.0 - 2.0 * tol - spread - 1e-12, 1.0 + spread + 1e-12
        if not low <= table.total <= high:
            raise ProbabilitySumError(
                f"parity table sums to {table.total!r}, outside [{low!r}, {high!r}] "
                f"for truncation epsilon {policy.epsilon!r}")
        tables.append(table if model is None else apply_crosstalk(table, model.crosstalk))
    return tables


def _parity_grams(bessel: np.ndarray, reach: int) -> np.ndarray:
    """Gram sums R_pi(d) = sum_{p = pi mod 2} J_p J_{p - d} of each row, as [row, pi, d + reach]."""
    count, width = bessel.shape
    even = width // 2 % 2  # column j holds p = j - width // 2
    masked = np.zeros((count, 2, width))
    masked[:, 0, even::2] = bessel[:, even::2]
    masked[:, 1, 1 - even::2] = bessel[:, 1 - even::2]
    padded = np.zeros((count, width + 2 * reach))
    padded[:, reach:reach + width] = bessel
    # windows[r, j, reach - d] = padded[r, j + reach - d], the J_{p - d} of row r
    row_step, step = padded.strides
    windows = np.ndarray((count, width, 2 * reach + 1), buffer=padded, strides=(row_step, step, step))
    return np.matmul(masked, windows)[:, :, ::-1]


_PARITIES = (np.array([[0], [1]]), np.array([[1], [0]]))  # pi + min_bin mod 2, by min_bin mod 2
# floor(2**256 / pi), the bits of 1 / pi that _turns cuts into pieces
_INV_PI = 0x517cc1b727220a94fe13abe8fa9a6ee06db14acc9e21c820ff28b1d5ef5de2b0


def _window_correlation(window: BinWindow, coefficient: float, reach: int) -> np.ndarray:
    """C_pi(d) of the envelope e^{2 i coefficient n^2} on every bin of the window, in closed form.

    Rows pi = 0, 1 are indexed by d + reach, as _envelope_correlation's. The
    n = pi mod 2 with n and n + d in the window run from n0 to n1 in steps of
    2, N terms, so for theta = -8 c d the geometric sum is

        C_pi(d) = e^{-2 i c d (d + n0 + n1)} sin(N theta / 2) / sin(theta / 2),

    the bin-pair count N when c = 0. The phase is exact while d (d + n0 + n1)
    stays below 2**53, for bins within about 2**40 of 0.
    """
    d = np.arange(-reach, reach + 1)
    start = np.maximum(-d, 0)  # offset from min_bin of the first n with n + d in the window
    skip = (start + _PARITIES[window.min_bin % 2]) & 1  # 1 where that n has the other parity
    terms = (window.width + 1 - np.abs(d) - skip) >> 1
    if coefficient == 0.0:
        return terms.astype(float)
    # theta less its whole turns k, so that an angle near a whole turn keeps
    # its relative precision; the kernel is then (-1)**((N - 1) k) times its
    # value at the reduced angle, or N where that angle is 0
    theta = (-8.0 * coefficient) * d
    turns = np.rint(theta * (0.5 / math.pi))
    half = 0.5 * theta - math.pi * turns
    sine = np.sin(half)
    kernel = terms.astype(float)
    np.divide(np.sin(terms * half), sine, out=kernel, where=sine != 0.0)
    # d (d + n0 + n1) with n0 + n1 = 2 (min_bin + start + skip + N - 1)
    q = d * (2 * (start + skip + terms) + (d + (2.0 * window.min_bin - 2.0)))
    bound = reach * (reach + 2 * (abs(window.min_bin) + window.width))
    flip = np.fmod(turns, 2.0) * (~terms & 1)  # +-1 where k is odd and N even
    phase = _turns(-coefficient, q, bound) + 0.5 * flip
    return kernel * np.exp(2j * math.pi * phase)


def _turns(rate: float, q: np.ndarray, bound: int) -> np.ndarray:
    """The angle 2 rate q in turns, less whole turns, for integer-valued q with |q| <= bound < 2**53.

    One float product would lose |rate q| * 1e-16 of a turn. Here rate / pi is
    cut into pieces so short that each times any q is an exact double, whose
    whole turns drop out exactly, until the rest times q is below a turn; the
    result lies within a turn or two of 0.
    """
    mantissa, exponent = math.frexp(abs(rate))
    rest, scale = int(math.ldexp(mantissa, 53)) * _INV_PI, exponent - 53 - 256  # |rate| / pi = rest 2**scale
    sign = math.copysign(1.0, rate)
    bits = max(1, 53 - bound.bit_length())
    pieces = []
    while bound * math.ldexp(rest, scale) >= 1.0:
        shift = max(0, rest.bit_length() - bits)
        pieces.append(sign * math.ldexp(rest >> shift, shift + scale))
        rest &= (1 << shift) - 1
    turns = q * (sign * math.ldexp(rest, scale))
    for piece in pieces:
        turns += np.modf(q * piece)[0]
    return turns


def _envelope_correlation(envelope: np.ndarray, min_bin: int, reach: int) -> np.ndarray:
    """C_pi(d) = sum_{n = pi mod 2} f(n) f*(n + d) as rows pi = 0, 1 indexed by d + reach."""
    parity = np.arange(min_bin, min_bin + envelope.size) % 2
    padded = np.concatenate([np.zeros(reach), envelope, np.zeros(reach)])
    # np.correlate(a, v, "valid")[k] = sum_n a(n + k) v*(n), and a(n + k) = f(n + k - reach)
    return np.conj([np.correlate(padded, envelope * (parity == pi), "valid") for pi in (0, 1)])
