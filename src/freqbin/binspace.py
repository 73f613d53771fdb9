"""Exact finite-truncation simulation of the discrete frequency-bin space.

A two-photon state is a dense complex amplitude table over a rectangular
window of bin-index pairs (m, n). A phase modulator on one arm convolves the
table along that axis with the sideband kernel J_p(c) e^{i p (gamma - pi/2)};
probability shifted outside a caller-supplied window is tracked in
leaked_norm instead of being renormalized away.

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

One call batches every pair: one Bessel row and one row of R_pi per distinct
drive, C_pi from two correlations of the envelope (real unless dispersed),
and all the tables from one contraction. For S pairs over A distinct drives
that costs O(K P + A P^2 + S P) time and O(K + (A + S) P) memory per call,
instead of O(K^2 P) per setting pair. The dense TwoPhotonState path, held to
|bin| <= DEFAULT_BIN_BOUND, is its test oracle and the only path that clips
to a max_window and accounts leaked norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _sideband_amplitudes
from .closedform import ProbTable, apply_crosstalk
from .errors import InvalidInputError, ProbabilitySumError, WindowBoundError
from .params import (MAX_BINS, BinWindow, DispersionProfile, MeasurementModel, ModulationSetting,
                     TruncationPolicy)

DEFAULT_BIN_BOUND = 512  # |bin| bound of the dense K x K path
_ARMS = ("A", "B")


@dataclass(eq=False)
class TwoPhotonState:
    """Amplitude table over (Alice bin, Bob bin) pairs plus truncated-away probability.

    Operations never mutate their input state; instances are value-semantic.
    """

    window_a: BinWindow
    window_b: BinWindow
    amplitudes: np.ndarray
    leaked_norm: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.window_a.width, self.window_b.width):
            raise InvalidInputError(
                f"amplitude table shape {amp.shape} does not match windows "
                f"({self.window_a.width}, {self.window_b.width})")
        if self.leaked_norm < 0.0:
            raise InvalidInputError("leaked_norm must be >= 0")
        self.amplitudes = amp

    @property
    def norm(self) -> float:
        """Probability weight still inside the window, sum |amplitude|^2."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def amplitude(self, m: int, n: int) -> complex:
        return complex(self.amplitudes[self.window_a.index(m), self.window_b.index(n)])

    def window(self, arm: str) -> BinWindow:
        _check_arm(arm)
        return self.window_a if arm == "A" else self.window_b


def _check_arm(arm: str) -> None:
    if arm not in _ARMS:
        raise InvalidInputError(f"arm must be 'A' or 'B', got {arm!r}")


def _alice_bins(bins_a) -> tuple[np.ndarray, BinWindow]:
    """The bins as a sorted int64 array and the window they span."""
    try:
        bins = np.sort(np.fromiter(bins_a, dtype=np.int64))
    except OverflowError:
        raise WindowBoundError("bin indices must fit in int64") from None
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
                      policy: TruncationPolicy = TruncationPolicy()) -> tuple[np.ndarray, np.ndarray]:
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
    bessel = np.zeros((len(amplitudes), p_max + 1))
    for row, js in zip(bessel, amplitudes):
        row[:len(js)] = js
    offsets = np.arange(-p_max, p_max + 1)
    # J_{-p} = (-1)**p J_p
    return np.where((offsets < 0) & (offsets % 2 == 1), -1.0, 1.0) * bessel[:, np.abs(offsets)]


def apply_modulator(state: TwoPhotonState,
                    arm: str,
                    setting: ModulationSetting,
                    policy: TruncationPolicy = TruncationPolicy(),
                    *,
                    max_window: BinWindow | None = None,
                    bin_bound: int = DEFAULT_BIN_BOUND) -> TwoPhotonState:
    """Convolve one arm with the modulation kernel, widening its window by the kept order.

    Amplitude landing outside max_window (when given) is summed into
    leaked_norm. The output window must stay within |bin| <= bin_bound, which
    turns unbounded growth under repeated application into an explicit error.
    """
    _check_arm(arm)
    offsets, weights = modulation_kernel(setting, policy)
    p_max = int(offsets[-1])
    win = state.window(arm)
    wide = BinWindow(win.min_bin - p_max, win.max_bin + p_max)
    out_win = wide if max_window is None else _intersect(wide, max_window)
    if out_win is None:
        raise InvalidInputError("max_window does not overlap the modulated spectrum")
    _check_bin_bound(out_win, bin_bound)

    old = state.amplitudes
    if arm == "A":
        full = np.zeros((wide.width, old.shape[1]), dtype=complex)
        for k, w in enumerate(weights):
            full[k:k + old.shape[0], :] += w * old
    else:
        full = np.zeros((old.shape[0], wide.width), dtype=complex)
        for k, w in enumerate(weights):
            full[:, k:k + old.shape[1]] += w * old

    leaked = state.leaked_norm
    if out_win != wide:
        lo = out_win.min_bin - wide.min_bin
        hi = lo + out_win.width
        if arm == "A":
            leaked += float(np.sum(np.abs(full[:lo, :]) ** 2) + np.sum(np.abs(full[hi:, :]) ** 2))
            full = full[lo:hi, :]
        else:
            leaked += float(np.sum(np.abs(full[:, :lo]) ** 2) + np.sum(np.abs(full[:, hi:]) ** 2))
            full = full[:, lo:hi]

    if arm == "A":
        return TwoPhotonState(out_win, state.window_b, full, leaked)
    return TwoPhotonState(state.window_a, out_win, full, leaked)


def _check_bin_bound(window: BinWindow, bin_bound: int) -> None:
    if window.min_bin < -bin_bound or window.max_bin > bin_bound:
        raise WindowBoundError(
            f"window [{window.min_bin}, {window.max_bin}] exceeds |bin| <= {bin_bound}")


def _intersect(w1: BinWindow, w2: BinWindow) -> BinWindow | None:
    lo = max(w1.min_bin, w2.min_bin)
    hi = min(w1.max_bin, w2.max_bin)
    return BinWindow(lo, hi) if lo <= hi else None


def apply_dispersion(state: TwoPhotonState, profile: DispersionProfile, arm: str) -> TwoPhotonState:
    """Multiply the chosen arm's bin n amplitudes by e^{i phi(n)}; norm unchanged."""
    _check_arm(arm)
    win = state.window(arm)
    _check_overrides(profile, win, arm)
    factors = np.exp(1j * profile.phases(win.bins()))
    if arm == "A":
        amp = state.amplitudes * factors[:, None]
    else:
        amp = state.amplitudes * factors[None, :]
    return TwoPhotonState(state.window_a, state.window_b, amp, state.leaked_norm)


def _check_overrides(profile: DispersionProfile, win: BinWindow, arm: str) -> None:
    if profile.per_bin_overrides:
        outside = [n for n in profile.per_bin_overrides if not win.contains(n)]
        if outside:
            raise InvalidInputError(f"dispersion overrides outside arm {arm} window: {outside}")


def parity_probabilities(state: TwoPhotonState, model: MeasurementModel | None = None) -> ProbTable:
    """Even/odd joint detection table; sums to 1 - leaked_norm.

    Interleaver crosstalk from the model, when given, flips each photon's
    parity label independently with probability model.crosstalk.
    """
    intensity = np.abs(state.amplitudes) ** 2
    even_a = np.fromiter((n % 2 == 0 for n in state.window_a.bins()), dtype=bool)
    even_b = np.fromiter((n % 2 == 0 for n in state.window_b.bins()), dtype=bool)
    p_ee = float(intensity[np.ix_(even_a, even_b)].sum())
    p_eo = float(intensity[np.ix_(even_a, ~even_b)].sum())
    p_oe = float(intensity[np.ix_(~even_a, even_b)].sum())
    p_oo = float(intensity[np.ix_(~even_a, ~even_b)].sum())
    return _with_crosstalk(ProbTable(p_ee, p_eo, p_oe, p_oo), model)


def _with_crosstalk(table: ProbTable, model: MeasurementModel | None) -> ProbTable:
    if model is not None and model.crosstalk > 0.0:
        table = apply_crosstalk(table, model.crosstalk)
    return table


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
    is read, before the envelope and Gram buffers. The banded form in the
    module docstring computes all tables in one pass.
    """
    if policy is None:
        policy = TruncationPolicy()
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

    # the envelope f(n) without its 1/sqrt(K) norm, which C_pi takes as a
    # factor 1/K, so that a uniform envelope's C_pi are exact bin-pair counts
    envelope = np.zeros(window_a.width, dtype=complex if dispersed else float)
    envelope[bins - window_a.min_bin] = 1.0
    if dispersed:
        n = np.arange(window_a.min_bin, window_a.max_bin + 1)
        envelope *= np.exp(1j * (dispersion.phases(n) + dispersion.phases(-n)))
    corr = _envelope_correlation(envelope, window_a.min_bin, reach) / bins.size

    # m[k, pi, s, t] = sum_d Re(C_pi(d) w_k(d)) R^A_s(d) R^B_t(-d) for pair k,
    # w_k(d) = e^{i d (gamma_A - gamma_B)}; the Gram rows are zero past each
    # drive's own reach 2P
    index_a, index_b = np.array(pair_rows).T
    delta = np.array([setting_a.phase - setting_b.phase for setting_a, setting_b in pairs])
    phased = (corr * np.exp(1j * np.arange(-reach, reach + 1) * delta[:, None, None])).real
    m = np.einsum("kpd,ksd,ktd->kpst", phased, grams[index_a], grams[index_b, :, ::-1])
    values = (m[:, 0] + m[:, 1, ::-1, ::-1]).reshape(-1, 4).tolist()

    tol = policy.epsilon * policy.epsilon
    tables = []
    for (row_a, row_b), table_values in zip(pair_rows, values):
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
        tables.append(_with_crosstalk(table, model))
    return tables


def _parity_grams(bessel: np.ndarray, reach: int) -> np.ndarray:
    """Gram sums R_pi(d) = sum_{p = pi mod 2} J_p J_{p - d} of each row, as [row, pi, d + reach]."""
    width = bessel.shape[1]
    masks = (np.arange(width) - width // 2) % 2 == np.array([[0], [1]])
    # np.correlate(a, v, "full")[d + width - 1] = sum_p a(p) v(p - d) for real a, v
    keep = slice(width - 1 - reach, width + reach)
    return np.array([[np.correlate(row * mask, row, "full")[keep] for mask in masks] for row in bessel])


def _envelope_correlation(envelope: np.ndarray, min_bin: int, reach: int) -> np.ndarray:
    """C_pi(d) = sum_{n = pi mod 2} f(n) f*(n + d) as rows pi = 0, 1 indexed by d + reach."""
    parity = np.arange(min_bin, min_bin + envelope.size) % 2
    padded = np.concatenate([np.zeros(reach), envelope, np.zeros(reach)])
    # np.correlate(a, v, "valid")[k] = sum_n a(n + k) v*(n), and a(n + k) = f(n + k - reach)
    return np.conj([np.correlate(padded, envelope * (parity == pi), "valid") for pi in (0, 1)])
