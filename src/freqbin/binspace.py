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
That costs O(K P) per call instead of O(K^2 P) per setting pair. The dense
TwoPhotonState path stays as the test oracle for it, and as the only path
that clips to a max_window and accounts the leaked norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _sideband_amplitudes
from .closedform import ProbTable, apply_crosstalk
from .errors import InvalidInputError, ProbabilitySumError, WindowBoundError
from .params import BinWindow, DispersionProfile, MeasurementModel, ModulationSetting, TruncationPolicy

DEFAULT_BIN_BOUND = 512
_NORM_TOL = 1e-10
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


def _alice_bins(bins_a) -> tuple[list[int], BinWindow]:
    bins = [int(n) for n in bins_a]
    if not bins:
        raise InvalidInputError("need at least one bin")
    if len(set(bins)) != len(bins):
        raise InvalidInputError("duplicate bins in correlated state")
    return bins, BinWindow(min(bins), max(bins))


def correlated_state(bins_a) -> TwoPhotonState:
    """Uniform frequency-correlated state (1/sqrt(K)) sum_n |n>|-n> over the given Alice bins."""
    bins, window_a = _alice_bins(bins_a)
    window_b = window_a.negated()
    amp = np.zeros((window_a.width, window_b.width), dtype=complex)
    weight = 1.0 / math.sqrt(len(bins))
    for n in bins:
        amp[window_a.index(n), window_b.index(-n)] = weight
    return TwoPhotonState(window_a, window_b, amp)


def modulation_kernel(setting: ModulationSetting,
                      policy: TruncationPolicy = TruncationPolicy()) -> tuple[np.ndarray, np.ndarray]:
    """Sideband offsets p in [-P, P] and weights J_p(c) e^{i p (gamma - pi/2)}."""
    js = np.array(_sideband_amplitudes(setting.amplitude, policy))
    p_max = js.size - 1
    offsets = np.arange(-p_max, p_max + 1)
    # J_{-p} = (-1)**p J_p
    amps = np.where((offsets < 0) & (offsets % 2 == 1), -1.0, 1.0) * js[np.abs(offsets)]
    angles = offsets * (setting.phase - 0.5 * math.pi)
    return offsets, amps * (np.cos(angles) + 1j * np.sin(angles))


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
    model) to rounding, and the same inputs raise the same errors; the
    banded form in the module docstring computes it in O(K P). Each distinct
    setting's kernel is built once per call.
    """
    if policy is None:
        policy = TruncationPolicy()
    bins, window_a = _alice_bins(bins_a)
    window_b = window_a.negated()
    envelope = np.zeros(window_a.width, dtype=complex)
    envelope[np.array(bins) - window_a.min_bin] = 1.0 / math.sqrt(len(bins))
    if dispersion is not None and not dispersion.is_zero():
        _check_overrides(dispersion, window_a, "A")
        _check_overrides(dispersion, window_b, "B")
        n = np.arange(window_a.min_bin, window_a.max_bin + 1)
        envelope *= np.exp(1j * (dispersion.phases(n) + dispersion.phases(-n)))

    grams = {}

    def gram(setting, window):
        if setting not in grams:
            grams[setting] = _parity_gram(setting, policy)
        p_max = grams[setting][0]
        _check_bin_bound(BinWindow(window.min_bin - p_max, window.max_bin + p_max),
                         DEFAULT_BIN_BOUND)
        return grams[setting]

    pair_grams = [(gram(setting_a, window_a), gram(setting_b, window_b))
                  for setting_a, setting_b in pairs]

    reach = min(2 * max((g[0] for g in grams.values()), default=0), window_a.width - 1)
    corr = _envelope_correlation(envelope, window_a.min_bin, reach)
    tol = policy.epsilon * policy.epsilon
    tables = []
    for (p_a, g_a, l1_a), (p_b, g_b, l1_b) in pair_grams:
        d = min(2 * p_a, 2 * p_b, reach)
        # m[pi, s, t] = sum_d C_pi(d) g^A_s(d) g^B_t(-d)
        m = np.einsum("pd,sd,td->pst", corr[:, reach - d:reach + d + 1],
                      g_a[:, 2 * p_a - d:2 * p_a + d + 1],
                      g_b[:, ::-1][:, 2 * p_b - d:2 * p_b + d + 1])
        table = ProbTable(*(float(v) for v in (m[0] + m[1, ::-1, ::-1]).real.ravel()))
        # Each kernel u keeps all but t <= epsilon**2 of its squared norm, and
        # |sum_p u(p) e^{ip theta}| <= sum_p |u(p)|. The correlated state's
        # sideband phases are uniform on each arm, so by Cauchy-Schwarz the
        # total is 1 - t_A - t_B + X with |X| <= epsilon**2 (1 + l1_A)(1 + l1_B).
        spread = tol * (1.0 + l1_a) * (1.0 + l1_b)
        low, high = 1.0 - 2.0 * tol - spread - 1e-12, 1.0 + spread + 1e-12
        if not low <= table.total <= high:
            raise ProbabilitySumError(
                f"parity table sums to {table.total!r}, outside [{low!r}, {high!r}] "
                f"for truncation epsilon {policy.epsilon!r}")
        tables.append(_with_crosstalk(table, model))
    return tables


def _parity_gram(setting: ModulationSetting,
                 policy: TruncationPolicy) -> tuple[int, np.ndarray, float]:
    """Kept order P, the Gram sums g_pi(d) as rows pi = 0, 1 indexed by d + 2P, and sum_p |u(p)|."""
    offsets, weights = modulation_kernel(setting, policy)
    reversed_conj = np.conj(weights[::-1])
    g = np.array([np.convolve(weights * (offsets % 2 == parity), reversed_conj)
                  for parity in (0, 1)])
    return int(offsets[-1]), g, float(np.abs(weights).sum())


def _envelope_correlation(envelope: np.ndarray, min_bin: int, reach: int) -> np.ndarray:
    """C_pi(d) = sum_{n = pi mod 2} f(n) f*(n + d) as rows pi = 0, 1 indexed by d + reach."""
    parity = np.arange(min_bin, min_bin + envelope.size) % 2
    split = envelope[:, None] * (parity[:, None] == (0, 1))
    padded = np.concatenate([np.zeros(reach), envelope, np.zeros(reach)])
    # row d + reach of the view holds f(n + d) for the window's bins n
    shifted = np.lib.stride_tricks.sliding_window_view(padded, envelope.size)
    return (np.conj(shifted) @ split).T


def phase_state(varphi: float, window: BinWindow) -> np.ndarray:
    """Truncated translation eigenvector with entry e^{i n varphi} / sqrt(2 pi) at bin n.

    Unnormalized; intended for property tests (sharp truncation corrupts the
    window edges, so checks should use interior entries only).
    """
    if window.width < 3:
        raise InvalidInputError("phase-state window must span at least 3 bins")
    n = np.arange(window.min_bin, window.max_bin + 1)
    return np.exp(1j * n * varphi) / math.sqrt(2.0 * math.pi)
