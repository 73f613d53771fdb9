"""CHSH correlator evaluation and optimization over modulation settings.

In the closed-form model every correlator is E_ij = J_0(2 D_ij) with D_ij the
setting pair's effective drive amplitude, so S = E00 + E01 + E10 - E11. The
symmetric reduction D00 = D01 = D10 = D11 / 3 collapses the search to one
amplitude, S(c) = 3 J_0(4c) - J_0(12c); the general 8-parameter search is kept
as a numerical check of that structure. It runs multi-start L-BFGS-B on the
analytic gradient: with D^2 = a^2 + b^2 + 2ab cos(alpha - beta) per pair,
dJ_0(2D)/d(D^2) = -J_1(2D)/D, and the partials of D^2 are closed-form; J_0
and J_1 come from scipy.special. Each restart drives scipy's L-BFGS-B step
(setulb) in the loop scipy.optimize.minimize runs around it, with one
objective evaluation per point, and so gives minimize's solve bit for bit
without its per-call and per-point wrappers. The restarts run in lockstep
rounds: each round steps every live restart to its next point and evaluates
all those points in one batched call, so a search makes as many objective
calls as its longest restart makes evaluations. Restarts that reach the
optimum tie to ~1e-15, so the search reports the first restart within 1e-12
of the best, and the last bits of the objective never choose the quad.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import X_MAX, bessel_j
from .binspace import parity_tables
from .closedform import effective_drive
from .errors import InvalidInputError, OptimizationError
from .params import DispersionProfile, MeasurementModel, ModulationSetting, TruncationPolicy, is_int

MAX_AMPLITUDE_BOUND = X_MAX / 4.0  # 2D <= 4 * bound must stay in the Bessel domain
MAX_RESTARTS = 10_000  # each restart is one L-BFGS-B solve, ~0.25 ms in lockstep rounds
# starts draw amplitudes below this even under a larger bound: the optimum's
# amplitudes are 0.23 and 0.70, and starts far out on the Bessel tail settle in
# local maxima (at bound 12.5, 40 of 40 seeds missed S* with starts on [0, 12.5])
_START_AMPLITUDE_MAX = 1.5
_TIE_TOLERANCE = 1e-12  # restarts whose -S lie this close to the best count as ties

# x = (a0, a1, b0, b1, alpha0, alpha1, beta0, beta1): the entries of each correlator's
# (b, a, b, alpha, beta), with a and alpha Alice's amplitude and phase, in order 00, 01, 10, 11
_PAIR_ROWS = np.array([2, 3, 2, 3, 0, 0, 1, 1, 2, 3, 2, 3, 4, 4, 5, 5, 6, 7, 6, 7])
_TWO_SLOPE_SIGNS = np.array([[-2.0], [-2.0], [-2.0], [2.0]])  # -2 * the CHSH sign of each pair
# the gradient's 16 terms are (a partial, b partial, -phase partial, phase partial) x (pairs 00,
# 01, 10, 11); entry k sums term _GRADIENT_TERMS[k], then term _GRADIENT_TERMS[8 + k]: a0 = 00 + 01,
# a1 = 10 + 11, b0 = 00 + 10, b1 = 01 + 11, and the phases alike from the -phase and phase terms
_GRADIENT_TERMS = np.array([0, 2, 4, 5, 8, 10, 12, 13, 1, 3, 6, 7, 9, 11, 14, 15])

# L-BFGS-B as scipy.optimize.minimize runs it with options ftol=1e-15, gtol=1e-11
# and maxiter=1000 (memory, line-search steps and maxfun at scipy's defaults)
_LBFGSB_MEMORY = 10
_LBFGSB_MAX_LINE_SEARCH = 20
_LBFGSB_FACTR = 1e-15 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-11
_LBFGSB_MAX_ITERATIONS = 1000
_LBFGSB_MAX_EVALUATIONS = 15_000
# restarts live at once in the lockstep driver, each holding ~11 kB of setulb state
_LOCKSTEP_WIDTH = 256

# scipy.special's j0 and j1, imported on the first evaluation: scipy.special
# takes 0.25 s to import, so only a search loads it
_j0 = _j1 = None


@dataclass(frozen=True)
class SettingQuad:
    """The four CHSH measurement settings: Alice's a0, a1 and Bob's b0, b1."""

    a0: ModulationSetting
    a1: ModulationSetting
    b0: ModulationSetting
    b1: ModulationSetting

    def pairs(self) -> tuple[tuple[ModulationSetting, ModulationSetting], ...]:
        """Setting pairs in correlator order 00, 01, 10, 11."""
        return ((self.a0, self.b0), (self.a0, self.b1), (self.a1, self.b0), (self.a1, self.b1))


@dataclass(frozen=True)
class ChshReport:
    """Four correlators E_ij (order 00, 01, 10, 11) and their drive amplitudes; S derives from them."""

    correlators: tuple[float, float, float, float]
    drives: tuple[float, float, float, float]

    def __post_init__(self):
        if any(not abs(e) <= 1.0 + 1e-9 for e in self.correlators):  # also rejects nan
            raise InvalidInputError(f"correlators outside [-1, 1]: {self.correlators}")

    @property
    def s_value(self) -> float:
        """S = E00 + E01 + E10 - E11."""
        e00, e01, e10, e11 = self.correlators
        return e00 + e01 + e10 - e11


def chsh_optimal_quad() -> SettingQuad:
    """Settings maximizing S in the closed-form model: amplitudes (0.2318, 0.6955), phases (0, pi)."""
    low = ModulationSetting(0.2318, 0.0)
    high = ModulationSetting(0.6955, np.pi)
    return SettingQuad(a0=low, a1=high, b0=low, b1=high)


def symmetric_quad(c: float) -> SettingQuad:
    """Quad with amplitudes (c, 3c) on both arms and phases (0, pi): realizes D11 = 3 D00."""
    low = ModulationSetting(c, 0.0)
    high = ModulationSetting(3.0 * c, np.pi)
    return SettingQuad(a0=low, a1=high, b0=low, b1=high)


def symmetric_chsh(c: float) -> float:
    """S along the symmetric family, 3 J_0(4c) - J_0(12c)."""
    return 3.0 * bessel_j(0, 4.0 * c) - bessel_j(0, 12.0 * c)


def chsh_ideal(quad: SettingQuad) -> ChshReport:
    """Closed-form CHSH report for the given settings."""
    drives = tuple(effective_drive(sa, sb) for sa, sb in quad.pairs())
    return ChshReport(tuple(bessel_j(0, 2.0 * d) for d in drives), drives)


def optimize_symmetric(search_interval: tuple[float, float] = (0.0, 0.5),
                       tolerance: float = 1e-6) -> tuple[float, float]:
    """Maximize S(c) = 3 J_0(4c) - J_0(12c) by bounded bracketing search.

    Returns (c_star, s_star). Raises if the maximum sits within 2 * tolerance
    of the interval boundary, i.e. no interior maximum was bracketed; so the
    tolerance must be below (hi - lo)/4, or no c could count as interior.
    """
    from scipy.optimize import minimize_scalar

    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not 0.0 <= lo < hi <= 1.0:
        raise InvalidInputError("search interval must satisfy 0 <= lo < hi <= 1")
    if not 1e-6 <= tolerance < math.inf:
        raise InvalidInputError(f"tolerance must be finite and >= 1e-6, got {tolerance!r}")
    # no c lies more than (hi - lo)/2 inside both ends, so none could pass the check below
    if tolerance >= (hi - lo) / 4.0:
        raise InvalidInputError(f"tolerance must be below (hi - lo)/4 = {(hi - lo) / 4.0!r} "
                                f"on [{lo}, {hi}], got {tolerance!r}")
    res = minimize_scalar(lambda c: -symmetric_chsh(c), bounds=(lo, hi), method="bounded",
                          options={"xatol": tolerance})
    c_star = float(res.x)
    if min(c_star - lo, hi - c_star) <= 2.0 * tolerance:
        raise OptimizationError(
            f"no interior maximum in [{lo}, {hi}]: search stopped at boundary c = {c_star}")
    return c_star, symmetric_chsh(c_star)


def check_general_search(amplitude_bound: float, restarts: int) -> None:
    """Raise InvalidInputError unless optimize_general accepts this bound and restart count."""
    if not 1.0 <= amplitude_bound <= MAX_AMPLITUDE_BOUND:  # also rejects nan
        raise InvalidInputError(f"amplitude_bound must lie in [1, {MAX_AMPLITUDE_BOUND}]")
    if not is_int(restarts) or restarts < 1:
        raise InvalidInputError(f"restarts must be an integer >= 1, got {restarts!r}")
    if restarts > MAX_RESTARTS:
        raise InvalidInputError(f"restarts must be at most {MAX_RESTARTS}, got {restarts}")


def optimize_general(amplitude_bound: float = 1.5,
                     restarts: int = 20,
                     seed: int = 0) -> tuple[SettingQuad, ChshReport]:
    """Seeded multi-start L-BFGS-B on the analytic gradient of S over all 8 setting parameters.

    The first start is the zero quad, every amplitude and phase 0; the
    other restarts - 1 are uniform draws of amplitudes in
    [0, min(amplitude_bound, 1.5)] and phases in [0, 2 pi).
    All restarts run in one _lbfgsb_lockstep call, which evaluates the
    points its live restarts ask for in one batched call per round. Reports
    the quad of the first restart whose S lies within 1e-12 of the best
    (never raises on a poor run), gauge-fixed so that alpha_0 = 0.
    amplitude_bound must lie in [1, MAX_AMPLITUDE_BOUND], where every drive
    2D <= 4 * bound stays inside the validated Bessel domain; restarts must
    be an integer in [1, MAX_RESTARTS] and seed an integer >= 0 (bool is
    neither).
    """
    check_general_search(amplitude_bound, restarts)
    if not is_int(seed) or seed < 0:
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")

    two_pi = 2.0 * np.pi
    start_amplitude_max = min(amplitude_bound, _START_AMPLITUDE_MAX)
    rng = np.random.default_rng(seed)
    starts = np.zeros((restarts, 8))
    starts[1:] = rng.uniform(0.0, [start_amplitude_max] * 4 + [two_pi] * 4, (restarts - 1, 8))

    lower = np.array([0.0] * 4 + [-two_pi] * 4)
    upper = np.array([amplitude_bound] * 4 + [2.0 * two_pi] * 4)
    funs, ends = _lbfgsb_lockstep(_neg_chsh_and_gradients, starts, lower, upper)
    x = ends[np.flatnonzero(funs <= funs.min() + _TIE_TOLERANCE)[0]]

    a0, a1, b0, b1 = x[:4]
    al0, al1, be0, be1 = x[4:] - x[4]  # gauge: report with alpha_0 = 0
    quad = SettingQuad(a0=ModulationSetting(a0, al0), a1=ModulationSetting(a1, al1),
                       b0=ModulationSetting(b0, be0), b1=ModulationSetting(b1, be1))
    return quad, chsh_ideal(quad)


def _lbfgsb_lockstep(objective, starts, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Minimize from each row of starts[N, n] in the box [lower, upper]; returns (f[N], x[N, n]).

    Each restart is the loop scipy.optimize.minimize(method="L-BFGS-B",
    jac=True) runs around scipy's reverse-communication step setulb, and it
    gives the same x, f, iterations and evaluations bit for bit (test_bell
    pins that against minimize): x0 clipped into the box, an iteration counted
    on each new iterate, a stop at the iteration cap or past the evaluation
    cap, and f evaluated only at a point whose bytes differ from the last one
    evaluated, as minimize's ScalarFunction skips a repeated point. The
    restarts run in lockstep rounds: each round steps every live restart until
    it asks for a new point or stops, then evaluates all asking restarts in
    one call, objective(x[N, n]) -> (f[N], g[N, n]). At most _LOCKSTEP_WIDTH
    restarts are live at once; the next start enters as one stops. setulb is a
    private scipy entry point (this 17-argument form since scipy 1.15).
    """
    from scipy.optimize._lbfgsb import setulb

    count, n = starts.shape
    m, max_iterations = _LBFGSB_MEMORY, _LBFGSB_MAX_ITERATIONS
    max_evaluations = _LBFGSB_MAX_EVALUATIONS
    x = np.clip(starts, lower, upper)  # row k is restart k's point, which setulb moves in place
    fun = np.zeros(count)
    bounded = np.full(n, 2, np.int32)  # 2: a lower and an upper bound on each coordinate
    work_size = 2 * m * n + 5 * n + 11 * m * m + 8 * m
    state, evaluated = [None] * count, [None] * count
    iterations, evaluations = [0] * count, [0] * count
    live, pending = [], iter(range(count))
    while True:
        for k in itertools.islice(pending, _LOCKSTEP_WIDTH - len(live)):
            # setulb's arguments for restart k; f and g (5 and 6) take each new evaluation
            state[k] = [m, x[k], lower, upper, bounded, 0.0, np.zeros(n), _LBFGSB_FACTR,
                        _LBFGSB_PGTOL, np.zeros(work_size), np.zeros(3 * n, np.int32),
                        np.zeros(2, np.int32), np.zeros(4, np.int32), np.zeros(44, np.int32),
                        np.zeros(29), _LBFGSB_MAX_LINE_SEARCH, np.zeros(2, np.int32)]
            live.append(k)
        if not live:
            return fun, x
        asking = []
        for k in live:
            args = state[k]
            task = args[11]
            while True:
                setulb(*args)
                if task[0] == 3:  # evaluate at x[k], unless it was the last point evaluated
                    point = args[1].tobytes()
                    if point != evaluated[k]:
                        evaluated[k] = point
                        asking.append(k)
                        break
                elif task[0] == 1:  # a new iterate
                    iterations[k] += 1
                    if iterations[k] >= max_iterations:
                        task[:] = 5, 504  # stop: iteration cap
                    elif evaluations[k] > max_evaluations:
                        task[:] = 5, 502  # stop: evaluation cap
                else:  # converged, stopped or abnormal line search
                    fun[k] = args[5]
                    state[k] = None
                    break
        if asking:
            values, gradients = objective(x[asking])
            for k, value, gradient in zip(asking, values.tolist(), gradients):
                state[k][5], state[k][6] = value, gradient
                evaluations[k] += 1
        live = asking


def _neg_chsh_and_gradients(x) -> tuple[np.ndarray, np.ndarray]:
    """-S and its gradient at each row of x[N, 8] = (a0, a1, b0, b1, alpha0, alpha1, beta0, beta1).

    Each pair has D^2 = a^2 + b^2 + 2ab cos(alpha - beta) and E = J_0(2D), so
    dE/d(D^2) = -J_1(2D)/D, which tends to -1 as D -> 0. Every sum starts
    from 0.0 and adds the pairs in order 00, 01, 10, 11, so a row gets the
    same bits, signed zeros included, as the same formula on Python floats.
    """
    global _j0, _j1
    if _j0 is None:
        from scipy.special import j0 as _j0, j1 as _j1
    rows = x.shape[0]
    pairs = x.T.take(_PAIR_ROWS, axis=0).reshape(5, 4, rows)  # (b, a, b, alpha, beta) per pair
    ab, ba = pairs[1:3], pairs[0:2]
    a, b, alpha, beta = pairs[1:]
    diff = alpha - beta
    cos_diff = np.cos(diff)
    squares = ab * ab
    d = np.sqrt(np.maximum(squares[0] + squares[1] + 2.0 * a * b * cos_diff, 0.0))
    two_d = 2.0 * d
    e = _j0(two_d)
    # J_1(2D)/D, which tends to 1 as D -> 0
    ratio = np.divide(_j1(two_d), d, out=np.ones(d.shape), where=d != 0.0)
    two_slope = _TWO_SLOPE_SIGNS * ratio  # 2 * sign * dE/d(D^2)
    terms = np.empty((4, 4, rows))  # the gradient's terms per pair, in _GRADIENT_TERMS's order
    np.multiply(two_slope, ab + ba * cos_diff, out=terms[0:2])
    np.multiply(two_slope * a * b, np.sin(diff), out=terms[3])
    np.negative(terms[3], out=terms[2])
    first, second = terms.reshape(16, rows).take(_GRADIENT_TERMS, axis=0).reshape(2, 8, rows)
    gradient = np.empty((rows, 8))
    np.negative((0.0 + first) + second, out=gradient.T)
    return -((((0.0 + e[0]) + e[1]) + e[2]) - e[3]), gradient


def chsh_finite(quad: SettingQuad,
                bins,
                model: MeasurementModel | None = None,
                dispersion: DispersionProfile | None = None,
                policy: TruncationPolicy | None = None) -> ChshReport:
    """CHSH report from the finite-bin simulation of a uniform correlated state."""
    tables = parity_tables(bins, quad.pairs(), model, dispersion, policy)
    return ChshReport(tuple(table.correlator for table in tables),
                      tuple(effective_drive(sa, sb) for sa, sb in quad.pairs()))
