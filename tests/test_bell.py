"""CHSH evaluation and optimization, closed-form and finite-bin."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from freqbin import (ChshReport, DispersionProfile, InvalidInputError, MeasurementModel,
                     ModulationSetting, OptimizationError, SettingQuad, WindowBoundError,
                     chsh_finite, chsh_ideal, optimize_general, optimize_symmetric,
                     chsh_optimal_quad, symmetric_chsh, symmetric_quad)
from freqbin.bell import _neg_chsh_and_gradients

S_MAX_THEORY = 2.5664949013225584  # 3 J_0(4c*) - J_0(12c*) at the optimal amplitude
S_STAR = 2.566494962149  # the same maximum at c* = 0.231844 to 1e-12


def zero_quad():
    zero = ModulationSetting(0.0, 0.0)
    return SettingQuad(zero, zero, zero, zero)


def shifted_quad(quad, shift):
    return SettingQuad(
        a0=ModulationSetting(quad.a0.amplitude, quad.a0.phase + shift),
        a1=ModulationSetting(quad.a1.amplitude, quad.a1.phase + shift),
        b0=ModulationSetting(quad.b0.amplitude, quad.b0.phase + shift),
        b1=ModulationSetting(quad.b1.amplitude, quad.b1.phase + shift))


class TestChshIdeal:
    def test_zero_modulation_gives_classical_bound(self):
        report = chsh_ideal(zero_quad())
        assert report.correlators == (1.0, 1.0, 1.0, 1.0)
        assert report.s_value == 2.0

    def test_known_optimum(self):
        report = chsh_ideal(chsh_optimal_quad())
        for value in report.correlators[:3]:
            assert abs(value - 0.796) <= 5e-4
        assert abs(report.correlators[3] - (-0.178)) <= 5e-4
        assert abs(report.s_value - 2.566) <= 1e-3

    def test_gauge_invariance_of_s(self):
        base = chsh_ideal(chsh_optimal_quad())
        for shift in (0.3, 1.7, math.pi, 5.9):
            shifted = chsh_ideal(shifted_quad(chsh_optimal_quad(), shift))
            assert abs(shifted.s_value - base.s_value) <= 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a0, a1, b0, b1 = (ModulationSetting(float(rng.uniform(0, 1.5)),
                                                float(rng.uniform(0, 2 * math.pi)))
                              for _ in range(4))
            direct = chsh_ideal(SettingQuad(a0=a0, a1=a1, b0=b0, b1=b1))
            swapped = chsh_ideal(SettingQuad(a0=b0, a1=b1, b0=a0, b1=a1))
            assert abs(direct.s_value - swapped.s_value) < 1e-12

    def test_sampled_global_bound(self):
        # numerical support for the claimed maximality of 2.566 (sampled, not a proof)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100_000):
            amplitudes = rng.uniform(0.0, 1.5, 4)
            phases = rng.uniform(0.0, 2 * math.pi, 4)
            quad = SettingQuad(
                a0=ModulationSetting(amplitudes[0], phases[0]),
                a1=ModulationSetting(amplitudes[1], phases[1]),
                b0=ModulationSetting(amplitudes[2], phases[2]),
                b1=ModulationSetting(amplitudes[3], phases[3]))
            report = chsh_ideal(quad)
            assert abs(report.s_value) <= 4.0
            worst = max(worst, report.s_value)
        assert worst <= S_MAX_THEORY + 1e-6


class TestChshReport:
    def test_s_value_derives_from_the_correlators(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            e00, e01, e10, e11 = (float(e) for e in rng.uniform(-1.0, 1.0, 4))
            report = ChshReport((e00, e01, e10, e11), (0.1, 0.2, 0.3, 0.4))
            assert report.s_value == e00 + e01 + e10 - e11

    @pytest.mark.parametrize("correlators", [(1.1, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, -1.1),
                                             (math.nan, 0.0, 0.0, 0.0)])
    def test_correlator_outside_unit_interval_rejected(self, correlators):
        with pytest.raises(InvalidInputError, match="correlators outside"):
            ChshReport(correlators, (0.0, 0.0, 0.0, 0.0))


class TestOptimizeSymmetric:
    def test_locates_known_optimum(self):
        c_star, s_star = optimize_symmetric((0.0, 0.5), 1e-6)
        assert abs(c_star - 0.2318) <= 1e-3
        assert abs(s_star - 2.566) <= 1e-3

    def test_endpoint_value(self):
        assert symmetric_chsh(0.0) == 2.0

    def test_consistent_with_assembled_quad(self):
        c_star, s_star = optimize_symmetric((0.0, 0.5), 1e-6)
        report = chsh_ideal(symmetric_quad(c_star))
        assert abs(report.s_value - s_star) <= 1e-9
        ds = report.drives
        assert abs(ds[3] - 3 * ds[0]) < 1e-12

    def test_stable_under_interval_perturbation(self):
        c_a, _ = optimize_symmetric((0.0, 0.5), 1e-6)
        c_b, _ = optimize_symmetric((0.01, 0.48), 1e-6)
        assert abs(c_a - c_b) <= 1e-4

    def test_boundary_maximum_is_an_error(self):
        with pytest.raises(OptimizationError):
            optimize_symmetric((0.0, 0.001), 1e-6)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            optimize_symmetric((0.0, 1.2), 1e-6)
        with pytest.raises(InvalidInputError):
            optimize_symmetric((0.0, 0.5), 1e-7)

    @pytest.mark.parametrize("interval, tolerance", [((0.0, 0.5), 0.125), ((0.0, 0.5), 0.2),
                                                     ((0.0, 0.5), 1e308), ((0.2, 0.3), 0.025)])
    def test_tolerance_past_a_quarter_of_the_interval_rejected(self, interval, tolerance,
                                                               monkeypatch):
        # no c could lie more than 2 * tolerance inside both ends, so every search would
        # end in "no interior maximum" at an interior c
        import scipy.optimize

        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(scipy.optimize, "minimize_scalar", no_search)
        with pytest.raises(InvalidInputError, match=r"below \(hi - lo\)/4"):
            optimize_symmetric(interval, tolerance)

    def test_tolerance_just_below_a_quarter_of_the_interval_searches(self):
        c_star, _ = optimize_symmetric((0.0, 0.5), 0.1)
        assert 0.2 < c_star < 0.3


class TestOptimizeGeneral:
    def test_multistart_escapes_zero_ridge(self):
        quad, report = optimize_general(1.5, restarts=20, seed=11)
        assert report.s_value >= S_MAX_THEORY - 1e-3
        ds = report.drives
        for d in ds[:3]:
            assert abs(d - 0.4637) <= 2e-3
        assert abs(ds[3] / ds[0] - 3.0) <= 1e-2
        assert quad.a0.phase == 0.0  # gauge fixed

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            optimize_general(0.5, 5, 0)
        with pytest.raises(InvalidInputError):
            optimize_general(1.5, 0, 0)

    @pytest.mark.parametrize("restarts, seed", [(5, -1), (5, 1.5), (2.5, 0), (True, 0),
                                                 (5, True), (5, "3"), ("5", 0)])
    def test_restarts_and_seed_must_be_integers(self, restarts, seed):
        # library callers get the checks the CLI's argparse types and RunConfig give
        with pytest.raises(InvalidInputError):
            optimize_general(1.5, restarts, seed)

    def test_restarts_past_the_bound_rejected_before_any_solve(self, monkeypatch):
        from freqbin import bell

        def no_solve(*args, **kwargs):
            raise AssertionError("a restart ran past the bound")
        monkeypatch.setattr(bell, "_lbfgsb_lockstep", no_solve)
        with pytest.raises(InvalidInputError, match=f"at most {bell.MAX_RESTARTS}"):
            optimize_general(1.5, bell.MAX_RESTARTS + 1, 0)

    def test_numpy_integers_accepted(self):
        quad, _ = optimize_general(1.5, np.int64(1), np.int64(3))
        assert quad == optimize_general(1.5, 1, 3)[0]


def quad_from_vector(x):
    return SettingQuad(*(ModulationSetting(x[k], x[k + 4]) for k in range(4)))


def scalar_neg_chsh_and_gradient(x):
    """The bitwise oracle for a row of _neg_chsh_and_gradients: its formula on Python floats.

    Each pair has D^2 = a^2 + b^2 + 2ab cos(alpha - beta) and E = J_0(2D), so
    dE/d(D^2) = -J_1(2D)/D, which tends to -1 as D -> 0.
    """
    from scipy.special import j0, j1
    v = x.tolist()
    s = 0.0
    grad = [0.0] * 8
    for sign, (i, j) in zip((1.0, 1.0, 1.0, -1.0), ((0, 2), (0, 3), (1, 2), (1, 3))):
        a, b, diff = v[i], v[j], v[i + 4] - v[j + 4]
        cos_diff = math.cos(diff)
        d = math.sqrt(max(a * a + b * b + 2.0 * a * b * cos_diff, 0.0))
        s += sign * float(j0(2.0 * d))
        slope = sign * (-float(j1(2.0 * d)) / d if d else -1.0)  # sign * dE/d(D^2)
        grad[i] += 2.0 * slope * (a + b * cos_diff)
        grad[j] += 2.0 * slope * (b + a * cos_diff)
        phase_term = 2.0 * slope * a * b * math.sin(diff)
        grad[i + 4] -= phase_term
        grad[j + 4] += phase_term
    return -s, -np.array(grad)


def one_row_objective(x):
    """-S and its gradient at one point, as minimize(jac=True) takes them."""
    value, gradient = _neg_chsh_and_gradients(x[None, :])
    return value[0], gradient[0]


def central_gradients(points, step=1e-6):
    """Central differences of -S along each coordinate at each row of points."""
    shifts = step * np.eye(8)
    return np.stack([(_neg_chsh_and_gradients(points + shift)[0]
                      - _neg_chsh_and_gradients(points - shift)[0]) / (2 * step)
                     for shift in shifts], axis=1)


def random_points(count, seed):
    """Amplitudes on [0, 1.5] and phases on the search box's [-2 pi, 4 pi]."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(0.0, 1.5, (count, 4)),
                           rng.uniform(-2 * math.pi, 4 * math.pi, (count, 4))], axis=1)


def edge_points(seed):
    """Points where D = 0 for every pair, D00 = D11 = 0 only, or every amplitude is on the bound."""
    rng = np.random.default_rng(seed)
    on_bound = np.concatenate([np.full((20, 4), 1.5), rng.uniform(0.0, 2 * math.pi, (20, 4))],
                              axis=1)
    return np.concatenate([np.zeros((1, 8)),
                           [[0.4, 0.4, 0.4, 0.4, 0.0, math.pi, math.pi, 0.0]],
                           [[0.0, 0.7, 0.0, 0.3, 1.0, 2.0, 3.0, 4.0]],  # a0 = b0 = 0: D00 = 0
                           on_bound])


# the minimize options each optimize_general solve must reproduce bit for bit
LBFGSB_OPTIONS = {"ftol": 1e-15, "gtol": 1e-11, "maxiter": 1000}
# optimize_general's box at bound 1.5: amplitudes on [0, 1.5], phases on [-2 pi, 4 pi]
BOX_LOWER = np.array([0.0] * 4 + [-2.0 * math.pi] * 4)
BOX_UPPER = np.array([1.5] * 4 + [4.0 * math.pi] * 4)


@dataclass(frozen=True)
class RecordedSolve:
    x0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    fun: float
    x: np.ndarray
    iterations: int
    evaluations: int
    stop: tuple[int, int]  # setulb's last task: 4 converged, 5 stopped at a cap, else abnormal

    @property
    def status(self) -> int:
        """minimize's status for this stop: 0 converged, 1 at a cap, 2 otherwise."""
        return {4: 0, 5: 1}.get(self.stop[0], 2)


@dataclass
class SearchRecord:
    solves: list  # a RecordedSolve per restart of every search, in restart order
    rounds: list  # per objective call of the last search, the restarts it evaluated


@pytest.fixture
def search_record(monkeypatch):
    """Records every bell._lbfgsb_lockstep search from here on.

    Counted outside the driver: iterations are setulb's new-iterate requests
    (task 1), as minimize's nit counts them, and a restart's evaluations are
    the objective calls that carry its point. setulb moves row k of the
    driver's array of points for restart k, which names the restart of each
    setulb call. A restart asks for a point when its last setulb task is 3 and
    its point differs from the last one evaluated for it; each objective call
    must carry exactly the asking restarts' points, in restart order.
    """
    import scipy.optimize._lbfgsb as lbfgsb
    from freqbin import bell
    driver, step, objective = bell._lbfgsb_lockstep, lbfgsb.setulb, bell._neg_chsh_and_gradients
    record = SearchRecord([], [])
    search = {"active": False}

    def counting_step(*args):
        step(*args)
        if not search["active"]:  # a reference minimize call
            return
        point = args[1]
        points = search["points"] = point.base
        k = (point.ctypes.data - points.ctypes.data) // points.strides[0]
        task = args[11]
        search["iterations"][k] = search["iterations"].get(k, 0) + int(task[0] == 1)
        search["stop"][k] = (int(task[0]), int(task[1]))

    def counting_objective(x):
        points, evaluated = search["points"], search["evaluated"]
        asking = [k for k in sorted(search["stop"])
                  if search["stop"][k][0] == 3 and points[k].tobytes() != evaluated.get(k)]
        assert x.tobytes() == points[asking].tobytes()
        for k in asking:
            evaluated[k] = points[k].tobytes()
            search["evaluations"][k] = search["evaluations"].get(k, 0) + 1
        record.rounds.append(asking)
        return objective(x)

    def recording_driver(objective, starts, lower, upper):
        search.update(iterations={}, evaluations={}, stop={}, evaluated={}, active=True)
        record.rounds.clear()
        funs, ends = driver(objective, starts, lower, upper)
        search["active"] = False
        for k, x0 in enumerate(starts):
            record.solves.append(RecordedSolve(
                x0.copy(), lower.copy(), upper.copy(), float(funs[k]), ends[k].copy(),
                search["iterations"][k], search["evaluations"].get(k, 0), search["stop"][k]))
        return funs, ends
    monkeypatch.setattr(lbfgsb, "setulb", counting_step)
    monkeypatch.setattr(bell, "_neg_chsh_and_gradients", counting_objective)
    monkeypatch.setattr(bell, "_lbfgsb_lockstep", recording_driver)
    return record


@pytest.fixture
def recorded_solves(search_record):
    """The RecordedSolve of every restart of every search from here on."""
    return search_record.solves


def assert_is_the_minimize_solve(solve, options):
    """solve must be bitwise the public scipy.optimize.minimize solve from its start."""
    from scipy.optimize import Bounds, minimize
    reference = minimize(one_row_objective, solve.x0, jac=True, method="L-BFGS-B",
                         bounds=Bounds(solve.lower, solve.upper), options=options)
    assert solve.x.tobytes() == reference.x.tobytes()
    assert np.float64(solve.fun).tobytes() == np.float64(reference.fun).tobytes()
    assert (solve.iterations, solve.evaluations, solve.status) == \
        (reference.nit, reference.nfev, reference.status)


class TestGradientSearch:
    """The analytic -S and -dS/dx that optimize_general's L-BFGS-B runs on."""

    @pytest.mark.parametrize("rows", [1, 7, 20, 10_000])
    def test_each_row_is_the_scalar_formula_bitwise(self, rows):
        # random points with the edge cases mixed in: D = 0 rows take the D -> 0 limit
        # next to rows that divide, so both meet the oracle in one batch
        points = np.concatenate([edge_points(rows), random_points(rows, rows)])
        points = points[np.random.default_rng(rows + 1).permutation(len(points))]
        for batch in (points[k:k + rows] for k in range(0, len(points), rows)):
            values, gradients = _neg_chsh_and_gradients(batch)
            assert gradients.shape == batch.shape
            for x, value, gradient in zip(batch, values, gradients):
                expected_value, expected_gradient = scalar_neg_chsh_and_gradient(x)
                assert np.float64(expected_value).tobytes() == value.tobytes()
                assert expected_gradient.tobytes() == gradient.tobytes()

    def test_a_row_does_not_depend_on_its_batch(self):
        points = np.concatenate([edge_points(3), random_points(200, 4)])
        values, gradients = _neg_chsh_and_gradients(points)
        order = np.random.default_rng(5).permutation(len(points))
        shuffled_values, shuffled_gradients = _neg_chsh_and_gradients(points[order])
        assert shuffled_values.tobytes() == values[order].tobytes()
        assert shuffled_gradients.tobytes() == gradients[order].tobytes()
        for k in (0, 1, 2, 50):  # a row alone
            value, gradient = _neg_chsh_and_gradients(points[k:k + 1])
            assert value.tobytes() == values[k:k + 1].tobytes()
            assert gradient.tobytes() == gradients[k:k + 1].tobytes()

    def test_gradient_matches_central_differences(self):
        points = np.concatenate([random_points(200, 17), edge_points(18)])
        _, gradients = _neg_chsh_and_gradients(points)
        assert np.max(np.abs(gradients - central_gradients(points)), axis=1).max() < 1e-7

    def test_objective_is_minus_chsh_ideal(self):
        points = random_points(500, 19)
        values, _ = _neg_chsh_and_gradients(points)
        for x, value in zip(points, values):
            assert abs(value + chsh_ideal(quad_from_vector(x)).s_value) <= 1e-14

    def test_same_seed_same_quad(self):
        first = optimize_general(1.5, restarts=5, seed=42)
        second = optimize_general(1.5, restarts=5, seed=42)
        assert first == second

    def test_every_seed_reaches_the_optimum(self):
        # starts drawn on [0, bound] missed S* on 2 and 40 of 40 seeds at bounds 3 and 12.5
        for bound in (1.5, 3.0, 12.5):
            for seed in range(20):
                quad, report = optimize_general(bound, restarts=20, seed=seed)
                assert abs(report.s_value - S_STAR) <= 1e-9, (bound, seed)
                ds = report.drives
                assert abs(ds[3] / ds[0] - 3.0) <= 1e-2
                assert quad.a0.phase == 0.0

    def test_reports_the_first_restart_tied_with_the_best(self, recorded_solves):
        # restarts that reach S* tie to ~1e-15, so ranking them by -S alone
        # would let the objective's last bits choose the reported quad
        for seed in range(5):
            recorded_solves.clear()
            quad, _ = optimize_general(1.5, restarts=20, seed=seed)
            assert len(recorded_solves) == 20
            lowest = min(solve.fun for solve in recorded_solves)
            first = next(solve for solve in recorded_solves if solve.fun <= lowest + 1e-12)
            assert quad == quad_from_vector(np.concatenate([first.x[:4], first.x[4:] - first.x[4]]))

    def test_each_restart_starts_at_its_own_draws(self, recorded_solves):
        # the start stream: after the zero quad, each restart draws its 4
        # amplitudes on [0, min(bound, 1.5)], then its 4 phases on [0, 2 pi)
        for bound in (1.5, 12.5):
            for seed in range(5):
                recorded_solves.clear()
                optimize_general(bound, restarts=20, seed=seed)
                rng = np.random.default_rng(seed)
                assert recorded_solves[0].x0.tobytes() == np.zeros(8).tobytes()
                for solve in recorded_solves[1:]:
                    drawn = np.concatenate([rng.uniform(0.0, min(bound, 1.5), 4),
                                            rng.uniform(0.0, 2.0 * np.pi, 4)])
                    assert solve.x0.tobytes() == drawn.tobytes(), (bound, seed)

    @pytest.mark.parametrize("bound", [1.5, 3.0, 12.5])
    def test_one_evaluation_per_point_matches_the_jac_true_solve(self, bound, recorded_solves):
        # each solve drives setulb itself: it must be bitwise the solve the public
        # minimize(jac=True) gives, with one objective call per point (nfev)
        for seed in (0, 1, 2):
            recorded_solves.clear()
            optimize_general(bound, restarts=20, seed=seed)
            assert len(recorded_solves) == 20
            for solve in recorded_solves:
                assert_is_the_minimize_solve(solve, LBFGSB_OPTIONS)
            # start 6 of seed 2 ends in an abnormal line search above bound 1.5
            abnormal = [solve.status == 2 for solve in recorded_solves]
            assert abnormal == [seed == 2 and bound > 1.5 and k == 6 for k in range(20)]

    def test_start_outside_the_box_gives_the_minimize_solve(self, recorded_solves):
        # minimize clips a start outside the box into it, and so must the driver
        from freqbin import bell
        outside = np.array([[2.0, 0.3, 0.5, 0.7, -7.0, 13.0, 1.0, 20.0]])
        bell._lbfgsb_lockstep(bell._neg_chsh_and_gradients, outside, BOX_LOWER, BOX_UPPER)
        assert_is_the_minimize_solve(recorded_solves[0], LBFGSB_OPTIONS)

    def test_each_restart_hands_setulb_a_start_inside_the_box(self, monkeypatch):
        # scipy 1.17's setulb projects x0 into the box itself, so the solve alone
        # cannot show whether the driver clips the starts as minimize does
        import scipy.optimize._lbfgsb as lbfgsb
        from freqbin import bell
        step, first_points = lbfgsb.setulb, {}

        def checking_step(*args):
            point = args[1]  # row k of the driver's points for restart k
            k = (point.ctypes.data - point.base.ctypes.data) // point.base.strides[0]
            first_points.setdefault(k, point.copy())
            step(*args)
        monkeypatch.setattr(lbfgsb, "setulb", checking_step)
        starts = np.random.default_rng(4).uniform(-4.0 * math.pi, 6.0 * math.pi, (7, 8))
        assert np.all(np.any((starts < BOX_LOWER) | (starts > BOX_UPPER), axis=1))
        bell._lbfgsb_lockstep(bell._neg_chsh_and_gradients, starts, BOX_LOWER, BOX_UPPER)
        assert sorted(first_points) == list(range(7))
        for k, point in first_points.items():
            assert point.tobytes() == np.clip(starts[k], BOX_LOWER, BOX_UPPER).tobytes()

    def test_one_objective_call_per_round(self, search_record):
        # each round steps every live restart to its next new point and evaluates
        # them all in one call, whose rows the fixture checks are the asking
        # restarts' points in restart order: a restart with E evaluations is in
        # the first E rounds, and the search makes as many calls as its longest
        # restart makes evaluations
        for seed in range(3):
            search_record.solves.clear()
            optimize_general(1.5, restarts=20, seed=seed)
            evaluations = [solve.evaluations for solve in search_record.solves]
            assert len(search_record.rounds) == max(evaluations)
            for r, asking in enumerate(search_record.rounds):
                assert asking == [k for k in range(20) if evaluations[k] > r]

    def test_restarts_past_the_lockstep_width_wait_for_a_free_slot(self, search_record,
                                                                     monkeypatch):
        # past _LOCKSTEP_WIDTH restarts, a start enters only as a live restart stops;
        # at width 3, 20 restarts must each give the solve they give all live at once,
        # in restart order, and the search the same quad and S to the last bit
        from freqbin import bell
        full = optimize_general(3.0, restarts=20, seed=2)
        all_live = list(search_record.solves)
        search_record.solves.clear()
        monkeypatch.setattr(bell, "_LOCKSTEP_WIDTH", 3)
        narrow = optimize_general(3.0, restarts=20, seed=2)
        assert repr(narrow) == repr(full)
        assert len(search_record.solves) == 20
        for solve, reference in zip(search_record.solves, all_live):
            assert solve.x0.tobytes() == reference.x0.tobytes()
            assert solve.x.tobytes() == reference.x.tobytes()
            assert np.float64(solve.fun).tobytes() == np.float64(reference.fun).tobytes()
            assert (solve.iterations, solve.evaluations, solve.stop) == \
                (reference.iterations, reference.evaluations, reference.stop)
            assert_is_the_minimize_solve(solve, LBFGSB_OPTIONS)
        # each round carries the live restarts that have not stopped: a restart with
        # E evaluations asks in E rounds, stops in the next, and its slot refills after
        evaluations = [solve.evaluations for solve in search_record.solves]
        rounds, live, done = [], [], [0] * 20
        pending = iter(range(20))
        while True:
            live = [*live, *itertools.islice(pending, 3 - len(live))]
            if not live:
                break
            live = [k for k in live if done[k] < evaluations[k]]
            if live:
                rounds.append(live)
                for k in live:
                    done[k] += 1
        assert search_record.rounds == rounds
        assert max(map(len, rounds)) == 3 and sum(map(len, rounds)) == sum(evaluations)

    @pytest.mark.parametrize("cap, option, stop", [("_LBFGSB_MAX_ITERATIONS", "maxiter", 504),
                                                    ("_LBFGSB_MAX_EVALUATIONS", "maxfun", 502)])
    def test_caps_stop_as_minimize_does(self, cap, option, stop, recorded_solves, monkeypatch):
        # no seeded search reaches the caps of 1000 iterations and 15000 evaluations,
        # so lower caps pin both stops against minimize given the same option
        from freqbin import bell
        monkeypatch.setattr(bell, cap, 5)
        optimize_general(1.5, restarts=20, seed=0)
        assert sum(solve.stop == (5, stop) for solve in recorded_solves) >= 10
        for solve in recorded_solves:
            assert_is_the_minimize_solve(solve, {**LBFGSB_OPTIONS, option: 5})

    def test_amplitude_bound_outside_bessel_domain_rejected(self):
        for bound in (math.nan, math.inf, 20.0, 12.6):
            with pytest.raises(InvalidInputError):
                optimize_general(bound, 2, 0)
        quad, _ = optimize_general(12.5, 2, 0)  # 2D <= 50 everywhere
        assert max(s.amplitude for s in (quad.a0, quad.a1, quad.b0, quad.b1)) <= 12.5


class TestChshFinite:
    def test_zero_quad_classical_value(self):
        report = chsh_finite(zero_quad(), range(1, 7))
        assert abs(report.s_value - 2.0) < 1e-12

    def test_six_bin_golden(self, golden):
        report = chsh_finite(chsh_optimal_quad(), range(1, 7))
        assert abs(report.s_value - golden["finite_6bin_s"]) <= 1e-9
        for value, frozen in zip(report.correlators, golden["finite_6bin_correlators"]):
            assert abs(value - frozen) <= 1e-9
        assert 2.0 < report.s_value < S_MAX_THEORY

    def test_41_bin_golden_and_gap_to_ideal(self, golden):
        # The sharp 41-bin window sits ~0.021 below the closed-form S; the gap
        # shrinks like 1/K (see TestConvergenceToClosedForm in test_binspace).
        report = chsh_finite(chsh_optimal_quad(), range(-20, 21))
        assert abs(report.s_value - golden["finite_41bin_s"]) <= 1e-9
        assert 2.0 < report.s_value < S_MAX_THEORY
        assert abs(report.s_value - S_MAX_THEORY) < 0.05

    def test_crosstalk_scales_finite_correlators(self):
        clean = chsh_finite(chsh_optimal_quad(), range(1, 7))
        noisy = chsh_finite(chsh_optimal_quad(), range(1, 7),
                            model=MeasurementModel(crosstalk=0.03))
        for e_clean, e_noisy in zip(clean.correlators, noisy.correlators):
            assert abs(e_noisy - (1 - 2 * 0.03) ** 2 * e_clean) < 1e-12

    def test_input_errors(self):
        quad = chsh_optimal_quad()
        with pytest.raises(InvalidInputError):
            chsh_finite(quad, [])
        with pytest.raises(InvalidInputError):
            chsh_finite(quad, [1, 2, 2])
        for override in (9, 3):  # outside the A window [1, 6], then the B window [-6, -1]
            with pytest.raises(InvalidInputError):
                chsh_finite(quad, range(1, 7), dispersion=DispersionProfile(0.0, {override: 0.1}))
        # the banded engine bounds the window width at MAX_BINS = 10**6 bins
        with pytest.raises(WindowBoundError):
            chsh_finite(quad, [-600_000, 600_000])

    def test_gauge_invariance(self):
        base = chsh_finite(chsh_optimal_quad(), range(1, 7))
        shifted = chsh_finite(shifted_quad(chsh_optimal_quad(), 1.234), range(1, 7))
        assert abs(base.s_value - shifted.s_value) <= 1e-10
