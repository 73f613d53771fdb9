"""Finite-bin state simulation: modulators, dispersion, parity, phase states."""

import cmath
import math
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbin import (BesselDomainError, BinWindow, DispersionProfile, InvalidInputError,
                     MeasurementModel, ModulationSetting, ProbabilitySumError, ProbTable,
                     SettingQuad, TruncationPolicy, TwoPhotonState, WindowBoundError,
                     apply_crosstalk, apply_dispersion, apply_modulator, bessel_j, chsh_finite,
                     chsh_ideal, chsh_optimal_quad, correlated_state, effective_drive,
                     ideal_probabilities, modulation_kernel, parity_probabilities, parity_tables)
from freqbin import binspace
from freqbin.params import MAX_BINS

POLICY = TruncationPolicy()


def phase_state(varphi, window):
    """Truncated translation eigenvector with entry e^{i n varphi} / sqrt(2 pi) at bin n.

    Unnormalized; sharp truncation corrupts the window edges, so checks use
    interior entries only.
    """
    if window.width < 3:
        raise InvalidInputError("phase-state window must span at least 3 bins")
    n = np.arange(window.min_bin, window.max_bin + 1)
    return np.exp(1j * n * varphi) / math.sqrt(2.0 * math.pi)


def random_state(rng):
    """A random complex table over random windows."""
    lo_a, lo_b = (int(v) for v in rng.integers(-6, 6, size=2))
    width_a, width_b = (int(v) for v in rng.integers(1, 7, size=2))
    amp = rng.normal(size=(width_a, width_b)) + 1j * rng.normal(size=(width_a, width_b))
    return TwoPhotonState(BinWindow(lo_a, lo_a + width_a - 1), BinWindow(lo_b, lo_b + width_b - 1), amp)


def transposed(state):
    """The state with Alice and Bob exchanged, built directly from its fields."""
    return TwoPhotonState(state.window_b, state.window_a, state.amplitudes.T.copy())


def assert_same_state(got, expected):
    """Windows and amplitudes bitwise equal."""
    assert (got.window_a, got.window_b) == (expected.window_a, expected.window_b)
    assert np.array_equal(got.amplitudes.view(np.float64), expected.amplitudes.view(np.float64))


def product_state(m, n):
    return TwoPhotonState(BinWindow(m, m), BinWindow(n, n),
                          np.ones((1, 1), dtype=complex))


def embed(state, window_a, window_b):
    """Zero-pad the amplitude table onto larger windows."""
    out = np.zeros((window_a.width, window_b.width), dtype=complex)
    ia = state.window_a.min_bin - window_a.min_bin
    ib = state.window_b.min_bin - window_b.min_bin
    out[ia:ia + state.window_a.width, ib:ib + state.window_b.width] = state.amplitudes
    return out


class TestCorrelatedState:
    def test_six_bin_state(self):
        state = correlated_state(range(1, 7))
        assert state.window_a == BinWindow(1, 6)
        assert state.window_b == BinWindow(-6, -1)
        for n in range(1, 7):
            assert abs(state.amplitude(n, -n) - 1 / math.sqrt(6)) < 1e-15
        assert abs(state.norm - 1.0) < 1e-12

    def test_single_bin_product(self):
        state = correlated_state([0])
        assert state.amplitude(0, 0) == 1.0
        assert abs(state.norm - 1.0) < 1e-15

    def test_41_bin_parity_before_modulation(self):
        # parity of n equals parity of -n, so the cross outcomes vanish exactly;
        # the EE/OO split is 21/41 vs 20/41 because the window holds one more
        # even bin (equal halves only for parity-balanced windows)
        state = correlated_state(range(-20, 21))
        table = parity_probabilities(state)
        assert table.p_eo == 0.0
        assert table.p_oe == 0.0
        assert abs(table.p_ee - 21 / 41) < 1e-12
        assert abs(table.p_oo - 20 / 41) < 1e-12
        assert abs(table.p_ee - 0.5) <= 0.5 / 41 + 1e-15

    def test_balanced_window_parity_before_modulation(self):
        table = parity_probabilities(correlated_state(range(-20, 20)))
        assert abs(table.p_ee - 0.5) < 1e-12
        assert table.p_eo == 0.0
        assert table.p_oe == 0.0
        assert abs(table.p_oo - 0.5) < 1e-12

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            correlated_state([1, 2, 2])
        with pytest.raises(InvalidInputError):
            correlated_state([])

    @pytest.mark.parametrize("bins, bad", [
        ([0.5, 1.5], "0.5"), ([1.7, 2.9, 3.2, 4.0, 5.5, 6.1], "1.7"), ([1, 2.0], "2.0"),
        (["1", "2", "3", "4", "5", "6"], "'1'"), ([True, 2, 3, 4, 5, 6], "True"), ([False, 1], "False"),
        ([np.True_, 2], "True"), ([1, None], "None"), ("12", "'1'"), (dict.fromkeys([0.5, 1.5]), "0.5"),
    ])
    @pytest.mark.parametrize("reader", [correlated_state,
                                        lambda bins: chsh_finite(chsh_optimal_quad(), bins)])
    def test_non_integer_bins_rejected(self, reader, bins, bad):
        # [0.5, 1.5] once built the window [0, 1], and the six-bin lists of floats,
        # strings and a bool gave chsh_finite's bins 1..6 value 2.422691202273197
        with pytest.raises(InvalidInputError, match=f"bins must be integers, got .*{bad}"):
            reader(bins)

    def test_integer_bins_of_any_kind_accepted(self):
        want = correlated_state(range(-1, 3))
        for bins in ([-1, 0, 1, 2], np.arange(-1, 3), [np.int32(-1), np.int64(0), np.uint8(1), 2],
                     [np.int64(-1), np.uint64(0), np.int64(1), np.uint64(2)],  # int64 + uint64 is float64
                     (n for n in range(-1, 3)), {2, 1, 0, -1}):
            got = correlated_state(bins)
            assert got.window_a == want.window_a
            assert np.array_equal(got.amplitudes, want.amplitudes)
        assert len(parity_tables(range(2**63 - 2, 2**63), [])) == 0

    def test_numpy_bins_whose_sum_passes_int64_read_without_a_warning(self):
        # a sum of the bins once checked their types, and numpy's scalar add wrapped with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(parity_tables(np.array([2**62, 2**62 + 1]), [])) == 0

    @pytest.mark.parametrize("amplitudes, message", [
        (np.zeros((1, 1)), "does not match windows"),
    ])
    def test_state_checks_its_table(self, amplitudes, message):
        with pytest.raises(InvalidInputError, match=message):
            TwoPhotonState(BinWindow(0, 1), BinWindow(0, 1), amplitudes)

    def test_unsorted_bins(self):
        state = correlated_state([4, -2, 1])
        assert state.window_a == BinWindow(-2, 4)
        for n in (4, -2, 1):
            assert abs(state.amplitude(n, -n) - 1 / math.sqrt(3)) < 1e-15
        assert abs(state.norm - 1.0) < 1e-15


class TestApplyModulator:
    def test_zero_amplitude_is_identity(self):
        state = correlated_state(range(1, 7))
        out = apply_modulator(state, "A", ModulationSetting(0.0, 1.234))
        assert out.window_a == state.window_a
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_kernel_readoff_on_product_state(self):
        c, gamma = 0.9, 1.1
        out = apply_modulator(product_state(0, 0), "A", ModulationSetting(c, gamma))
        for p in range(-out.window_a.width // 2 + 1, out.window_a.width // 2):
            expected = bessel_j(p, c) * cmath.exp(1j * p * (gamma - math.pi / 2))
            assert abs(out.amplitude(p, 0) - expected) < 1e-14

    def test_kernel_weights_match_bessel(self):
        offsets, weights = modulation_kernel(ModulationSetting(0.6955, 0.4))
        for p, w in zip(offsets, weights):
            expected = bessel_j(int(p), 0.6955) * cmath.exp(1j * p * (0.4 - math.pi / 2))
            assert abs(w - expected) < 1e-15

    def test_norm_conserved_without_clipping(self):
        state = correlated_state(range(-3, 4))
        out = apply_modulator(state, "B", ModulationSetting(1.2, 0.3))
        assert abs(out.norm - 1.0) <= 1e-10

    def test_window_bound_error(self):
        state = correlated_state(range(-3, 4))
        with pytest.raises(WindowBoundError):
            apply_modulator(state, "A", ModulationSetting(1.0, 0.0), bin_bound=5)

    def test_bad_arm_rejected(self):
        with pytest.raises(InvalidInputError):
            apply_modulator(correlated_state([0]), "C", ModulationSetting(0.1, 0.0))

    def test_bad_arm_rejected_before_the_kernel_is_built(self):
        # ModulationSetting(60.0) alone raises BesselDomainError past the default max_order
        with pytest.raises(BesselDomainError):
            apply_modulator(correlated_state([0]), "A", ModulationSetting(60.0))
        with pytest.raises(InvalidInputError, match="^arm must be 'A' or 'B', got 'C'$"):
            apply_modulator(correlated_state([0]), "C", ModulationSetting(60.0))

    def test_arm_commutation(self):
        state = correlated_state(range(1, 7))
        sa = ModulationSetting(0.47, 0.9)
        sb = ModulationSetting(0.81, 2.2)
        ab = apply_modulator(apply_modulator(state, "A", sa), "B", sb)
        ba = apply_modulator(apply_modulator(state, "B", sb), "A", sa)
        assert ab.window_a == ba.window_a and ab.window_b == ba.window_b
        assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) <= 1e-12

    def test_arm_b_is_arm_a_of_the_transposed_state_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            state = random_state(rng)
            setting = ModulationSetting(float(rng.uniform(0, 1.5)),
                                        float(rng.uniform(0, 2 * math.pi)))
            on_b = apply_modulator(state, "B", setting)
            on_a = transposed(apply_modulator(transposed(state), "A", setting))
            assert_same_state(on_b, on_a)

    def test_composition_of_equal_phase_modulations(self):
        state = correlated_state(range(-2, 3))
        gamma = 0.77
        two_step = apply_modulator(apply_modulator(state, "A", ModulationSetting(0.30, gamma)),
                                   "A", ModulationSetting(0.45, gamma))
        one_step = apply_modulator(state, "A", ModulationSetting(0.75, gamma))
        wa = two_step.window_a
        gap = np.max(np.abs(embed(two_step, wa, two_step.window_b)
                            - embed(one_step, wa, one_step.window_b)))
        assert gap <= 2.0 * POLICY.epsilon

    def test_translation_covariance(self):
        setting = ModulationSetting(0.83, 1.9)
        shifted_in = apply_modulator(product_state(5, 0), "A", setting)
        base = apply_modulator(product_state(0, 0), "A", setting)
        assert shifted_in.window_a.min_bin == base.window_a.min_bin + 5
        assert np.max(np.abs(shifted_in.amplitudes - base.amplitudes)) <= 1e-14

    def test_norm_conservation_random_sequences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n_bins = int(rng.integers(1, 8))
            bins = rng.choice(np.arange(-6, 7), size=n_bins, replace=False)
            state = correlated_state([int(b) for b in bins])
            for _ in range(int(rng.integers(1, 5))):
                arm = "A" if rng.random() < 0.5 else "B"
                setting = ModulationSetting(float(rng.uniform(0, 1.2)),
                                            float(rng.uniform(0, 2 * math.pi)))
                state = apply_modulator(state, arm, setting)
            assert abs(state.norm - 1.0) <= 1e-10


class TestApplyDispersion:
    def test_zero_profile_identity(self):
        state = correlated_state(range(1, 7))
        out = apply_dispersion(state, DispersionProfile(), "A")
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_override_flips_one_column(self):
        state = correlated_state(range(1, 7))
        out = apply_dispersion(state, DispersionProfile(per_bin_overrides={2: math.pi}), "A")
        row = state.window_a.index(2)
        expected = state.amplitudes.copy()
        expected[row, :] *= -1.0
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-15

    def test_override_outside_window_rejected(self):
        state = correlated_state(range(1, 7))
        with pytest.raises(InvalidInputError):
            apply_dispersion(state, DispersionProfile(per_bin_overrides={9: 0.1}), "A")
        with pytest.raises(InvalidInputError, match=r"outside arm B window: \[2\]"):
            apply_dispersion(state, DispersionProfile(per_bin_overrides={2: 0.1}), "B")

    def test_bad_arm_rejected(self):
        with pytest.raises(InvalidInputError, match="arm must be 'A' or 'B', got 'C'"):
            apply_dispersion(correlated_state([0]), DispersionProfile(), "C")

    def test_bad_arm_rejected_before_the_overrides_are_checked(self):
        profile = DispersionProfile(0.0, {99: 1.0})
        with pytest.raises(InvalidInputError, match="outside arm A window"):
            apply_dispersion(correlated_state([0]), profile, "A")
        with pytest.raises(InvalidInputError, match="^arm must be 'A' or 'B', got 'C'$"):
            apply_dispersion(correlated_state([0]), profile, "C")

    def test_arm_b_is_arm_a_of_the_transposed_state_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            state = random_state(rng)
            override = int(rng.integers(state.window_b.min_bin, state.window_b.max_bin + 1))
            profile = DispersionProfile(quadratic_coefficient=float(rng.uniform(-0.5, 0.5)),
                                        per_bin_overrides={override: float(rng.uniform(-3, 3))})
            on_b = apply_dispersion(state, profile, "B")
            on_a = transposed(apply_dispersion(transposed(state), profile, "A"))
            assert_same_state(on_b, on_a)

    def test_quadratic_dispersion_degrades_visibility(self):
        def min_cross_probability(profile):
            base = correlated_state(range(1, 7))
            if profile is not None:
                base = apply_dispersion(base, profile, "A")
                base = apply_dispersion(base, profile, "B")
            state = apply_modulator(base, "A", ModulationSetting(0.6955, math.pi))
            state = apply_modulator(state, "B", ModulationSetting(0.6955, 0.0))
            return parity_probabilities(state).p_eo

        clean = min_cross_probability(None)
        dispersed = min_cross_probability(DispersionProfile(quadratic_coefficient=0.1))
        assert dispersed > clean

    def test_norm_unchanged(self):
        state = correlated_state(range(1, 7))
        out = apply_dispersion(state, DispersionProfile(quadratic_coefficient=0.3), "B")
        assert abs(out.norm - state.norm) < 1e-14


class TestParityProbabilities:
    def test_unmodulated_even_odd_only(self):
        table = parity_probabilities(correlated_state(range(1, 7)))
        assert abs(table.p_ee - 0.5) < 1e-12
        assert table.p_eo == 0.0
        assert table.p_oe == 0.0
        assert abs(table.p_oo - 0.5) < 1e-12

    def test_half_crosstalk_depolarizes(self):
        model = MeasurementModel(crosstalk=0.5)
        table = parity_probabilities(correlated_state(range(1, 7)), model)
        for p in table.as_tuple():
            assert abs(p - 0.25) < 1e-12

    def test_41_bin_drive_cancellation_leakage(self, golden):
        # Closed form gives exactly zero at D = 0; the sharp 41-bin window leaks
        # ~5e-3 into the cross outcomes (edge breakage, scales as 1/K).
        state = correlated_state(range(-20, 21))
        state = apply_modulator(state, "A", ModulationSetting(0.6955, 0.0))
        state = apply_modulator(state, "B", ModulationSetting(0.6955, math.pi))
        table = parity_probabilities(state)
        assert abs(table.p_eo - golden["finite_41bin_cancellation_p_eo"]) < 1e-12
        assert table.p_eo < 1e-2


class TestWindowSizeIndependence:
    def test_six_bin_tables_stable_once_window_covers_kernel(self):
        # The modulators widen the window by the full sideband reach, so the
        # run measures the intrinsic finite-bin deviation from closed form.
        sa = ModulationSetting(0.6955, 0.6)
        sb = ModulationSetting(0.6955, 2.8)
        wide = apply_modulator(correlated_state(range(1, 7)), "A", sa)
        wide = apply_modulator(wide, "B", sb)
        t_wide = parity_probabilities(wide)
        finite_dev = max(abs(a - b) for a, b in zip(
            t_wide.as_tuple(), ideal_probabilities(effective_drive(sa, sb)).as_tuple()))
        assert 1e-4 < finite_dev < 0.1


class TestConvergenceToClosedForm:
    def quad_deviation(self, n_bins):
        from freqbin import chsh_optimal_quad
        half = n_bins // 2
        base = correlated_state(range(-half, n_bins - half))
        worst = 0.0
        for sa, sb in chsh_optimal_quad().pairs():
            state = apply_modulator(base, "A", sa, bin_bound=2048)
            state = apply_modulator(state, "B", sb, bin_bound=2048)
            table = parity_probabilities(state)
            ideal = ideal_probabilities(effective_drive(sa, sb))
            worst = max(worst, max(abs(x - y) for x, y in zip(table.as_tuple(), ideal.as_tuple())))
        return worst

    def test_deviation_shrinks_like_one_over_k(self, golden):
        dev41 = self.quad_deviation(41)
        assert abs(dev41 - golden["finite_41bin_max_prob_deviation"]) < 1e-12
        dev101 = self.quad_deviation(101)
        dev401 = self.quad_deviation(401)
        assert dev101 < dev41 / 2
        assert dev401 < dev101 / 3

    def test_deviation_below_1e3_at_k801(self):
        assert self.quad_deviation(801) <= 1e-3


def dense_tables(bins, pairs, model=None, dispersion=None, policy=POLICY,
                 bin_bound=binspace.DEFAULT_BIN_BOUND):
    """The dense oracle: correlated state, dispersion, modulate A then B, parity sums."""
    base = correlated_state(bins)
    if dispersion is not None and not dispersion.is_zero():
        base = apply_dispersion(base, dispersion, "A")
        base = apply_dispersion(base, dispersion, "B")
    tables = []
    for setting_a, setting_b in pairs:
        state = apply_modulator(base, "A", setting_a, policy, bin_bound=bin_bound)
        state = apply_modulator(state, "B", setting_b, policy, bin_bound=bin_bound)
        tables.append(parity_probabilities(state, model))
    return tables


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    return [(ModulationSetting(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 2 * math.pi))),
             ModulationSetting(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 2 * math.pi))))
            for _ in range(count)]


class TestParityTables:
    CASES = {
        "K=1": (range(0, 1), None, None, POLICY),
        "K=6": (range(1, 7), None, None, POLICY),
        "K=41": (range(-20, 21), None, None, POLICY),
        "K=801 dispersed": (range(-400, 401), None, DispersionProfile(1e-4), POLICY),
        "non-contiguous": ([1, 3, 4, 9, -7], None, None, POLICY),
        "quadratic + overrides": (range(-20, 21), None,
                                  DispersionProfile(0.01, {-3: 0.7, 5: 1.9, 20: -2.5}), POLICY),
        "crosstalk": (range(1, 7), MeasurementModel(crosstalk=0.0241), None, POLICY),
        "loose policy": (range(-20, 21), None, None, TruncationPolicy(epsilon=1e-3)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_oracle(self, case):
        bins, model, dispersion, policy = self.CASES[case]
        zero = ModulationSetting(0.0, 0.3)
        pairs = random_pairs(11, 2 if len(bins) > 100 else 4)
        pairs += [(zero, pairs[0][1]), (pairs[0][0], zero)]
        banded = parity_tables(bins, pairs, model, dispersion, policy)
        dense = dense_tables(bins, pairs, model, dispersion, policy)
        assert len(banded) == len(pairs)
        for got, want in zip(banded, dense):
            for g, w in zip(got.as_tuple(), want.as_tuple()):
                assert abs(g - w) <= 1e-12

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tables_see_only_the_phase_difference(self, case):
        bins, model, dispersion, policy = self.CASES[case]
        pairs = random_pairs(13, 4)
        turned = [(ModulationSetting(a.amplitude, a.phase + 0.7),
                   ModulationSetting(b.amplitude, b.phase + 0.7)) for a, b in pairs]
        for got, want in zip(parity_tables(bins, turned, model, dispersion, policy),
                             parity_tables(bins, pairs, model, dispersion, policy)):
            for g, w in zip(got.as_tuple(), want.as_tuple()):
                assert abs(g - w) <= 1e-15
        # dyadic phases, so that both pairs' gamma_A - gamma_B are the same double
        same = [(ModulationSetting(0.6955, 0.5), ModulationSetting(1.2, 0.25)),
                (ModulationSetting(0.6955, 4.75), ModulationSetting(1.2, 4.5))]
        first, second = parity_tables(bins, same, model, dispersion, policy)
        assert first == second

    def test_builds_each_distinct_kernel_once(self, monkeypatch):
        # a phase scan at one drive is one amplitude pass and one row of Gram sums
        passes, rows = [], []
        amplitudes, build = binspace._sideband_amplitudes, binspace._bessel_rows
        monkeypatch.setattr(binspace, "_sideband_amplitudes",
                            lambda c, policy: passes.append(c) or amplitudes(c, policy))
        monkeypatch.setattr(binspace, "_bessel_rows",
                            lambda amps: rows.extend(amps) or build(amps))
        sb = ModulationSetting(0.6955, 0.0)
        pairs = [(ModulationSetting(0.6955, alpha), sb) for alpha in (0.1, 0.2, 0.3)]
        parity_tables(range(1, 7), pairs)
        assert passes == [0.6955]
        assert len(rows) == 1

    def test_rejects_what_the_dense_path_rejects(self):
        pair = [(ModulationSetting(0.5, 0.0), ModulationSetting(0.5, 1.0))]
        with pytest.raises(InvalidInputError):
            parity_tables([], pair)
        with pytest.raises(InvalidInputError):
            parity_tables([1, 2, 2], pair)
        # bins 1..6: the A window is [1, 6], the B window [-6, -1]
        for override in (9, -3, 3):
            with pytest.raises(InvalidInputError):
                parity_tables(range(1, 7), pair, dispersion=DispersionProfile(0.0, {override: 0.1}))
        parity_tables(range(-3, 4), pair, dispersion=DispersionProfile(0.0, {-3: 0.1, 3: 0.1}))
        # the engine bounds the window width at MAX_BINS, not |bin| at the dense path's 512
        with pytest.raises(WindowBoundError):
            parity_tables([-500_000, 500_000], pair)

    @pytest.mark.parametrize("epsilon", [1e-12, 1e-3, 0.5])
    def test_probability_sum_check_passes_truncated_kernels(self, epsilon):
        policy = TruncationPolicy(epsilon=epsilon)
        same = ModulationSetting(0.6955, math.pi)
        pairs = random_pairs(7, 6) + [(same, same)]
        for bins in (range(0, 1), range(1, 7), range(-20, 21), range(-100, 101)):
            assert len(parity_tables(bins, pairs, policy=policy)) == len(pairs)

    def test_truncated_totals_can_exceed_one(self):
        # The kept sideband series is not unitary: at epsilon = 1e-3 the paper's
        # (A1, B1) pair on 41 bins sums to 1 + 6.9e-7 on the dense path too, so
        # the check must allow excess of order epsilon**2, not only deficit.
        policy = TruncationPolicy(epsilon=1e-3)
        pair = [chsh_optimal_quad().pairs()[3]]
        dense = dense_tables(range(-20, 21), pair, policy=policy)[0].total
        banded = parity_tables(range(-20, 21), pair, policy=policy)[0].total
        assert 1.0 + 1e-7 < dense < 1.0 + 1e-6
        assert abs(banded - dense) <= 1e-12

    def test_probability_sum_check_trips_on_a_lossy_kernel(self, monkeypatch):
        build = binspace._bessel_rows
        monkeypatch.setattr(binspace, "_bessel_rows", lambda amplitudes: 0.9 * build(amplitudes))
        with pytest.raises(ProbabilitySumError):
            parity_tables(range(1, 7), chsh_optimal_quad().pairs())

    def test_entry_check_is_prob_tables_and_runs_pair_by_pair(self, monkeypatch):
        # Scaling a drive's Bessel row by 2 scales its Gram rows, and so every
        # table using it, by exactly 4; by 1/2, exactly 1/4. Pair 1 then has
        # entries past 1 and a total of 4, pair 2 entries past 1 again.
        drives = [ModulationSetting(0.3 * (k + 1), 0.4 * k) for k in range(6)]
        pairs = [(drives[0], drives[1]), (drives[2], drives[3]), (drives[4], drives[5])]
        bins = range(-20, 21)
        plain = parity_tables(bins, pairs)
        build = binspace._bessel_rows

        def faulty(scales):
            monkeypatch.setattr(binspace, "_bessel_rows",
                                lambda amplitudes: build(amplitudes) * np.array(scales)[:, None])
            return pytest.raises((InvalidInputError, ProbabilitySumError))

        def prob_table_error(values):
            with pytest.raises(InvalidInputError) as error:
                ProbTable(*values)
            return str(error.value)

        # the entry check fires before pair 1's sum check and before pair 2
        with faulty([1, 1, 2, 1, 4, 4]) as got:
            parity_tables(bins, pairs)
        assert got.type is InvalidInputError
        assert str(got.value) == prob_table_error([4.0 * p for p in plain[1].as_tuple()])
        # a sum fault on an earlier pair fires before a later pair's entry fault
        with faulty([1, 1, 0.5, 1, 4, 4]) as got:
            parity_tables(bins, pairs)
        assert got.type is ProbabilitySumError
        assert f"sums to {0.25 * plain[1].total!r}," in str(got.value)

    def test_bins_past_int64_are_a_window_bound_error(self):
        pair = [(ModulationSetting(0.5, 0.0), ModulationSetting(0.5, 1.0))]
        for bins in ([2**63], range(2**63 - 1, 2**63 + 1), [-2**63 - 1, 0],
                     range(-2**63 - 1, 0, 2**62), range(2**63, 0, -2**62)):
            with pytest.raises(WindowBoundError):
                parity_tables(bins, pair)
            with pytest.raises(WindowBoundError):
                correlated_state(bins)

    @pytest.mark.parametrize("bins", [
        range(2**63 - 2, 2**63), range(-2**63, -2**63 + 5), range(2**63 - 1, 2**63 - 30, -7),
        range(-2**63 + 3, -2**63 - 1, -1), range(20, -21, -3), range(-20, 21), range(1, 7),
        range(5, 6, 2**70), range(-2**63, -2**63 - 1, -2**70),
    ])
    def test_a_range_reads_as_its_list(self, bins):
        # a range's array comes from its ends and step; a list's from each bin
        got, window = binspace._alice_bins(bins, binspace._check_width)
        want, list_window = binspace._alice_bins(list(bins), binspace._check_width)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want) and window == list_window

    @pytest.mark.parametrize("bins", [
        range(0, 2 * MAX_BINS), range(-10**10, 10**10), range(10**10, -10**10, -3),
        range(-2**63, 2**63 - 1, 2**62), range(2**63 - 1, -2**63 - 1, -(2**64 - 1)),
    ])
    def test_too_wide_range_raises_before_it_allocates(self, bins):
        # the bins' array was built before the window was checked: 8 bytes a bin
        ascending = bins if bins.step > 0 else bins[::-1]
        pairs = chsh_optimal_quad().pairs()
        tracemalloc.start()
        try:
            with pytest.raises(WindowBoundError, match=re.escape(
                    f"window [{ascending[0]}, {ascending[-1]}] exceeds {MAX_BINS} bins")):
                parity_tables(bins, pairs)
            with pytest.raises(WindowBoundError, match=re.escape(
                    f"window [{ascending[0]}, {ascending[-1]}] exceeds |bin| <= {binspace.DEFAULT_BIN_BOUND}")):
                correlated_state(bins)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_an_empty_range_needs_a_bin(self):
        with pytest.raises(InvalidInputError, match="^need at least one bin$"):
            parity_tables(range(3, 3), [])

    @pytest.mark.parametrize("bins, error", [([0, 1.5, 2**64], InvalidInputError),
                                             ([0, 2**64, 1.5], WindowBoundError)])
    def test_first_faulty_bin_decides_the_error(self, bins, error):
        with pytest.raises(error):
            parity_tables(bins, [])

    def test_wide_correlated_state_is_a_window_bound_error(self):
        # the dense table is width**2 complex entries: [-2**40, 2**40] used to fail
        # inside numpy, and [-30000, 30000] would have asked for ~58 GB
        for bins in ([-2**40, 2**40], [-30000, 30000], [0, 513], [-513]):
            with pytest.raises(WindowBoundError):
                correlated_state(bins)
        assert correlated_state([-512, 512]).amplitudes.shape == (1025, 1025)

    def test_matches_dense_oracle_past_the_dense_bin_bound(self):
        # c = 1.5 keeps order 13, so the dense path needs |bin| = 513 on bins -500..500
        bins = range(-500, 501)
        pairs = [(ModulationSetting(1.5, 0.0), ModulationSetting(1.5, 2.0)),
                 (ModulationSetting(0.6955, 1.0), ModulationSetting(1.5, math.pi))]
        with pytest.raises(WindowBoundError):
            dense_tables(bins, pairs[:1])
        dispersion = DispersionProfile(1e-4)
        banded = parity_tables(bins, pairs, dispersion=dispersion)
        dense = dense_tables(bins, pairs, dispersion=dispersion, bin_bound=2048)
        for got, want in zip(banded, dense):
            for g, w in zip(got.as_tuple(), want.as_tuple()):
                assert abs(g - w) <= 1e-12

    def test_finite_gap_law_holds_at_100001_bins(self):
        # (S_ideal - S) K is a constant of the optimal quad, ~0.8628, from K = 801 up;
        # chsh_finite raises ProbabilitySumError if a table fails the sum check
        quad = chsh_optimal_quad()
        s_ideal = chsh_ideal(quad).s_value
        gaps = [(s_ideal - chsh_finite(quad, range(-half, half + 1)).s_value) * (2 * half + 1)
                for half in (400, 50_000)]
        assert abs(gaps[0] - 0.8628225114) < 1e-9
        assert abs(gaps[1] - gaps[0]) < 1e-8

    def test_too_wide_window_raises_before_it_allocates(self):
        pairs = chsh_optimal_quad().pairs()
        tracemalloc.start()
        try:
            with pytest.raises(WindowBoundError, match="exceeds 1000000 bins"):
                parity_tables([-2**40, 2**40], pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        with pytest.raises(WindowBoundError):
            parity_tables([0, MAX_BINS], pairs)
        assert len(parity_tables([0, MAX_BINS - 1], pairs)) == 4

    def test_peak_memory_of_many_wide_kernels_is_under_one_mib(self):
        # c = 30 keeps order 58: the phase scan shares one row of real Gram sums
        fixed = ModulationSetting(30.0, 0.0)
        pairs = [(ModulationSetting(30.0, 2 * math.pi * k / 300), fixed) for k in range(300)]
        parity_tables(range(1, 7), pairs[:2])
        tracemalloc.start()
        try:
            parity_tables(range(1, 7), pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_no_pairs_no_tables(self):
        assert parity_tables(range(1, 7), []) == []

    def test_peak_memory_is_linear_in_bins(self):
        # A (4P + 1) x K table of envelope shifts would take ~33 K complex values here (P = 8).
        bins = range(-500, 501)
        pairs = [(ModulationSetting(0.35, 0.0), ModulationSetting(0.2318, 2.0)),
                 (ModulationSetting(0.1, 1.0), ModulationSetting(0.35, math.pi))]
        dispersion = DispersionProfile(1e-4)
        parity_tables(bins, pairs, dispersion=dispersion)
        tracemalloc.start()
        try:
            parity_tables(bins, pairs, dispersion=dispersion)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * len(bins) * np.dtype(complex).itemsize

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_only_gapped_or_overridden_envelopes_take_the_correlation(self, case, monkeypatch):
        calls = []
        correlate = binspace._envelope_correlation
        monkeypatch.setattr(binspace, "_envelope_correlation",
                            lambda *args: calls.append(args[0].size) or correlate(*args))
        bins, model, dispersion, policy = self.CASES[case]
        parity_tables(bins, random_pairs(17, 2), model, dispersion, policy)
        assert bool(calls) == (case in ("non-contiguous", "quadratic + overrides"))

    def test_closed_form_covers_every_contiguous_quadratic_window(self, monkeypatch):
        monkeypatch.setattr(binspace, "_envelope_correlation", None)
        pairs = random_pairs(19, 2)
        for bins in (range(5, 6), range(-3, 9), range(-7, -2), range(-100_000, 100_001)):
            for dispersion in (None, DispersionProfile(0.0), DispersionProfile(-3e-3, {}),
                               DispersionProfile(1e-6)):
                assert len(parity_tables(bins, pairs, dispersion=dispersion)) == 2

    def test_peak_memory_of_a_dispersed_200001_bin_window(self):
        # the bins themselves take 8 B each; the closed form allocates nothing per bin
        bins = range(-100_000, 100_001)
        pairs = chsh_optimal_quad().pairs()
        dispersion = DispersionProfile(1e-6)
        parity_tables(range(1, 7), pairs, dispersion=dispersion)
        tracemalloc.start()
        try:
            parity_tables(bins, pairs, dispersion=dispersion)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * len(bins)


def exact_window_correlation(low, high, coefficient, reach):
    """C_pi(d) of e^{2 i c n^2} on bins low..high at 40 digits, from the geometric series.

    The n = pi mod 2 with n and n + d in the window are n0 + 2j, j < N, and the
    terms e^{2 i c (n^2 - (n + d)^2)} are e^{-2 i c d (2 n0 + d)} r^j for
    r = e^{-8 i c d}, so the sum is that factor times (1 - r^N) / (1 - r).
    """
    out = np.zeros((2, 2 * reach + 1), dtype=complex)
    with mp.workdps(40):
        c = mp.mpf(coefficient)
        for parity in (0, 1):
            for d in range(-reach, reach + 1):
                first, last = max(low, low - d), min(high, high - d)
                n0 = first + (first - parity) % 2
                count = max(0, (last - n0) // 2 + 1)
                ratio = mp.expj(-8 * c * d)
                series = count if ratio == 1 else (1 - ratio ** count) / (1 - ratio)
                out[parity, d + reach] = complex(mp.expj(-2 * c * d * (2 * n0 + d)) * series)
    return out


def window_error(low, high, coefficient, reach):
    """Largest |closed form - exact| over d and both parities, per bin of the window."""
    got = binspace._window_correlation(BinWindow(low, high), coefficient, reach)
    return float(np.abs(got - exact_window_correlation(low, high, coefficient, reach)).max()) / (high - low + 1)


class TestWindowCorrelation:
    """The closed-form C_pi(d) of a contiguous window against exact sums and the correlation."""

    def test_exact_oracle_is_the_direct_sum(self):
        with mp.workdps(40):
            c = mp.mpf(7.3e-3)
            for parity in (0, 1):
                for d in (-9, -4, 0, 3, 10):
                    direct = mp.fsum(mp.expj(2 * c * (n * n - (n + d) ** 2)) for n in range(-13, 21)
                                     if n % 2 == parity and -13 <= n + d <= 20)
                    series = exact_window_correlation(-13, 20, 7.3e-3, 10)[parity, d + 10]
                    assert abs(complex(direct) - series) < 1e-15

    def test_uniform_window_counts_equal_the_correlation_bitwise(self):
        for low, width in ((1, 6), (-20, 41), (-400, 801), (7, 1), (-3, 2), (2**62, 40), (-2**63, 9)):
            for reach in sorted({0, 1, width // 2, width - 1}):
                got = binspace._window_correlation(BinWindow(low, low + width - 1), 0.0, reach)
                want = binspace._envelope_correlation(np.ones(width), low, reach)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_matches_exact_sums_on_random_windows(self):
        rng = np.random.default_rng(23)
        windows = [(int(rng.integers(-3000, 3001)), int(rng.integers(1, 4001))) for _ in range(8)]
        # narrow windows far from bin 0, where the phase d (d + n0 + n1) c is large
        # against the few terms of the sum
        windows += [(2960, 40), (-3000, 12), (-2999, 33), (1500, 3)]
        for low, width in windows:
            drawn = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-8, -2))
            for coefficient in (drawn, math.copysign(1e-2, -drawn)):
                assert window_error(low, low + width - 1, coefficient, min(width - 1, 40)) <= 1e-14

    @pytest.mark.parametrize("coefficient", [math.pi / 8, math.pi / 8 + 1e-12, math.pi / 8 - 7e-13,
                                             math.pi / 4, math.pi / 4 + 1e-12, math.pi / 4 - 4e-12])
    def test_near_whole_turns(self, coefficient):
        # 8 c d lies within 1e-10 of 2 pi k for every d (c ~ pi/4) or every even d
        # (c ~ pi/8): sin(theta / 2) -> 0 and C_pi(d) -> N e^{i phase}
        for low, width in ((-20, 41), (-1000, 2001), (1777, 4001)):
            assert window_error(low, low + width - 1, coefficient, 12) <= 5e-12

    @pytest.mark.parametrize("coefficient", [math.pi, -math.pi, math.pi / 2])
    def test_matches_exact_sums_at_the_dispersion_bound(self, coefficient):
        # DispersionProfile takes |c| <= pi, so these are the largest phases per bin it passes on
        for low, width in ((-20, 41), (-1000, 2001), (1777, 4001), (-3000, 12)):
            assert window_error(low, low + width - 1, coefficient, min(width - 1, 40)) <= 1e-14

    def test_matches_the_envelope_correlation_up_to_100001_bins(self):
        for half, coefficient in ((400, 1e-4), (10_000, -3e-3), (50_000, 1e-6), (50_000, -2e-5)):
            window = BinWindow(-half, half + 7)
            n = np.arange(window.min_bin, window.max_bin + 1)
            profile = DispersionProfile(coefficient)
            envelope = np.exp(1j * (profile.phases(n) + profile.phases(-n)))
            want = binspace._envelope_correlation(envelope, window.min_bin, 40)
            got = binspace._window_correlation(window, coefficient, 40)
            assert float(np.abs(got - want).max()) <= 1e-12 * window.width
        # at c = 7e-3 the correlation's own phases 2 c n^2 ~ 3.5e7 rad put it
        # 2.9e-12 K off the exact sums; the closed form stays within 1e-16 K
        assert window_error(-50_000, 50_007, 7e-3, 40) <= 1e-14


@st.composite
def bin_sets(draw):
    """A single bin, a sparse set, a run of negative bins, or a run of up to 121 bins."""
    kind = draw(st.sampled_from(["single", "sparse", "negative", "run"]))
    if kind == "single":
        return [draw(st.integers(-60, 60))]
    if kind == "sparse":
        return draw(st.lists(st.integers(-60, 60), min_size=2, max_size=8, unique=True))
    if kind == "negative":
        high = draw(st.integers(-60, -1))
        return range(draw(st.integers(high - 40, high)), high + 1)
    low = draw(st.integers(-60, 0))
    return range(low, low + draw(st.integers(1, 121)))


class TestParityTablesProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle_on_every_entry(self, data):
        bins = data.draw(bin_sets(), label="bins")
        amplitude = st.just(0.0) | st.floats(0.0, 1.5)
        pool = data.draw(st.lists(st.builds(ModulationSetting, amplitude, st.floats(0.0, 2 * math.pi)),
                                  min_size=1, max_size=4), label="settings")
        index = st.integers(0, len(pool) - 1)
        pairs = [(pool[a], pool[b])
                 for a, b in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=6),
                                       label="pairs")]
        policy = TruncationPolicy(epsilon=data.draw(st.floats(1e-12, 0.5), label="epsilon"))
        crosstalk = data.draw(st.none() | st.floats(0.0, 0.5), label="crosstalk")
        model = None if crosstalk is None else MeasurementModel(crosstalk=crosstalk)
        dispersion = None
        if data.draw(st.booleans(), label="dispersed"):
            # overrides must lie in both the A window and the mirrored B window
            low, high = max(min(bins), -max(bins)), min(max(bins), -min(bins))
            overrides = {}
            if low <= high:
                overrides = data.draw(st.dictionaries(st.integers(low, high), st.floats(-math.pi, math.pi),
                                                      max_size=3), label="overrides")
            dispersion = DispersionProfile(data.draw(st.floats(-0.01, 0.01), label="quadratic"),
                                           overrides or None)
        banded = parity_tables(bins, pairs, model, dispersion, policy)
        dense = dense_tables(bins, pairs, model, dispersion, policy)
        assert len(banded) == len(pairs)
        for got, want in zip(banded, dense):
            for g, w in zip(got.as_tuple(), want.as_tuple()):
                assert abs(g - w) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_crosstalk_is_apply_crosstalk_bit_for_bit(self, data):
        bins = data.draw(bin_sets(), label="bins")
        setting = st.builds(ModulationSetting, st.floats(0.0, 1.5), st.floats(0.0, 2 * math.pi))
        pairs = data.draw(st.lists(st.tuples(setting, setting), min_size=1, max_size=6), label="pairs")
        quadratic = data.draw(st.floats(-0.01, 0.01), label="quadratic")
        crosstalk = data.draw(st.floats(0.0, 0.5), label="crosstalk")
        dispersion = DispersionProfile(quadratic)
        # the banded engine mixes with apply_crosstalk's helper, as the dense oracle does
        mixed = parity_tables(bins, pairs, MeasurementModel(crosstalk=crosstalk), dispersion)
        plain = parity_tables(bins, pairs, None, dispersion)
        assert mixed == [apply_crosstalk(table, crosstalk) for table in plain]


class TestChshFiniteReadsTheTables:
    def test_correlators_are_the_tables_correlators_bit_for_bit(self):
        # chsh_finite reads the engine's floats; parity_tables wraps the same
        # floats in ProbTables, so each correlator keeps its bits, signed zeros included
        rng = np.random.default_rng(31)
        for case in range(120):
            low = int(rng.integers(-30, 10))
            if case % 3 == 2:
                bins = sorted({int(n) for n in rng.integers(low, low + 40, size=int(rng.integers(1, 12)))})
            else:
                bins = range(low, low + int(rng.integers(1, 60)))
            amplitudes = [0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 1.5)) for _ in range(4)]
            quad = SettingQuad(*(ModulationSetting(a, float(rng.uniform(0.0, 2 * math.pi)))
                                 for a in amplitudes))
            crosstalk = [0.0, float(rng.uniform(0.0, 0.5)), 0.5, None][case % 4]
            model = None if crosstalk is None else MeasurementModel(crosstalk=crosstalk)
            dispersion = DispersionProfile(float(rng.uniform(-0.01, 0.01))) if case % 5 < 2 else None
            report = chsh_finite(quad, bins, model, dispersion)
            tables = parity_tables(bins, quad.pairs(), model, dispersion)
            assert repr(report.correlators) == repr(tuple(table.correlator for table in tables))


class TestPhaseState:
    def test_constant_at_zero_phase(self):
        vec = phase_state(0.0, BinWindow(-5, 5))
        assert np.allclose(vec, 1.0 / math.sqrt(2 * math.pi))

    def test_translation_eigenrelation(self):
        # T_k |phi> = e^{-ik phi} |phi>, checked entrywise away from the wrapped edge
        varphi = 1.3
        window = BinWindow(-10, 10)
        vec = phase_state(varphi, window)
        k = 3
        translated = np.roll(vec, k)  # entry for bin n now holds the old bin n - k value
        interior = slice(k, window.width)
        expected = np.exp(-1j * k * varphi) * vec[interior]
        assert np.max(np.abs(translated[interior] - expected)) < 1e-12

    def test_modulator_eigen_action_on_interior(self):
        c, gamma, varphi = 0.6955, 0.9, 2.2
        window = BinWindow(-40, 40)
        vec = phase_state(varphi, window)
        offsets, weights = modulation_kernel(ModulationSetting(c, gamma))
        out = np.convolve(vec, weights, mode="full")  # window widens by the kernel reach
        p_max = int(offsets[-1])
        scalar = cmath.exp(-1j * c * math.cos(gamma - varphi))
        # interior entries of the widened vector, clear of both truncation edges
        for i in range(2 * p_max, len(vec) - 2 * p_max):
            assert abs(out[i + p_max] / vec[i] - scalar) < 1e-8

    def test_window_too_small(self):
        with pytest.raises(InvalidInputError):
            phase_state(0.3, BinWindow(0, 1))
