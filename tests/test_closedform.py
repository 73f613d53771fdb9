"""Closed-form drive algebra and coincidence tables against the quadrature oracle."""

import itertools
import math

import numpy as np
import pytest

from freqbin import (InvalidInputError, ModulationSetting, ProbTable, apply_crosstalk, bessel_j,
                     effective_drive, ideal_probabilities)
from oracles import crosstalk_oracle, phase_average_oracle


def random_setting(rng, max_amplitude=1.5):
    return ModulationSetting(float(rng.uniform(0.0, max_amplitude)),
                             float(rng.uniform(0.0, 2.0 * math.pi)))


def max_table_gap(t1, t2):
    return max(abs(a - b) for a, b in zip(t1.as_tuple(), t2.as_tuple()))


class TestEffectiveDrive:
    def test_opposite_phases_cancel(self):
        assert effective_drive(ModulationSetting(0.6955, 0.8),
                               ModulationSetting(0.6955, 0.8 + math.pi)) == 0.0

    def test_collinear_phasors_add(self):
        drive = effective_drive(ModulationSetting(0.31, 0.7), ModulationSetting(0.31, 0.7))
        assert abs(drive - 0.62) < 1e-12

    def test_antiparallel_amplitude_difference(self):
        drive = effective_drive(ModulationSetting(0.2318, 0.0), ModulationSetting(0.6955, math.pi))
        assert abs(drive - 0.4637) < 1e-12

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s1, s2 = random_setting(rng), random_setting(rng)
            assert abs(effective_drive(s1, s2) - effective_drive(s2, s1)) < 1e-14

    def test_d_invariant_under_common_phase_shift(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s1, s2 = random_setting(rng), random_setting(rng)
            shift = float(rng.uniform(0.0, 2.0 * math.pi))
            shifted = effective_drive(ModulationSetting(s1.amplitude, s1.phase + shift),
                                      ModulationSetting(s2.amplitude, s2.phase + shift))
            assert abs(shifted - effective_drive(s1, s2)) < 1e-12

    def test_negative_amplitude_rejected(self):
        for d in (-0.1, math.nan):
            with pytest.raises(InvalidInputError, match="effective drive amplitude must be >= 0"):
                ideal_probabilities(d)


class TestIdealProbabilities:
    def test_zero_drive_table(self):
        table = ideal_probabilities(0.0)
        assert table.as_tuple() == (0.5, 0.0, 0.0, 0.5)

    def test_low_drive_table_one_value(self):
        table = ideal_probabilities(0.4636)
        assert abs(table.p_ee - 0.25 * (1.0 + bessel_j(0, 0.9272))) < 1e-15
        assert abs(table.p_ee - 0.449) < 2e-4

    def test_high_drive_correlator(self):
        table = ideal_probabilities(1.391)
        assert abs(table.correlator - (-0.178)) <= 1e-3

    def test_cross_terms_equal_and_correlator_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            table = ideal_probabilities(float(rng.uniform(0, 3)))
            assert table.p_eo == table.p_oe
            assert -0.5 <= table.correlator <= 1.0
            assert abs(table.total - 1.0) < 1e-12


class TestPhaseAverageOracle:
    def test_unmodulated_is_exact(self):
        table = phase_average_oracle(ModulationSetting(0.0, 0.0), ModulationSetting(0.0, 0.0))
        assert table.as_tuple() == (0.5, 0.0, 0.0, 0.5)

    def test_cancellation_kills_cross_terms(self):
        table = phase_average_oracle(ModulationSetting(0.6955, 1.1),
                                     ModulationSetting(0.6955, 1.1 + math.pi))
        assert table.p_eo <= 1e-12

    def test_matches_bessel_identity_route(self):
        settings = (ModulationSetting(0.2318, 0.0), ModulationSetting(0.2318, 0.0))
        oracle = phase_average_oracle(*settings, quadrature_points=256)
        ideal = ideal_probabilities(effective_drive(*settings))
        assert max_table_gap(oracle, ideal) <= 1e-9

    def test_oracle_equivalence_random_pairs(self):
        rng = np.random.default_rng(987)
        worst = 0.0
        for _ in range(100):
            s1, s2 = random_setting(rng), random_setting(rng)
            gap = max_table_gap(phase_average_oracle(s1, s2),
                                ideal_probabilities(effective_drive(s1, s2)))
            worst = max(worst, gap)
        assert worst <= 1e-8

    def test_swap_symmetry(self):
        s1 = ModulationSetting(0.9, 0.3)
        s2 = ModulationSetting(1.2, 2.6)
        assert max_table_gap(phase_average_oracle(s1, s2), phase_average_oracle(s2, s1)) < 1e-15

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidInputError):
            phase_average_oracle(ModulationSetting(0.5, 0.0), ModulationSetting(0.5, 0.0), 32)


class TestCrosstalkMixing:
    def test_identity_at_zero(self):
        table = ProbTable(0.4, 0.1, 0.2, 0.3)
        assert apply_crosstalk(table, 0.0) is table

    def test_full_depolarization(self):
        mixed = apply_crosstalk(ProbTable(0.7, 0.1, 0.1, 0.1), 0.5)
        for p in mixed.as_tuple():
            assert abs(p - 0.25) < 1e-15

    def test_preserves_total(self):
        table = ProbTable(0.37, 0.13, 0.09, 0.41)
        mixed = apply_crosstalk(table, 0.07)
        assert abs(mixed.total - table.total) < 1e-14

    def test_correlator_scales_quadratically(self):
        table = ProbTable(0.449, 0.051, 0.051, 0.449)
        chi = 0.03
        mixed = apply_crosstalk(table, chi)
        assert abs(mixed.correlator - (1 - 2 * chi) ** 2 * table.correlator) < 1e-14

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            apply_crosstalk(ProbTable(1, 0, 0, 0), 0.6)

    def test_matches_the_multiplied_out_oracle_bit_for_bit(self):
        # the weights t*t, t*x and x*x are computed once; float products commute
        rng = np.random.default_rng(23)
        special = [0.0, -0.0, 1.0, -1e-9, 1.0 + 1e-9, 5e-324]
        for _ in range(3000):
            entries = rng.dirichlet(np.ones(4)).tolist()
            for k in rng.choice(4, size=int(rng.integers(0, 3)), replace=False).tolist():
                entries[k] = special[int(rng.integers(len(special)))]
            crosstalk = [float(rng.uniform(0.0, 0.5)), 0.5, 0.0241, 0.0][int(rng.integers(4))]
            table = ProbTable(*entries)
            assert repr(apply_crosstalk(table, crosstalk)) == repr(crosstalk_oracle(table, crosstalk))


class TestProbTable:
    def test_rejects_non_probability(self):
        with pytest.raises(InvalidInputError):
            ProbTable(1.2, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            ProbTable(-0.2, 0.4, 0.4, 0.4)

    def test_entry_check_is_the_per_entry_loop(self):
        # the check accepts an in-range table in one condition and names the
        # first bad entry as the per-entry loop does, at and just past the slack
        slack = 1e-9
        edges = [-slack, slack, math.nextafter(-slack, -math.inf), 1.0 + slack,
                 math.nextafter(1.0 + slack, math.inf), math.nan, math.inf, -math.inf, -0.0, 0.5]
        for values in itertools.product(edges, repeat=4):
            bad = next((f"{name} = {p!r} is not a probability"
                        for name, p in zip(("p_ee", "p_eo", "p_oe", "p_oo"), values)
                        if not -slack <= p <= 1.0 + slack), None)
            if bad is None:
                assert ProbTable(*values).as_tuple() == values
            else:
                with pytest.raises(InvalidInputError) as error:
                    ProbTable(*values)
                assert str(error.value) == bad
