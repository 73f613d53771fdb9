"""Parameter records: validation, phase canonicalization, crosstalk helper."""

import math

import numpy as np
import pytest

from freqbin import (BinWindow, DispersionProfile, InvalidInputError, MeasurementModel,
                     ModulationSetting, TruncationPolicy, crosstalk_from_extinction_db)
from freqbin.params import MAX_ORDER_CAP


class TestModulationSetting:
    def test_phase_canonicalized(self):
        assert ModulationSetting(0.5, -math.pi).phase == pytest.approx(math.pi)
        assert ModulationSetting(0.5, 2 * math.pi).phase == 0.0
        assert ModulationSetting(0.5, 7.0).phase == pytest.approx(7.0 - 2 * math.pi)
        tiny_negative = ModulationSetting(0.5, -1e-18).phase
        assert 0.0 <= tiny_negative < 2 * math.pi

    def test_amplitude_validated(self):
        with pytest.raises(InvalidInputError):
            ModulationSetting(-0.1, 0.0)
        with pytest.raises(InvalidInputError):
            ModulationSetting(float("nan"), 0.0)


class TestBinWindow:
    def test_basic_geometry(self):
        window = BinWindow(-3, 5)
        assert window.width == 9
        assert window.index(-3) == 0
        assert window.negated() == BinWindow(-5, 3)

    def test_empty_window_rejected(self):
        with pytest.raises(InvalidInputError):
            BinWindow(2, 1)

    def test_index_outside_rejected(self):
        with pytest.raises(InvalidInputError):
            BinWindow(0, 3).index(4)


class TestDispersionProfile:
    def test_quadratic_and_override(self):
        profile = DispersionProfile(quadratic_coefficient=0.1, per_bin_overrides={3: 2.5})
        assert profile.phases([2, -2, 3]).tolist() == pytest.approx([0.4, 0.4, 2.5])
        assert profile.phases([3])[0] == 2.5
        assert not profile.is_zero()
        assert DispersionProfile().is_zero()

    def test_phases_must_be_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError, match="finite"):
                DispersionProfile(quadratic_coefficient=bad)
            with pytest.raises(InvalidInputError, match="finite"):
                DispersionProfile(per_bin_overrides={2: bad})

    def test_quadratic_coefficient_lies_in_one_period(self):
        # c and c +- 2 pi give every integer bin the same phase, so [-pi, pi] loses no profile
        for good in (math.pi, -math.pi, math.pi / 2, -1e-300, 0.0):
            assert DispersionProfile(quadratic_coefficient=good).quadratic_coefficient == good
        above = math.nextafter(math.pi, 4.0)
        for bad in (above, -above, 4.0, -2 * math.pi, 1e15, 1e308, -1e308):
            with pytest.raises(InvalidInputError, match=r"\[-pi, pi\].*period 2 pi"):
                DispersionProfile(quadratic_coefficient=bad)
        # an override is a phase itself, not a coefficient, and stays unbounded
        assert DispersionProfile(per_bin_overrides={2: 10.0}).phases([2])[0] == 10.0


class TestMeasurementModel:
    def test_defaults_match_experiment_scale(self):
        model = MeasurementModel()
        assert model.pair_rate / model.accidental_rate == pytest.approx(2.0)  # CAR
        assert model.duration == 1800.0

    def test_invariants(self):
        with pytest.raises(InvalidInputError):
            MeasurementModel(crosstalk=0.6)
        with pytest.raises(InvalidInputError):
            MeasurementModel(efficiency=0.0)
        with pytest.raises(InvalidInputError):
            MeasurementModel(duration=0.0)
        with pytest.raises(InvalidInputError):
            MeasurementModel(pair_rate=-1.0)

    @pytest.mark.parametrize("field", ["pair_rate", "accidental_rate", "duration"])
    def test_rates_and_duration_must_be_finite(self, field):
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="finite"):
                MeasurementModel(**{field: bad})


class TestTruncationPolicy:
    def test_invariants(self):
        with pytest.raises(InvalidInputError):
            TruncationPolicy(epsilon=0.0)
        for bad in (1.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="epsilon"):
                TruncationPolicy(epsilon=bad)
        assert TruncationPolicy(epsilon=0.99).epsilon == 0.99
        with pytest.raises(InvalidInputError):
            TruncationPolicy(max_order=0)

    def test_max_order_is_a_bounded_integer(self):
        for bad in (2.5, 64.0, True, "64", MAX_ORDER_CAP + 1):
            with pytest.raises(InvalidInputError):
                TruncationPolicy(max_order=bad)
        assert TruncationPolicy(max_order=MAX_ORDER_CAP).max_order == MAX_ORDER_CAP
        assert TruncationPolicy(max_order=np.int64(8)).max_order == 8


def test_crosstalk_from_extinction():
    # 25 dB port separation corresponds to ~3e-3 parity-flip probability
    assert crosstalk_from_extinction_db(25.0) == pytest.approx(1.0 / (1.0 + 10.0**2.5))
    assert crosstalk_from_extinction_db(0.0) == 0.5
    assert crosstalk_from_extinction_db(60.0) < 1e-5
