"""Count synthesis, histogram ingestion, and the visibility/CHSH estimators."""

import io
import math

import numpy as np
import pytest

from freqbin import (CountRecord, EstimatorError, Histogram, HistogramFormatError,
                     InvalidInputError, MeasurementModel, ModulationSetting, ProbTable,
                     apply_crosstalk, chsh_estimate, chsh_ideal, crosstalk_for_visibility,
                     effective_drive, emit_histogram, extract_counts, ideal_probabilities,
                     ingest_histogram, chsh_optimal_quad, simulate_counts, synthesize_histogram,
                     visibility)
from freqbin.counts import DEFAULT_BACKGROUND_WINDOW, DEFAULT_PEAK_WINDOW, MAX_SPAN_BINS, OUTCOMES

CORRELATED = ProbTable(0.5, 0.0, 0.0, 0.5)


def experiment_model(**overrides):
    base = dict(crosstalk=0.0, efficiency=0.5, pair_rate=1.5, accidental_rate=0.75,
                duration=1800.0)
    base.update(overrides)
    return MeasurementModel(**base)


def scan_records(chi, model, seed, points=13):
    records = []
    for k, alpha in enumerate(np.linspace(0.0, 2.0 * math.pi, points)):
        drive = effective_drive(ModulationSetting(0.6955, float(alpha)),
                                ModulationSetting(0.6955, 0.0))
        probs = apply_crosstalk(ideal_probabilities(drive), chi)
        records.append(simulate_counts(probs, model, seed + k))
    return records


class TestSimulateCounts:
    def test_poisson_means_at_experiment_scale(self):
        # means: 0.5 * 1.5 * 1800 * 0.5 + 337.5 = 1012.5 on the diagonal,
        # 337.5 accidentals alone on the cross outcomes
        record = simulate_counts(CORRELATED, experiment_model(), seed=1)
        for count, mean in zip(record.counts(), (1012.5, 337.5, 337.5, 1012.5)):
            assert abs(count - mean) <= 3.0 * math.sqrt(mean)
        assert record.background_per_outcome == (337.5,) * 4

    def test_vanishing_duration_gives_zero_counts(self):
        record = simulate_counts(CORRELATED, experiment_model(duration=1e-9), seed=9)
        assert record.counts() == (0, 0, 0, 0)

    def test_deterministic_given_seed(self):
        a = simulate_counts(CORRELATED, experiment_model(), seed=7)
        b = simulate_counts(CORRELATED, experiment_model(), seed=7)
        assert a == b

    def test_empirical_car_matches_rates(self):
        model = experiment_model(efficiency=1.0, duration=1e6)
        uniform = ProbTable(0.25, 0.25, 0.25, 0.25)
        record = simulate_counts(uniform, model, seed=3)
        total = sum(record.counts())
        accidental = sum(record.background_per_outcome)
        car = (total - accidental) / accidental
        assert abs(car - model.pair_rate / model.accidental_rate) < 0.05


class TestHistogramFormat:
    MINIMAL = ("# coincidence-histogram v1, bin_width_s=5e-10\n"
               "EE,-1,3\nEE,0,11\nEE,1,4\nEE,2,0\n")

    def test_minimal_file(self):
        histogram = ingest_histogram(self.MINIMAL)
        assert histogram.bin_width_s == 5e-10
        assert histogram.start_index == -1
        assert list(histogram.counts["EE"]) == [3, 11, 4, 0]

    def test_bytes_and_stream_sources(self):
        from_bytes = ingest_histogram(self.MINIMAL.encode())
        from_stream = ingest_histogram(io.StringIO(self.MINIMAL))
        assert np.array_equal(from_bytes.counts["EE"], from_stream.counts["EE"])

    def test_bad_header(self):
        with pytest.raises(HistogramFormatError) as excinfo:
            ingest_histogram("EE,0,1\n")
        assert excinfo.value.line == 1

    def test_negative_count_names_line(self):
        text = "# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\nEE,1,-2\n"
        with pytest.raises(HistogramFormatError) as excinfo:
            ingest_histogram(text)
        assert excinfo.value.line == 3
        assert "line 3" in str(excinfo.value)

    def test_non_monotone_bins_rejected(self):
        text = "# coincidence-histogram v1, bin_width_s=5e-10\nEE,1,3\nEE,0,2\n"
        with pytest.raises(HistogramFormatError) as excinfo:
            ingest_histogram(text)
        assert excinfo.value.line == 3

    def test_unknown_pair_and_arity(self):
        header = "# coincidence-histogram v1, bin_width_s=5e-10\n"
        with pytest.raises(HistogramFormatError):
            ingest_histogram(header + "XY,0,1\n")
        with pytest.raises(HistogramFormatError):
            ingest_histogram(header + "EE,0\n")
        with pytest.raises(HistogramFormatError):
            ingest_histogram(header + "EE,0.5,1\n")
        with pytest.raises(HistogramFormatError):
            ingest_histogram(header)

    def test_non_utf8_names_line(self):
        data = b"# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\nEE,1,\xff\n"
        for source in (data, io.BytesIO(data)):
            with pytest.raises(HistogramFormatError) as excinfo:
                ingest_histogram(source)
            assert excinfo.value.line == 3

    def test_span_cap(self):
        header = "# coincidence-histogram v1, bin_width_s=5e-10\n"
        widest = ingest_histogram(header + f"EE,0,1\nOO,{MAX_SPAN_BINS - 1},1\n")
        assert widest.n_bins == MAX_SPAN_BINS
        with pytest.raises(HistogramFormatError, match="span"):
            ingest_histogram(header + f"EE,0,1\nEE,{MAX_SPAN_BINS},1\n")
        with pytest.raises(HistogramFormatError, match="span"):
            ingest_histogram(header + "EE,-3,1\nOO,1000000000000,1\n")

    def test_roundtrip_identity_random(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            pairs = rng.choice(OUTCOMES, size=int(rng.integers(1, 5)), replace=False)
            n_bins = int(rng.integers(1, 60))
            start = int(rng.integers(-40, 10))
            counts = {str(p): rng.integers(0, 500, size=n_bins).astype(np.int64) for p in pairs}
            histogram = Histogram(bin_width_s=0.5e-9, start_index=start, counts=counts)
            back = ingest_histogram(emit_histogram(histogram))
            assert back.bin_width_s == histogram.bin_width_s
            assert back.start_index == histogram.start_index
            assert set(back.counts) == set(histogram.counts)
            for pair in counts:
                assert np.array_equal(back.counts[pair], histogram.counts[pair])

    def test_synthesized_roundtrip(self):
        histogram = synthesize_histogram(CORRELATED, experiment_model(), seed=5)
        back = ingest_histogram(emit_histogram(histogram))
        for pair in OUTCOMES:
            assert np.array_equal(back.counts[pair], histogram.counts[pair])


class TestExtractCounts:
    def flat_histogram(self, level=7, n_bins=100):
        counts = {p: np.full(n_bins, level, dtype=np.int64) for p in OUTCOMES}
        return Histogram(bin_width_s=1e-9, start_index=-50, counts=counts)

    def test_flat_equal_windows_background_equals_peak(self):
        histogram = self.flat_histogram()
        record = extract_counts(histogram, (0.0, 10e-9), (20e-9, 30e-9))
        assert record.counts() == (70, 70, 70, 70)
        assert record.background_per_outcome == (70.0, 70.0, 70.0, 70.0)

    def test_delta_peak_has_zero_background(self):
        counts = {p: np.zeros(100, dtype=np.int64) for p in OUTCOMES}
        for arr in counts.values():
            arr[50] = 42
        histogram = Histogram(bin_width_s=1e-9, start_index=-50, counts=counts)
        record = extract_counts(histogram, (-1e-9, 2e-9), (10e-9, 40e-9))
        assert record.counts() == (42, 42, 42, 42)
        assert record.background_per_outcome == (0.0, 0.0, 0.0, 0.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_counts(self.flat_histogram(), (0.0, 10e-9), (5e-9, 20e-9))

    def test_window_outside_span_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_counts(self.flat_histogram(), (0.0, 10e-9), (40e-9, 60e-9))

    def test_pipeline_recovers_generating_means(self):
        probs = ProbTable(0.449, 0.051, 0.051, 0.449)
        model = experiment_model(efficiency=1.0)
        histogram = synthesize_histogram(probs, model, seed=21)
        record = extract_counts(histogram, DEFAULT_PEAK_WINDOW, DEFAULT_BACKGROUND_WINDOW,
                                duration_s=model.duration)
        for net, p in zip(record.net_counts(), probs.as_tuple()):
            mean = model.duration * model.pair_rate * p
            sigma = math.sqrt(mean + sum(record.background_per_outcome) / 4)
            assert abs(net - mean) <= 4.0 * sigma


class TestVisibility:
    def make_record(self, eo_net, background=0.0, duration=1.0):
        return CountRecord(100, int(eo_net + background), 50, 100, duration=duration,
                           background_per_outcome=(0.0, background, 0.0, 0.0))

    def test_perfect_fringe(self):
        records = [self.make_record(v) for v in (40, 25, 10, 0, 30)]
        vis, sigma = visibility(records, "EO")
        assert vis == 1.0
        assert sigma >= 0.0

    def test_needs_five_points(self):
        with pytest.raises(InvalidInputError):
            visibility([self.make_record(5)] * 4, "EO")

    def test_outcome_validated(self):
        with pytest.raises(InvalidInputError):
            visibility([self.make_record(5)] * 5, "EE")

    def test_all_zero_rejected(self):
        records = [CountRecord(0, 0, 0, 0, duration=1.0) for _ in range(5)]
        with pytest.raises(EstimatorError):
            visibility(records, "EO")

    def test_negative_net_clamped_with_warning(self):
        records = [self.make_record(v) for v in (40, 25, 10, 5, 30)]
        records[3] = CountRecord(100, 2, 50, 100, duration=1.0,
                                 background_per_outcome=(0.0, 10.0, 0.0, 0.0))
        with pytest.warns(RuntimeWarning):
            vis, _ = visibility(records, "EO")
        assert vis == 1.0

    def test_calibrated_scan_reproduces_target_visibility(self):
        # chi tuned so the model fringe shows 85%; single scans at 1.5 Hz /
        # 30 min wobble by a few percent, so average over seeded scans
        chi = crosstalk_for_visibility(0.6955, 0.85)
        model = experiment_model(crosstalk=chi, efficiency=1.0)
        values = []
        for scan in range(20):
            records = scan_records(chi, model, seed=500 + 100 * scan)
            vis, _ = visibility(records, "EO")
            values.append(vis)
        assert abs(float(np.mean(values)) - 0.85) <= 0.05

    def test_ideal_scan_visibility_near_unity(self):
        # no crosstalk, no accidentals: the closed-form fringe floor is exactly zero
        model = MeasurementModel(crosstalk=0.0, efficiency=1.0, pair_rate=1.5,
                                 accidental_rate=0.0, duration=1e6)
        records = scan_records(0.0, model, seed=9)
        vis, _ = visibility(records, "EO")
        assert vis >= 0.999

    def test_finite_41_bin_model_visibility(self, golden):
        # The sharp 41-bin simulation does not reach the closed-form unit
        # visibility: its fringe floor is the edge-breakage leakage at drive
        # cancellation, giving V ~ 0.968 (noiseless model fringe).
        from freqbin import apply_modulator, correlated_state, parity_probabilities
        base = correlated_state(range(-20, 21))
        fixed = ModulationSetting(0.6955, 0.0)
        values = []
        for alpha in np.linspace(0.0, 2.0 * math.pi, 25):
            state = apply_modulator(base, "A", ModulationSetting(0.6955, float(alpha)))
            state = apply_modulator(state, "B", fixed)
            values.append(parity_probabilities(state).p_eo)
        p_max, p_min = max(values), min(values)
        assert abs(p_min - golden["finite_41bin_cancellation_p_eo"]) < 1e-12
        vis = (p_max - p_min) / (p_max + p_min)
        assert abs(vis - 0.968423331667212) < 1e-9


class TestCrosstalkCalibration:
    def test_model_fringe_hits_target(self):
        chi = crosstalk_for_visibility(0.6955, 0.85)
        aligned = apply_crosstalk(ideal_probabilities(
            effective_drive(ModulationSetting(0.6955, 0.0), ModulationSetting(0.6955, 0.0))), chi)
        p_max = aligned.p_eo
        p_min = chi * (1.0 - chi)
        assert abs((p_max - p_min) / (p_max + p_min) - 0.85) <= 1e-9

    def test_target_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            crosstalk_for_visibility(0.6955, 1.2)
        with pytest.raises(InvalidInputError):
            crosstalk_for_visibility(0.6955, 0.0)

    def test_tiny_target_saturates_near_full_mixing(self):
        assert crosstalk_for_visibility(0.6955, 1e-6) == pytest.approx(0.5, abs=1e-3)

    def test_zero_crosstalk_for_unit_target(self):
        assert crosstalk_for_visibility(0.6955, 1.0) <= 1e-10


class TestChshEstimate:
    def proportional_records(self, scale=4e9):
        records = []
        for sa, sb in chsh_optimal_quad().pairs():
            table = ideal_probabilities(effective_drive(sa, sb))
            counts = [round(p * scale) for p in table.as_tuple()]
            records.append(CountRecord(*counts, duration=1.0))
        return records

    def test_exactly_proportional_counts_reproduce_theory(self):
        s, _, c_table = chsh_estimate(self.proportional_records(), subtract=False)
        theory = chsh_ideal(chsh_optimal_quad())
        assert abs(s - theory.s_value) <= 1e-6
        for c, e in zip(c_table, theory.correlators):
            assert abs(c - e) <= 1e-6
        for c, target in zip(c_table, (0.796, 0.796, 0.796, -0.178)):
            assert abs(c - target) <= 5e-4

    def test_algebraic_extreme(self):
        correlated = CountRecord(500, 0, 0, 500, duration=1.0)
        anticorrelated = CountRecord(0, 500, 500, 0, duration=1.0)
        s, _, c_table = chsh_estimate([correlated, correlated, correlated, anticorrelated],
                                      subtract=False)
        assert s == 4.0
        assert c_table == (1.0, 1.0, 1.0, -1.0)

    def test_c_values_bounded_for_nonnegative_nets(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            records = [CountRecord(*(int(v) for v in rng.integers(1, 1000, 4)), duration=1.0)
                       for _ in range(4)]
            _, _, c_table = chsh_estimate(records, subtract=False)
            assert all(abs(c) <= 1.0 for c in c_table)

    def test_non_positive_denominator_rejected(self):
        background_only = CountRecord(100, 100, 100, 100, duration=1.0,
                                      background_per_outcome=(100.0,) * 4)
        with pytest.raises(EstimatorError, match="non-positive net denominator"):
            chsh_estimate([background_only] * 4, subtract=True)

    def test_uniform_normalization_cancels(self):
        records = self.proportional_records(scale=1e7)
        s_plain, _, _ = chsh_estimate(records, subtract=False)
        s_scaled, _, _ = chsh_estimate(records, subtract=False,
                                       normalization=(2.0, 2.0, 2.0, 2.0))
        assert abs(s_plain - s_scaled) < 1e-12

    def test_per_outcome_normalization_reweights(self):
        record = CountRecord(300, 100, 100, 300, duration=1.0)
        _, _, c_plain = chsh_estimate([record] * 4, subtract=False)
        _, _, c_norm = chsh_estimate([record] * 4, subtract=False,
                                     normalization=(1.5, 1.0, 1.0, 1.5))
        # deflating the diagonal outcomes lowers C = (same - cross) / (same + cross)
        assert c_norm[0] < c_plain[0]

    def test_normalization_factors_positive_and_finite(self):
        records = self.proportional_records()
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="normalization"):
                chsh_estimate(records, normalization=(1.0, 1.0, 1.0, bad))

    def test_estimator_consistency_long_duration(self):
        chi = 0.02
        model = experiment_model(crosstalk=chi, efficiency=1.0, duration=1800.0 * 1e4)
        quad = chsh_optimal_quad()
        tables = [apply_crosstalk(ideal_probabilities(effective_drive(sa, sb)), chi)
                  for sa, sb in quad.pairs()]
        generating_s = (tables[0].correlator + tables[1].correlator
                        + tables[2].correlator - tables[3].correlator)
        records = [simulate_counts(tables[i], model, seed=40 + i) for i in range(4)]
        s, sigma_s, _ = chsh_estimate(records, subtract=True)
        assert abs(s - generating_s) <= 3.0 * sigma_s

    def test_background_subtraction_unbiased(self):
        model = experiment_model(efficiency=1.0, duration=600.0)
        probs = ProbTable(0.449, 0.051, 0.051, 0.449)
        nets = np.array([simulate_counts(probs, model, seed=s).net_counts()
                         for s in range(200)])
        signal = np.array([model.duration * model.pair_rate * p for p in probs.as_tuple()])
        for outcome in range(4):
            raw_var = signal[outcome] + model.duration * model.accidental_rate / 4
            standard_error = math.sqrt(raw_var / 200)
            assert abs(nets[:, outcome].mean() - signal[outcome]) <= 3.0 * standard_error

    def test_needs_four_records(self):
        with pytest.raises(InvalidInputError):
            chsh_estimate([CountRecord(1, 1, 1, 1, duration=1.0)] * 3)


class TestCountRecordJson:
    def test_schema_roundtrip(self):
        record = CountRecord(10, 2, 3, 11, setting_labels=("A0", "B1"), duration=1800.0,
                             background_per_outcome=(1.0, 1.5, 0.5, 2.0))
        data = record.to_json_dict()
        assert set(data) == {"setting_a", "setting_b", "duration_s", "counts", "background"}
        assert set(data["counts"]) == set(OUTCOMES)
        assert CountRecord.from_json_dict(data) == record
