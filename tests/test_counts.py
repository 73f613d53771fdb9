"""Count synthesis, histogram ingestion, and the visibility/CHSH estimators."""

import io
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin import (CountRecord, EstimatorError, Histogram, HistogramFormatError,
                     InvalidInputError, MeasurementModel, ModulationSetting, ProbTable,
                     apply_crosstalk, chsh_estimate, chsh_ideal, crosstalk_for_visibility,
                     effective_drive, emit_histogram, extract_counts, ideal_probabilities,
                     ingest_histogram, chsh_optimal_quad, simulate_counts, synthesize_histogram,
                     visibility)
from freqbin.counts import (_CHUNK_CHARS, _HEADER_RE, DEFAULT_BACKGROUND_WINDOW,
                            DEFAULT_PEAK_WINDOW, MAX_POISSON_MEAN, MAX_SPAN_BINS, OUTCOMES,
                            _is_canonical, _line_chunks, _read_text, simulate_chsh_ensembles)

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


# --- oracles: the earlier per-row implementations, kept verbatim ---------------

def oracle_ingest_histogram(source) -> Histogram:
    """Parse the histogram CSV format from a string, bytes, or readable stream.

    Malformed input is rejected with the offending line number.
    """
    text = _read_text(source)
    lines = text.splitlines()
    if not lines:
        raise HistogramFormatError("empty input", line=1)
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise HistogramFormatError("expected '# coincidence-histogram v1, bin_width_s=<float>'", line=1)
    try:
        bin_width = float(match.group(1))
    except ValueError:
        raise HistogramFormatError("unparsable bin_width_s", line=1) from None
    if not 0.0 < bin_width < math.inf:
        raise HistogramFormatError("bin_width_s must be positive and finite", line=1)

    rows: dict[str, list[tuple[int, int]]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = stripped.split(",")
        if len(fields) != 3:
            raise HistogramFormatError("expected 'channel_pair,delay_bin_index,count'", line=lineno)
        pair = fields[0].strip()
        if pair not in OUTCOMES:
            raise HistogramFormatError(f"unknown channel pair {pair!r}", line=lineno)
        try:
            index = int(fields[1])
            count = int(fields[2])
        except ValueError:
            raise HistogramFormatError("delay_bin_index and count must be integers", line=lineno) from None
        if count < 0:
            raise HistogramFormatError(f"negative count {count}", line=lineno)
        per_pair = rows.setdefault(pair, [])
        if per_pair and index <= per_pair[-1][0]:
            raise HistogramFormatError(
                f"non-monotone delay bins for {pair}: {index} after {per_pair[-1][0]}", line=lineno)
        per_pair.append((index, count))
    if not rows:
        raise HistogramFormatError("no data rows", line=len(lines))

    lo = min(idx for entries in rows.values() for idx, _ in entries)
    hi = max(idx for entries in rows.values() for idx, _ in entries)
    if hi - lo + 1 > MAX_SPAN_BINS:
        raise HistogramFormatError(
            f"delay bins {lo}..{hi} span {hi - lo + 1} bins, more than {MAX_SPAN_BINS}")
    counts = {}
    for pair, entries in rows.items():
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        for index, count in entries:
            arr[index - lo] = count
        counts[pair] = arr
    return Histogram(bin_width_s=bin_width, start_index=lo, counts=counts)


def oracle_emit_histogram(histogram: Histogram) -> str:
    """Serialize to the histogram CSV format (canonical pair and index order)."""
    lines = [f"# coincidence-histogram v1, bin_width_s={histogram.bin_width_s!r}"]
    for pair in OUTCOMES:
        if pair not in histogram.counts:
            continue
        for offset, count in enumerate(histogram.counts[pair]):
            lines.append(f"{pair},{histogram.start_index + offset},{int(count)}")
    return "\n".join(lines) + "\n"


def oracle_emit_per_pair(histogram: Histogram) -> str:
    """emit_histogram with one `%` pass per pair over its interleaved index and count fields."""
    parts = [f"# coincidence-histogram v1, bin_width_s={histogram.bin_width_s!r}\n"]
    start = histogram.start_index
    n = histogram.n_bins
    fields = [0] * (2 * n)  # index, count, index, count, ...
    fields[0::2] = range(start, start + n)
    for pair in OUTCOMES:
        if pair in histogram.counts:
            fields[1::2] = histogram.counts[pair].tolist()
            parts.append((pair + ",%d,%d\n") * n % tuple(fields))
    return "".join(parts)


# the block-wise regex check that _is_canonical replaced: the language of canonical chunks
_CANONICAL_ROWS = re.compile(r"(?:[EO][EO],-?[0-9]{1,18},[0-9]{1,18}\n)+")


def oracle_crosstalk_for_visibility(amplitude: float, target: float, *, tol: float = 1e-12) -> float:
    """Crosstalk chi that degrades the ideal equal-amplitude phase-scan visibility to target.

    In the closed-form model the cross-outcome fringe runs from
    chi * (1 - chi) at drive cancellation up to the mixed table value at
    phase agreement; V(chi) is strictly decreasing on [0, 0.5], so a
    bisection inverts it.
    """
    if not 0.0 < target <= 1.0:
        raise InvalidInputError("target visibility must lie in (0, 1]")

    def vis_of(chi: float) -> float:
        aligned = apply_crosstalk(ideal_probabilities(
            effective_drive(ModulationSetting(amplitude, 0.0), ModulationSetting(amplitude, 0.0))), chi)
        p_max = aligned.p_eo
        p_min = chi * (1.0 - chi)
        return (p_max - p_min) / (p_max + p_min)

    lo, hi = 0.0, 0.5
    if vis_of(hi) > target:
        raise InvalidInputError(f"target visibility {target} unreachable at amplitude {amplitude}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if vis_of(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def model_visibility(amplitude, chi):
    """Closed-form phase-scan fringe visibility at crosstalk chi."""
    setting = ModulationSetting(amplitude, 0.0)
    aligned = apply_crosstalk(ideal_probabilities(effective_drive(setting, setting)), chi)
    p_min = chi * (1.0 - chi)
    return (aligned.p_eo - p_min) / (aligned.p_eo + p_min)


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

    def test_poisson_mean_cap(self):
        # pair_rate 1e17 over 1800 s once reached numpy's "lam value too large"
        for model in (experiment_model(pair_rate=1e17), experiment_model(accidental_rate=1e15),
                      experiment_model(pair_rate=1e300, duration=1e300)):
            with pytest.raises(InvalidInputError, match="expected counts above"):
                simulate_counts(CORRELATED, model, seed=1)
            with pytest.raises(InvalidInputError, match="expected counts above"):
                synthesize_histogram(CORRELATED, model, seed=1)
        at_cap = experiment_model(efficiency=1.0, accidental_rate=0.0,
                                  pair_rate=1.9 * MAX_POISSON_MEAN / 1800.0)
        assert sum(simulate_counts(CORRELATED, at_cap, seed=1).counts()) > MAX_POISSON_MEAN

    def test_span_must_exceed_the_peak(self):
        with pytest.raises(InvalidInputError, match="span must exceed the peak width"):
            synthesize_histogram(CORRELATED, experiment_model(), seed=1, span_bins=4)

    def test_ensembles_need_four_tables(self):
        with pytest.raises(InvalidInputError, match="needs exactly 4 tables"):
            simulate_chsh_ensembles([CORRELATED] * 3, experiment_model(), 1, 2)

    @pytest.mark.parametrize("draw, message", [
        (lambda: simulate_counts(CORRELATED, experiment_model(), -1), "seed must be an integer >= 0, got -1"),
        (lambda: synthesize_histogram(CORRELATED, experiment_model(), -1), "seed must be an integer >= 0"),
        (lambda: synthesize_histogram(CORRELATED, experiment_model(), 1.5), "seed must be an integer >= 0"),
        (lambda: simulate_counts(CORRELATED, experiment_model(), True), "seed must be an integer >= 0"),
        (lambda: simulate_chsh_ensembles([CORRELATED] * 4, experiment_model(), -1, 10),
         "seed must be an integer >= 0"),
        (lambda: simulate_chsh_ensembles([CORRELATED] * 4, experiment_model(), 1, -1),
         "ensembles must be an integer >= 0, got -1"),
        (lambda: simulate_chsh_ensembles([CORRELATED] * 4, experiment_model(), 1, 2.5),
         "ensembles must be an integer >= 0, got 2.5"),
        (lambda: synthesize_histogram(CORRELATED, experiment_model(), 1, span_bins=20.5),
         "span_bins must be an integer, got 20.5"),
    ])
    def test_bad_draw_arguments_rejected(self, draw, message):
        # each once let numpy's ValueError or TypeError through
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            draw()

    def test_generator_and_numpy_integer_seeds_accepted(self):
        model = experiment_model()
        assert simulate_counts(CORRELATED, model, np.int64(5)) == simulate_counts(CORRELATED, model, 5)
        assert (simulate_counts(CORRELATED, model, np.random.default_rng(5))
                == simulate_counts(CORRELATED, model, 5))
        first = synthesize_histogram(CORRELATED, model, np.random.default_rng(6))
        second = synthesize_histogram(CORRELATED, model, 6)
        assert all(np.array_equal(first.counts[o], second.counts[o]) for o in OUTCOMES)
        s_values, _ = simulate_chsh_ensembles([CORRELATED] * 4, model, np.random.default_rng(7), 3)
        assert np.array_equal(s_values, simulate_chsh_ensembles([CORRELATED] * 4, model, 7, 3)[0])

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

    def test_leaves_the_callers_dict_alone(self):
        counts = {"EE": [1, 2, 3]}
        histogram = Histogram(bin_width_s=1e-9, start_index=0, counts=counts)
        assert isinstance(counts["EE"], list) and counts["EE"] == [1, 2, 3]
        assert histogram.counts is not counts
        assert histogram.counts["EE"].dtype == np.int64

    def test_bytes_and_stream_sources(self):
        from_bytes = ingest_histogram(self.MINIMAL.encode())
        from_stream = ingest_histogram(io.StringIO(self.MINIMAL))
        assert np.array_equal(from_bytes.counts["EE"], from_stream.counts["EE"])

    @pytest.mark.parametrize("text, message", [
        ("EE,0,1\n", "expected '# coincidence-histogram v1"),
        ("", "empty input"),
        ("# coincidence-histogram v1, bin_width_s=1e\nEE,0,1\n", "unparsable bin_width_s"),
        ("# coincidence-histogram v1, bin_width_s=0\nEE,0,1\n", "bin_width_s must be positive and finite"),
        ("# coincidence-histogram v1, bin_width_s=1e400\nEE,0,1\n",  # reads as inf
         "bin_width_s must be positive and finite"),
    ])
    def test_bad_header(self, text, message):
        with pytest.raises(HistogramFormatError, match=f"^line 1: {message}") as excinfo:
            ingest_histogram(text)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("width, counts, message", [
        (0.0, {"EE": [1]}, "bin_width_s must be positive and finite"),
        (float("nan"), {"EE": [1]}, "bin_width_s must be positive and finite"),
        (1e-9, {}, "histogram needs at least one channel pair"),
        (1e-9, {"XY": [1]}, "unknown channel pair 'XY'"),
        (1e-9, {"EE": [1, -1]}, "histogram counts must be >= 0"),
        (1e-9, {"EE": [1, 2], "OO": [1]}, "channel-pair arrays must share one nonzero length"),
        (1e-9, {"EE": []}, "channel-pair arrays must share one nonzero length"),
        (math.inf, {"EE": [1]}, "bin_width_s must be positive and finite"),
        (-math.inf, {"EE": [1]}, "bin_width_s must be positive and finite"),
        (10**400, {"EE": [1]}, "bin_width_s must be positive and finite"),
        # True was once written as bin_width_s=True; a string or None raised a bare TypeError
        (True, {"EE": [1]}, "bin_width_s must be a real number, got True"),
        (np.True_, {"EE": [1]}, "bin_width_s must be a real number, got np.True_"),
        ("5e-10", {"EE": [1]}, "bin_width_s must be a real number, got '5e-10'"),
        (None, {"EE": [1]}, "bin_width_s must be a real number, got None"),
        (1j, {"EE": [1]}, "bin_width_s must be a real number, got 1j"),
    ])
    def test_histogram_checks_its_fields(self, width, counts, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            Histogram(bin_width_s=width, start_index=0, counts=counts)

    @pytest.mark.parametrize("width", [5e-324, 1e-9, 0.1, 1.7976931348623157e308,
                                       np.float64(5e-10), np.float32(5e-10), np.int64(3), 3])
    def test_every_finite_bin_width_round_trips(self, width):
        # an infinite width was once written as "inf", and a numpy one as
        # "np.float64(5e-10)", which the header then rejected
        histogram = Histogram(bin_width_s=width, start_index=-2, counts={"OE": [4, 0, 9]})
        assert type(histogram.bin_width_s) is float
        back = ingest_histogram(emit_histogram(histogram))
        assert back.bin_width_s == width and back.start_index == -2
        assert back.counts["OE"].tolist() == [4, 0, 9]

    def test_negative_count_names_line(self):
        text = "# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\nEE,1,-2\n"
        with pytest.raises(HistogramFormatError) as excinfo:
            ingest_histogram(text)
        assert excinfo.value.line == 3
        assert "line 3" in str(excinfo.value)

    def test_count_beyond_int64_names_line(self):
        # once an OverflowError traceback from the int64 array store
        header = "# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\n"
        assert ingest_histogram(header + f"EE,1,{2**63 - 1}\n").counts["EE"][1] == 2**63 - 1
        with pytest.raises(HistogramFormatError, match="exceeds int64") as excinfo:
            ingest_histogram(header + f"EE,1,{2**63}\n")
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("row, message", [
        ("XY,0.5,1", "unknown channel pair 'XY'"),  # an unknown pair outranks bad integers,
        ("EE,0,-2", "negative count -2"),           # and a bad count outranks an order fault
        (f"EE,0,{2**63}", "exceeds int64"),
    ])
    def test_a_row_with_two_faults_names_the_first_check(self, row, message):
        text = f"# coincidence-histogram v1, bin_width_s=5e-10\nEE,1,3\n{row}\n"
        with pytest.raises(HistogramFormatError, match=message) as excinfo:
            ingest_histogram(text)
        assert excinfo.value.line == 3

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

    def test_source_of_another_type_rejected(self):
        with pytest.raises(InvalidInputError, match="cannot read histogram from <class 'int'>"):
            ingest_histogram(5)

    def test_non_utf8_names_line(self):
        data = b"# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\nEE,1,\xff\n"
        for source in (data, io.BytesIO(data)):
            with pytest.raises(HistogramFormatError) as excinfo:
                ingest_histogram(source)
            assert excinfo.value.line == 3

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\x0c", "\x85", "\u2028"])
    def test_non_utf8_line_follows_the_parsers_line_breaks(self, newline):
        # the bad byte and an unknown pair on line 3 are both reported there
        lines = ["# coincidence-histogram v1, bin_width_s=5e-10", "EE,0,3", "EE,1,{}", "EE,2,1"]
        text = newline.join(lines)
        with pytest.raises(HistogramFormatError, match="unknown channel pair") as excinfo:
            ingest_histogram(text.format("3").replace("EE,1", "XY,1"))
        assert excinfo.value.line == 3
        head, tail = text.encode("utf-8").split(b"{}")
        with pytest.raises(HistogramFormatError, match="not UTF-8") as excinfo:
            ingest_histogram(head + b"\xff" + tail)
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


HEADERS = ("# coincidence-histogram v1, bin_width_s=5e-10",
           "#coincidence-histogram v1,bin_width_s=1e-9  ",
           "# coincidence-histogram v1, bin_width_s=2.5E-10")
FAULTS = ("none", "arity", "unknown pair", "non-integer", "negative count", "non-monotone",
          "span", "non-utf8", "no rows")
PADS = ("", " ", "\t", "  ", "\u3000")  # U+3000 is the ideographic space
DIGIT_SETS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
              "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",  # fullwidth
              "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f")  # Devanagari


def int_text(rng, value):
    """value as canonical text, or spelled as '+12', '1_000' or in non-ASCII digits, which int() reads."""
    text = str(value)
    roll = rng.random()
    if roll < 0.1 and value >= 0:
        return "+" + text
    if roll < 0.15 and len(text.lstrip("-")) >= 2:
        cut = rng.randint(len(text) - len(text.lstrip("-")) + 1, len(text) - 1)
        return text[:cut] + "_" + text[cut:]
    if roll < 0.2:
        return text.translate(str.maketrans("0123456789", rng.choice(DIGIT_SETS)))
    return text


def styled_row(rng, pair, index, count):
    """One data row, canonical or with the padding and integer spellings the format tolerates."""
    fields = [pair, int_text(rng, index), int_text(rng, count)]
    if rng.random() < 0.2:
        fields = [rng.choice(PADS) + field + rng.choice(PADS) for field in fields]
    return ",".join(fields)


def generated_file(rng, fault):
    """Histogram file bytes from a random.Random: a valid random body with one injected fault."""
    pairs = rng.sample(OUTCOMES, rng.randint(1, 4))
    bins = {}
    for p in pairs:  # strictly increasing, with gaps
        index = rng.randrange(-60, 60)
        bins[p] = [index := index + rng.randint(1, 3) for _ in range(rng.randint(1, 40))]
    order = [p for p in pairs for _ in bins[p]]
    if rng.random() < 0.5:  # interleaved pairs; otherwise one block per pair
        rng.shuffle(order)
    cursor = dict.fromkeys(pairs, 0)
    rows = []  # (pair, index) of each valid row, in file order
    for p in order:
        rows.append((p, bins[p][cursor[p]]))
        cursor[p] += 1
    texts = [styled_row(rng, p, i, rng.randrange(1000)) for p, i in rows]

    at = rng.randint(0, len(texts))
    pair = rng.choice(OUTCOMES)
    if fault == "arity":
        texts.insert(at, rng.choice([f"{pair},1", f"{pair},1,2,3", pair, "1,2"]))
    elif fault == "unknown pair":
        texts.insert(at, rng.choice(["XY,0,1", "ee,0,1", ",0,1", "E E,0,1"]))
    elif fault == "non-integer":
        texts.insert(at, rng.choice([f"{pair},0.5,1", f"{pair},1,x", f"{pair},,3",
                                     f"{pair},1,1e3", f"{pair},1,"]))
    elif fault == "negative count":
        texts.insert(at, f"{pair},{rng.randint(-5, 5)},-{rng.randint(1, 9)}")
    elif fault == "non-monotone":
        j = rng.randrange(len(rows))
        p, index = rows[j]
        texts.insert(j + 1, f"{p},{index - rng.randint(0, 2)},1")
    elif fault == "span":  # past the cap by 0 (still valid), 1 or 2 bins
        lo = min(index for _, index in rows)
        texts.append(f"{rows[-1][0]},{lo + MAX_SPAN_BINS - 1 + rng.randint(0, 2)},1")
    elif fault == "no rows":
        texts = []
    for _ in range(rng.randint(0, 3)):  # blank and whitespace-only lines
        texts.insert(rng.randint(0, len(texts)), rng.choice(PADS))
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join([rng.choice(HEADERS)] + texts) + (newline if rng.random() < 0.8 else "")
    data = text.encode("utf-8")
    if fault == "non-utf8":
        lines = data.split(b"\n")
        k = rng.randrange(len(lines))
        lines[k] = lines[k] + b"\xff"
        data = b"\n".join(lines)
    return data


def parse_outcome(parse, source):
    """("ok", width, start, pairs) or (error type, message, line), and the arrays if any."""
    try:
        histogram = parse(source)
    except (HistogramFormatError, InvalidInputError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None)), {}
    return ("ok", histogram.bin_width_s, histogram.start_index, sorted(histogram.counts)), \
        histogram.counts


def assert_same_parse(source_factory, context):
    want, want_arrays = parse_outcome(oracle_ingest_histogram, source_factory())
    got, got_arrays = parse_outcome(ingest_histogram, source_factory())
    assert got == want, context
    for pair, arr in want_arrays.items():
        assert np.array_equal(got_arrays[pair], arr), context
    return want[0]


class TestParserEquivalence:
    def test_generated_files_match_oracle(self):
        rng = random.Random(20261018)
        seen = {}
        for k in range(1200):
            fault = FAULTS[k % len(FAULTS)]
            data = generated_file(rng, fault)
            as_text = fault != "non-utf8" and rng.random() < 0.5
            source = data.decode("utf-8") if as_text else data
            stream = io.StringIO if as_text else io.BytesIO
            make = (lambda: source) if k % 2 == 0 else (lambda: stream(source))
            seen.setdefault(fault, set()).add(assert_same_parse(make, (fault, data)))
        assert all(HistogramFormatError in kinds for fault, kinds in seen.items() if fault != "none")
        assert seen["none"] == {"ok"} and "ok" in seen["span"]

    def test_integer_spellings_int_reads_are_accepted(self):
        header = "# coincidence-histogram v1, bin_width_s=5e-10\n"
        body = ("EE,-1_0,1_000\n"
                "EE,\u0663,\u0664\u0662\n"              # Arabic-Indic 3 and 42
                "\u3000EO\u3000,\u3000-10\u3000,\u30007\u3000\n"
                "\u3000\n")
        assert assert_same_parse(lambda: header + body, body) == "ok"
        histogram = ingest_histogram(header.encode() + body.encode("utf-8"))
        assert histogram.start_index == -10
        assert histogram.counts["EE"].tolist() == [1000] + [0] * 12 + [42]
        assert histogram.counts["EO"].tolist() == [7] + [0] * 13

    def test_far_delay_bins_match_oracle(self):
        header = "# coincidence-histogram v1, bin_width_s=5e-10\n"
        for body in (f"EE,{10**27},5\nOO,{10**27 + 2},1\nEE,{10**27 + 1},3\n",
                     f"EE,{-10**30},5\nEE,{-10**30 + 4},1\n",
                     f"EE,{-2**63 - 1},5\nOO,{-2**63 + 5},1\n",   # pairs either side of int64
                     f"EE,{2**63 - 5},5\nOO,{2**63 + 5},1\n",
                     f"EE,{-10**30},5\nOO,{10**30},1\n"):
            assert_same_parse(lambda: header + body, body)


HEADER = "# coincidence-histogram v1, bin_width_s=5e-10"
# one faulty row each, from the row's delay bin n; the EE row before it holds bin n - 1
CUT_FAULTS = {"arity": lambda n: f"EE,{n}", "unknown pair": lambda n: f"XY,{n},1",
              "non-integer": lambda n: f"EE,{n},x", "negative count": lambda n: f"EE,{n},-3",
              "count past int64": lambda n: f"EE,{n},{2**63}",
              "non-monotone": lambda n: f"EE,{n - 1},1", "span": lambda n: f"OO,{MAX_SPAN_BINS},1"}
# valid (line ending the first chunk, lines opening the next), numbering the free EE
# bins from {0}; the line before the cut may hold other line breaks, never a "\n"
CUT_SEPARATORS = [("EE,{0},1\r", "EE,{1},1"),                          # "\r\n" at the cut
                  ("EE,{0},1\rEE,{1},1", "EE,{2},1\rEE,{3},1"),
                  ("EE,{0},1\x0cEE,{1},1", "\x0cEE,{2},1"),
                  ("EE,{0},1\u2028EE,{1},1", "EE,{2},1\u2029\x85EE,{3},1"),
                  ("   ", "\n\t\nEE,{0},1"),                              # blank lines
                  (" EE ,{0}, 1", "\u3000EE\t,{1},1 "),              # padded pair spellings
                  ("EE,{0},1", " EE,{1},1\nEE,{2},1"),
                  ("OO,{0},1", "EE,{0},1")]                               # a pair's first row


def text_around_cut(chunk, last, first, shift=0):
    """Histogram text with a chunk cut between two given lines, and their line numbers.

    Filler rows EE,0,1, EE,1,1, ... end at character chunk - shift. The line
    last(i) follows, with i the next free EE bin, so its newline is the first
    at or past character chunk (for len(last(i)) >= shift) and ends the
    parser's first chunk; first(i) opens the next one, and three valid rows
    close the text.
    """
    rows = [HEADER]
    size = len(HEADER) + 1
    while size + len(f"EE,{len(rows) - 1},1\n") <= chunk - shift:
        rows.append(f"EE,{len(rows) - 1},1")
        size += len(rows[-1]) + 1
    rows[-1] += " " * (chunk - shift - size)  # the count field takes trailing spaces
    i = len(rows) - 1
    lines = rows + [last(i), first(i)] + [f"EE,{n},2" for n in range(i + 10, i + 13)]
    text = "\n".join(lines) + "\n"
    assert text.find("\n", chunk) == len("\n".join(rows + [last(i)]))
    return text, len(rows) + 1, len(rows) + 2


class TestChunkedIngest:
    """The parser splits the text into lines a chunk of _CHUNK_CHARS characters at a time.

    Small chunks put cuts into short texts; the oracle splits the whole text at once.
    """

    CHUNK = 256

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr("freqbin.counts._CHUNK_CHARS", self.CHUNK)

    @pytest.mark.parametrize("fault", sorted(CUT_FAULTS))
    def test_fault_either_side_of_a_cut(self, small_chunks, fault):
        self.assert_fault_either_side(self.CHUNK, fault)

    def test_fault_either_side_of_a_full_size_cut(self):
        from freqbin.counts import _CHUNK_CHARS
        self.assert_fault_either_side(_CHUNK_CHARS, "non-monotone")

    def assert_fault_either_side(self, chunk, fault):
        row = CUT_FAULTS[fault]
        text, line, _ = text_around_cut(chunk, row, lambda i: f"EE,{i + 1},1")
        self.assert_fault(text, fault, line)
        text, _, line = text_around_cut(chunk, lambda i: f"EE,{i},1", lambda i: row(i + 1))
        self.assert_fault(text, fault, line)

    def assert_fault(self, text, fault, line):
        if fault != "count past int64":  # which the oracle stores, and overflows
            assert assert_same_parse(lambda: text, fault) is HistogramFormatError
        with pytest.raises(HistogramFormatError) as excinfo:
            ingest_histogram(text)
        assert excinfo.value.line == (None if fault == "span" else line)

    @pytest.mark.parametrize("last, first", CUT_SEPARATORS)
    @pytest.mark.parametrize("shift", [0, 1, 3])
    def test_line_breaks_blank_lines_and_padding_at_a_cut(self, small_chunks, last, first, shift):
        text, _, _ = text_around_cut(self.CHUNK, lambda i: last.format(*range(i, i + 4)),
                                     lambda i: first.format(*range(i, i + 4)), shift)
        assert assert_same_parse(lambda: text, (last, first)) == "ok"
        data = text.replace("\n", "\r\n").encode("utf-8")
        assert assert_same_parse(lambda: io.BytesIO(data), (last, first, "\r\n")) == "ok"

    @pytest.mark.parametrize("chunk", [None, 4096, 97])
    def test_benchmark_shaped_files(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr("freqbin.counts._CHUNK_CHARS", chunk)
        probs = apply_crosstalk(ideal_probabilities(effective_drive(
            ModulationSetting(0.6955, 0.0), ModulationSetting(0.6955, 1.0))), 0.0241)
        for seed in range(3):
            histogram = synthesize_histogram(probs, experiment_model(), seed, span_bins=2000)
            text = emit_histogram(histogram)
            assert assert_same_parse(lambda: text, seed) == "ok"
            back = ingest_histogram(text)
            assert back.start_index == histogram.start_index
            assert list(back.counts) == list(OUTCOMES)
            for pair in OUTCOMES:
                assert np.array_equal(back.counts[pair], histogram.counts[pair])


def canonical_text(rows):
    """Histogram text of (pair, index, count) rows, each written as emit_histogram writes it."""
    return HEADER + "\n" + "".join(f"{pair},{index},{count}\n" for pair, index, count in rows)


@pytest.fixture
def fast_rows(monkeypatch):
    """Rows the numpy pass takes from each chunk, in order; 0 where the row loop reads the chunk."""
    from freqbin import counts
    taken, numpy_pass = [], counts._canonical_rows

    def logged(chunk, table):
        taken.append(numpy_pass(chunk, table))
        return taken[-1]
    monkeypatch.setattr(counts, "_canonical_rows", logged)
    return taken


# one mutation of a canonical file: a character inserted, replaced or deleted, two
# adjacent rows swapped, or the last newline dropped
MUTATIONS = ("none", "insert", "replace", "delete", "swap rows", "no final newline")
MUTANT_CHARS = " \t\r\n\x0c+_-,09EOex\u0663\u3000"


@st.composite
def canonical_rows(draw):
    """Rows with bins rising per pair from a shared base, up to 18 digits; counts of up to 17."""
    base = draw(st.sampled_from([0, -(10**18 - 1), 10**18 - 200]) | st.integers(-10**6, 10**6))
    rows = []
    for pair in draw(st.lists(st.sampled_from(OUTCOMES), unique=True, min_size=1)):
        offsets = sorted(draw(st.lists(st.integers(0, 199), unique=True, min_size=1, max_size=40)))
        counts = st.integers(0, 1000) | st.integers(0, 10**17 - 1)
        rows.append([(pair, base + offset, draw(counts)) for offset in offsets])
    order = [k for k, block in enumerate(rows) for _ in block]
    if draw(st.booleans()):  # interleaved pairs; otherwise one run per pair
        draw(st.randoms(use_true_random=False)).shuffle(order)
    blocks = [iter(block) for block in rows]
    return [next(blocks[k]) for k in order]


class TestCanonicalPass:
    """The numpy pass reads chunks of rows as emit_histogram writes them; the row loop, the rest.

    The oracle checks the result, message and line of every parse, and
    fast_rows which chunks the numpy pass took. Chunks of 256 characters put
    several cuts into short texts.
    """

    CHUNK = 256

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr("freqbin.counts._CHUNK_CHARS", self.CHUNK)

    @staticmethod
    def assert_oracle(text, outcome=None):
        """assert_same_parse with one ingest call, and pairs in the order the oracle keeps them."""
        want, want_arrays = parse_outcome(oracle_ingest_histogram, text)
        got, got_arrays = parse_outcome(ingest_histogram, text)
        assert got == want, text
        assert list(got_arrays) == list(want_arrays), text
        for pair, arr in want_arrays.items():
            assert np.array_equal(got_arrays[pair], arr), text
        assert outcome in (None, want[0])

    @pytest.mark.parametrize("chunk", [None, 4096, 97])
    def test_emitted_files_never_reach_the_row_loop(self, monkeypatch, chunk):
        # a numpy pass that declined every chunk would pass every equivalence test
        if chunk is not None:
            monkeypatch.setattr("freqbin.counts._CHUNK_CHARS", chunk)

        def row_loop(lines, lineno, table):
            if lines:
                raise AssertionError(f"row loop reached at line {lineno + 1}")
            return lineno
        monkeypatch.setattr("freqbin.counts._parse_rows", row_loop)
        probs = apply_crosstalk(ideal_probabilities(effective_drive(
            ModulationSetting(0.6955, 0.0), ModulationSetting(0.6955, 1.0))), 0.0241)
        for seed in range(3):
            histogram = synthesize_histogram(probs, experiment_model(), seed, span_bins=2000)
            text = emit_histogram(histogram)
            back = ingest_histogram(text)
            assert back.start_index == histogram.start_index
            assert list(back.counts) == list(OUTCOMES)
            for pair in OUTCOMES:
                assert np.array_equal(back.counts[pair], histogram.counts[pair])
            with pytest.raises(AssertionError, match="row loop reached at line 2$"):
                ingest_histogram(text.replace("\n", "\r\n"))

    @pytest.mark.parametrize("rows, taken", [
        ([("EE", "-0", 7), ("EE", "0001", "00"), ("EE", "0" * 17 + "2", "0" * 17 + "9")], True),
        ([("EE", 10**18 - 2, 1), ("EE", 10**18 - 1, 10**18 - 1)], True),
        ([("OO", -(10**18 - 1), 3), ("OO", -(10**18 - 2), 4)], True),
        ([("OO", -(10**18 - 1), 3), ("EE", 10**18 - 1, 4)], True),      # span fault
        ([("EE", 0, 1), ("EE", 10**18, 1)], False),                     # 19-digit index
        ([("EE", 0, 1), ("EE", -(10**18), 1)], False),
        ([("EE", 0, 10**18)], False),                                   # 19-digit count
        ([("EE", 0, 1), ("EE", "0" * 18 + "5", 1)], False),             # 19 digits, leading zeros
        ([("EE", 0, "0" * 18 + "5")], False),
        ([("EE", 0, 1), ("EE", "\u0663", "\u0664\u0662")], False),      # digits int() reads
        ([("EE", "+1", "1_0")], False),
    ])
    def test_integer_fields_at_18_and_19_digits(self, small_chunks, fast_rows, rows, taken):
        text = canonical_text(rows)
        first, last = min(int(i) for _, i, _ in rows), max(int(i) for _, i, _ in rows)
        self.assert_oracle(text, "ok" if last - first < MAX_SPAN_BINS else HistogramFormatError)
        assert fast_rows == [len(rows) if taken else 0]

    @pytest.mark.parametrize("layout", ["runs", "interleaved", "revisited"])
    def test_pair_runs_across_cuts(self, small_chunks, fast_rows, layout):
        if layout == "runs":  # each pair's run crosses at least one cut
            rows = [(pair, n, (7 * n) % 1000) for pair in ("EO", "OO", "EE") for n in range(-30, 30)]
        elif layout == "interleaved":
            rows = [(pair, 2 * n + k, n) for n in range(60) for k, pair in enumerate(("OO", "EE", "EO"))]
        else:  # EE again in a later chunk, past its last bin
            rows = ([("EE", n, 1) for n in range(40)] + [("OO", n, 2) for n in range(40)]
                    + [("EE", n, 3) for n in range(50, 90)])
        text = canonical_text(rows)
        assert len(list(_line_chunks(text))) >= 4
        self.assert_oracle(text, "ok")
        assert all(fast_rows) and sum(fast_rows) == len(rows)

    @pytest.mark.parametrize("at", [0, 5])
    def test_order_fault_in_a_canonical_chunk(self, small_chunks, fast_rows, at):
        # at 0 the fault repeats the previous chunk's last bin; at 5 it steps back two bins
        rows = [("EE", n, 1) for n in range(100, 200)]
        cut = canonical_text(rows).find("\n", self.CHUNK) + 1
        j = canonical_text(rows)[:cut].count("\n") - 1  # rows[j] opens the second chunk
        rows[j + at] = ("EE", rows[j + at - 1 - (at > 0)][1], 1)
        self.assert_oracle(canonical_text(rows), HistogramFormatError)
        assert fast_rows == [j, 0]

    @pytest.mark.parametrize("rows", [
        [("EE", 0, 1), ("OO", MAX_SPAN_BINS - 1, 1)],
        [("EE", -5, 1), ("OO", MAX_SPAN_BINS - 5, 1)],
        [("EE", 0, 1), ("EE", MAX_SPAN_BINS, 1)],
        [("EE", 0, 1)] + [("EE", MAX_SPAN_BINS + n, n) for n in range(60)],
    ])
    def test_span_fault(self, small_chunks, fast_rows, rows):
        ok = rows[-1][1] - rows[0][1] < MAX_SPAN_BINS
        self.assert_oracle(canonical_text(rows), "ok" if ok else HistogramFormatError)
        assert all(fast_rows) and sum(fast_rows) == len(rows)

    @pytest.mark.parametrize("far, then", [(-10**27, "EE"), (10**27, "EO"), (10**27, "EE")])
    def test_canonical_chunks_after_a_pair_at_far_bins(self, small_chunks, fast_rows, far, then):
        # the row loop reads EE at +-10**27 in the first chunk; canonical chunks follow
        rows = [("EE", far, 5)] + [("OO", n, 1) for n in range(40)] + [(then, n, 2) for n in range(40)]
        text = canonical_text(rows)
        self.assert_oracle(text, HistogramFormatError)  # a span fault, or EE's bins step back
        # the numpy pass keeps offsets from a pair's first bin in int64: it leaves EE alone
        assert fast_rows[0] == 0
        assert all(fast_rows[1:]) if then == "EO" else not any(fast_rows[1:])

    @pytest.mark.parametrize("case", ["header only", "header without newline", "no final newline",
                                      "one padded row", "one CRLF row"])
    def test_other_chunks_go_to_the_row_loop(self, small_chunks, fast_rows, case):
        rows = [("EE", n, n % 7) for n in range(80)]
        text = canonical_text(rows)
        if case == "header only":
            text = HEADER + "\n"
        elif case == "header without newline":
            text = HEADER
        elif case == "no final newline":
            text = text[:-1]
        else:
            text = text.replace("\nEE,40,5\n", "\n EE,40,5\n" if case == "one padded row"
                                else "\nEE,40,5\r\n")
        self.assert_oracle(text, HistogramFormatError if case.startswith("header") else "ok")
        declined = [k for k, taken in enumerate(fast_rows) if not taken]
        if case.startswith("header"):
            assert fast_rows == [0]
        elif case == "no final newline":
            assert declined == [len(fast_rows) - 1]
        else:
            assert len(declined) == 1 and len(fast_rows) >= 3

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_canonical_files_with_at_most_one_mutation_match_the_oracle(self, data):
        text = canonical_text(data.draw(canonical_rows(), label="rows"))
        mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
        body = len(HEADER) + 1
        at = data.draw(st.integers(body, len(text) - 1), label="at")
        char = data.draw(st.sampled_from(MUTANT_CHARS), label="char")
        if mutation == "insert":
            text = text[:at] + char + text[at:]
        elif mutation == "replace":
            text = text[:at] + char + text[at + 1:]
        elif mutation == "delete":
            text = text[:at] + text[at + 1:]
        elif mutation == "swap rows":
            lines = text.splitlines(keepends=True)
            k = data.draw(st.integers(1, max(1, len(lines) - 2)), label="row")
            lines[k:k + 2] = lines[k:k + 2][::-1]
            text = "".join(lines)
        elif mutation == "no final newline":
            text = text[:-1]
        chunk = data.draw(st.sampled_from([64, self.CHUNK, 4096]), label="chunk")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("freqbin.counts._CHUNK_CHARS", chunk)
            self.assert_oracle(text)


class TestCanonicalCheck:
    """_is_canonical gives the regex's verdict on every chunk, and never raises."""

    @pytest.mark.parametrize("chunk", [
        "EE,1,2\n", "EO,-5,0\nOE,3,9\nOO,4,17\n",
        f"OO,{10**18 - 1},{10**18 - 1}\n", f"OO,-{10**18 - 1},1\n",       # 18 digits
        f"EO,{10**18},1\n", f"EO,1,{10**18}\n", f"EO,-{10**18},1\n",       # 19 digits
        "EE,-0,7\n", "EE,0,-0\n", "EE,--1,2\n", "EE,-,2\n", "EE,1-,2\n",
        "EE,0001,00\n", "EE," + "0" * 17 + "5,1\n", "EE," + "0" * 18 + "5,1\n",  # leading zeros
        "", "\n", "EE,1,2", "EE,1,2\nEE,3,4", "EE,1,2\n\n", "\nEE,1,2\n",
        "EE,\u0663,\u0664\u0662\n", "EE,1,2\u0663\n", "EE,\uff11,2\n",   # digits int() reads
        "ee,1,2\n", "EX,1,2\n", "EEE,1,2\n", "E,1,2\n", " EE,1,2\n", "EE ,1,2\n",
        "EE1,2,3\n", "EE,1,2\nOO7,3,4\n", "EO0,-1,2\n",                   # a digit after the pair
        "EE,1\n", "EE,1,2,3\n", "EE,,2\n", "EE,1,\n", "EE,1,2\r\n", "EE,1,2\nOO,3\n,4\n",
        "EE,1,2\nEE,3,4,\n", "EE,+1,2\n", "EE,1_0,2\n", "EE,1e3,2\n", "EE,1,2\x00\n",
    ])
    def test_cases(self, chunk):
        assert _is_canonical(chunk) is (_CANONICAL_ROWS.fullmatch(chunk) is not None)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_canonical_rows(self, data):
        chunk = "".join(f"{pair},{index},{count}\n"
                        for pair, index, count in data.draw(canonical_rows(), label="rows"))
        for _ in range(data.draw(st.integers(0, 3), label="mutations")):
            at = data.draw(st.integers(0, len(chunk)), label="at")
            char = data.draw(st.sampled_from(MUTANT_CHARS), label="char")
            mutation = data.draw(st.sampled_from(("insert", "replace", "delete")), label="mutation")
            if mutation == "insert":
                chunk = chunk[:at] + char + chunk[at:]
            elif mutation == "replace":
                chunk = chunk[:at] + char + chunk[at + 1:]
            else:
                chunk = chunk[:at] + chunk[at + 1:]
        assert _is_canonical(chunk) is (_CANONICAL_ROWS.fullmatch(chunk) is not None), chunk


class TestIngestMemory:
    """tracemalloc peaks of one 12,000-row ingest, in 8 KiB chunks so the test stays short.

    The parser holds one chunk's lines (~70 B each) and 16 B per kept row;
    holding the whole file's lines and per-row int lists took ~150 B per row.
    A canonical file is also read at the full chunk size, where the numpy
    pass holds ~3 MB per chunk.
    """

    ROWS = 12_000

    @pytest.fixture(autouse=True)
    def chunks_of_8k(self, monkeypatch):
        monkeypatch.setattr("freqbin.counts._CHUNK_CHARS", 8192)

    def traced_peak(self, text):
        tracemalloc.start()
        try:
            try:
                ingest_histogram(text)
            except HistogramFormatError as exc:
                return tracemalloc.get_traced_memory()[1], exc
            return tracemalloc.get_traced_memory()[1], None
        finally:
            tracemalloc.stop()

    def test_valid_file(self):
        n = self.ROWS // 4
        counts = {pair: np.arange(n, dtype=np.int64) % 1000 for pair in OUTCOMES}
        text = emit_histogram(Histogram(bin_width_s=5e-10, start_index=-n // 2, counts=counts))
        peak, error = self.traced_peak(text)
        assert error is None
        assert peak < 600_000, peak  # measured 0.34 MB; 1.78 MB with every line held

    def test_over_span_file(self):
        # every row after the first lies past the cap, so none of them is kept
        text = HEADER + "\nEE,0,1\n" + "".join(f"EE,{MAX_SPAN_BINS + k},{k % 1000}\n"
                                               for k in range(self.ROWS))
        peak, error = self.traced_peak(text)
        assert error is not None and "span" in str(error)
        assert peak < 200_000, peak  # measured 0.13 MB; 0.31 MB if they were kept

    def test_over_span_file_in_the_row_loop(self):
        # CRLF line ends send every chunk to the row loop, which must not keep these rows either
        text = HEADER + "\r\nEE,0,1\r\n" + "".join(f"EE,{MAX_SPAN_BINS + k},{k % 1000}\r\n"
                                                   for k in range(self.ROWS))
        peak, error = self.traced_peak(text)
        assert error is not None and "span" in str(error)
        assert peak < 150_000, peak  # measured 0.05 MB; 0.25 MB if they were kept

    def test_canonical_file_at_the_full_chunk_size(self, monkeypatch):
        monkeypatch.setattr("freqbin.counts._CHUNK_CHARS", _CHUNK_CHARS)
        n = 40_000  # 160,000 rows, 2 MB: two chunks
        counts = {pair: np.arange(n, dtype=np.int64) % 1000 for pair in OUTCOMES}
        text = emit_histogram(Histogram(bin_width_s=5e-10, start_index=-n // 2, counts=counts))
        peak, error = self.traced_peak(text)
        assert error is None
        # measured 9.7 MB (8.9 MB with the block-wise regex check); 23.8 MB with one regex match
        # over a whole chunk, 13.7 MB in the row loop
        assert peak < 12_000_000, peak


class TestEmitMatchesOracle:
    def test_roundtrip_histograms(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            pairs = rng.choice(OUTCOMES, size=int(rng.integers(1, 5)), replace=False)
            n_bins = int(rng.integers(1, 60))
            start = int(rng.integers(-40, 10))
            counts = {str(p): rng.integers(0, 500, size=n_bins).astype(np.int64) for p in pairs}
            histogram = Histogram(bin_width_s=0.5e-9, start_index=start, counts=counts)
            assert emit_histogram(histogram) == oracle_emit_histogram(histogram)

    def test_synthesized_histograms(self):
        probs = apply_crosstalk(ideal_probabilities(effective_drive(
            ModulationSetting(0.6955, 0.0), ModulationSetting(0.6955, 1.0))), 0.02)
        for seed in range(100):
            histogram = synthesize_histogram(probs, experiment_model(), seed=seed)
            assert emit_histogram(histogram) == oracle_emit_histogram(histogram)

    @pytest.mark.parametrize("start", [-10**30, -2**63, -1000, -1, 0, 1, 7, 2**63, 10**30])
    def test_largest_counts_either_side_of_index_zero(self, start):
        top = 2**63 - 1  # the largest count int64 holds
        counts = {"EO": np.array([top, 0, top]), "OO": np.array([1, top, 2])}
        histogram = Histogram(bin_width_s=1e-9, start_index=start, counts=counts)
        assert emit_histogram(histogram) == oracle_emit_histogram(histogram)


    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_one_format_pass_per_pair(self, data):
        n_bins = data.draw(st.integers(1, 2000) | st.sampled_from([1, 2, 2000]), label="n_bins")
        start = data.draw(st.integers(-(10**18 - 1), 10**18 - n_bins)
                          | st.sampled_from([-(10**18 - 1), -n_bins, -1, 0, 10**18 - n_bins]),
                          label="start")
        pairs = data.draw(st.lists(st.sampled_from(OUTCOMES), unique=True, min_size=1), label="pairs")
        top = data.draw(st.sampled_from([1, 1000, 10**18]), label="top")  # counts below top
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        counts = {pair: rng.integers(0, top, size=n_bins) for pair in pairs}
        counts[pairs[0]][[0, -1]] = top - 1
        histogram = Histogram(bin_width_s=5e-10, start_index=start, counts=counts)
        assert emit_histogram(histogram) == oracle_emit_per_pair(histogram)


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

    def test_window_sums_do_not_wrap_past_int64(self):
        # four peak bins of 2**62 once summed to 0 in int64
        counts = {p: np.zeros(100, dtype=np.int64) for p in OUTCOMES}
        for arr in counts.values():
            arr[50:54] = 2**62
            arr[80:88] = 2**62
        histogram = Histogram(bin_width_s=1e-9, start_index=-50, counts=counts)
        record = extract_counts(histogram, (0.0, 4e-9), (30e-9, 38e-9))
        assert record.counts() == (2**64,) * 4
        assert record.background_per_outcome == (float(2**64),) * 4

    def test_missing_channel_pair_counts_zero(self):
        counts = {"EE": np.full(100, 3, dtype=np.int64)}
        histogram = Histogram(bin_width_s=1e-9, start_index=-50, counts=counts)
        record = extract_counts(histogram, (0.0, 10e-9), (20e-9, 40e-9))
        assert record.counts() == (30, 0, 0, 0)
        assert record.background_per_outcome == (30.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("peak, message", [
        ((5e-9, 5e-9), "peak window is empty"),
        ((0.2e-9, 0.8e-9), "peak window selects no bins"),
    ])
    def test_window_that_selects_nothing_rejected(self, peak, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            extract_counts(self.flat_histogram(), peak, (20e-9, 30e-9))

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

    def test_flat_fringe_rejected(self):
        # J_0(4a) rounds to 1, so P(E,O) = 0 and every crosstalk gives visibility 0
        for amplitude in (0.0, 1e-9):
            with pytest.raises(InvalidInputError, match=f"amplitude {amplitude!r}"):
                crosstalk_for_visibility(amplitude, 0.5)

    def test_closed_form_matches_bisection_oracle(self):
        rng = random.Random(85)
        for _ in range(1000):
            amplitude = 3.0 * (1.0 - rng.random())  # (0, 3]
            target = 1.0 - rng.random()              # (0, 1]
            chi = crosstalk_for_visibility(amplitude, target)
            assert abs(chi - oracle_crosstalk_for_visibility(amplitude, target)) <= 1e-12
            assert abs(model_visibility(amplitude, chi) - target) <= 1e-14


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
    @pytest.mark.parametrize("kwargs, message", [
        ({"n_eo": -1}, "counts must be >= 0"),
        ({"background_per_outcome": (0.0, -0.5, 0.0, 0.0)}, "background must be >= 0"),
        ({"duration": 0.0}, "duration must be positive"),
        ({"duration": float("nan")}, "duration must be positive"),
        # each row below was once accepted, or raised a bare TypeError
        ({"n_ee": 1.5}, "counts must be integers, got (1.5, 1, 1, 1)"),
        ({"n_oo": True}, "counts must be integers, got (1, 1, 1, True)"),
        ({"n_eo": "3"}, "counts must be integers, got (1, '3', 1, 1)"),
        ({"background_per_outcome": (math.nan, 0.0, 0.0, 0.0)},
         "background must be four finite numbers, got (nan, 0.0, 0.0, 0.0)"),
        ({"background_per_outcome": (0.0, 0.0, math.inf, 0.0)},
         "background must be four finite numbers, got (0.0, 0.0, inf, 0.0)"),
        ({"background_per_outcome": (0.0, "1", 0.0, 0.0)},
         "background must be four finite numbers, got (0.0, '1', 0.0, 0.0)"),
        # to_json_dict wrote one background key, which read back as (0.5, 0.0, 0.0, 0.0)
        ({"background_per_outcome": (0.5,)}, "background must be four finite numbers, got (0.5,)"),
        ({"duration": math.inf}, "duration must be finite"),
        ({"duration": "1"}, "duration must be positive"),
    ])
    def test_checks_its_fields(self, kwargs, message):
        fields = {"n_ee": 1, "n_eo": 1, "n_oe": 1, "n_oo": 1, **kwargs}
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            CountRecord(**fields)

    @pytest.mark.parametrize("change, message", [
        ({"counts": {"EE": 1.7}}, "counts.EE must be an integer, got 1.7"),
        ({"counts": {"EO": "3"}}, "counts.EO must be an integer, got '3'"),
        ({"counts": {"OO": True}}, "counts.OO must be an integer, got True"),
        ({"duration_s": "1800"}, "duration_s must be a number, got '1800'"),
        ({"duration_s": None}, "duration_s must be a number, got None"),
        ({"background": {"OE": "0.5"}}, "background.OE must be a number, got '0.5'"),
        ({"background": {"EE": False}}, "background.EE must be a number, got False"),
        ({"setting_a": 0}, "setting labels must be strings, got (0, 'B1')"),
        ({"background": [0.0]}, "background must be an object, got [0.0]"),
        ({"counts": None}, "counts must be an object, got None"),
    ])
    def test_json_values_must_have_their_json_type(self, change, message):
        data = CountRecord(10, 2, 3, 11, setting_labels=("A0", "B1"),
                           background_per_outcome=(1.0, 1.5, 0.5, 2.0)).to_json_dict()
        for key, value in change.items():
            data[key] = {**data[key], **value} if isinstance(value, dict) else value
        with pytest.raises(InvalidInputError, match=f"^bad count record: {re.escape(message)}$"):
            CountRecord.from_json_dict(data)

    @pytest.mark.parametrize("section, key, message", [
        (None, "counts", "counts must be an object, got None"),
        ("counts", "OE", "counts has no key 'OE'"),
    ])
    def test_missing_json_key_named(self, section, key, message):
        # once a bare KeyError
        data = CountRecord(1, 2, 3, 4).to_json_dict()
        del (data if section is None else data[section])[key]
        with pytest.raises(InvalidInputError, match=f"^bad count record: {message}$"):
            CountRecord.from_json_dict(data)

    def test_schema_roundtrip(self):
        record = CountRecord(10, 2, 3, 11, setting_labels=("A0", "B1"), duration=1800.0,
                             background_per_outcome=(1.0, 1.5, 0.5, 2.0))
        data = record.to_json_dict()
        assert set(data) == {"setting_a", "setting_b", "duration_s", "counts", "background"}
        assert set(data["counts"]) == set(OUTCOMES)
        assert CountRecord.from_json_dict(data) == record

    def test_simulated_and_extracted_records_round_trip(self):
        model = experiment_model()
        records = [simulate_counts(CORRELATED, model, seed) for seed in range(3)]
        histogram = synthesize_histogram(CORRELATED, model, 5)
        records.append(extract_counts(histogram, DEFAULT_PEAK_WINDOW, DEFAULT_BACKGROUND_WINDOW,
                                      duration_s=model.duration, labels=("A1", "B0")))
        for record in records:
            back = CountRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
            assert back == record and back.to_json_dict() == record.to_json_dict()
