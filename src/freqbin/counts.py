"""Coincidence-count statistics: synthesis, histogram ingestion, and estimators.

Histogram CSV format (one file per acquisition):

    # coincidence-histogram v1, bin_width_s=<float>
    <channel_pair>,<delay_bin_index>,<count>
    ...

with channel_pair in {EE, EO, OE, OO}; delay bin i covers relative delays
[i*bin_width, (i+1)*bin_width) seconds and indices must be strictly
increasing within each channel pair, and one file spans at most
MAX_SPAN_BINS delay bins. CountRecord JSON uses the keys setting_a,
setting_b, duration_s, counts, background.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .closedform import ProbTable, effective_drive, ideal_probabilities
from .errors import EstimatorError, HistogramFormatError, InvalidInputError
from .params import MeasurementModel, ModulationSetting, is_int, is_real, json_number

OUTCOMES = ("EE", "EO", "OE", "OO")
PAIR_LABELS = (("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1"))  # correlator order

_HEADER_RE = re.compile(r"^#\s*coincidence-histogram v1,\s*bin_width_s=([0-9eE+\-.]+)\s*$")

# Canonical analysis windows matching synthesize_histogram: the coincidence
# peak occupies delay bins 0..3 at 0.5 ns steps.
DEFAULT_BIN_WIDTH_S = 0.5e-9
DEFAULT_PEAK_WINDOW = (0.0, 2.0e-9)
DEFAULT_BACKGROUND_WINDOW = (5.0e-9, 4.5e-8)
_PEAK_BINS = round(DEFAULT_PEAK_WINDOW[1] / DEFAULT_BIN_WIDTH_S)

# Largest Poisson mean a synthetic draw takes. Counts then stay far below 2**53,
# so the float estimators hold their sums exactly; numpy's own limit is ~9.2e18.
MAX_POISSON_MEAN = 1e15

# Largest delay-bin span ingest_histogram densifies: 8 MB per channel pair.
# A simulated file spans 200 bins; sparse indices far apart would otherwise
# allocate memory in proportion to their distance, not to the file's size.
MAX_SPAN_BINS = 1_000_000
_MAX_COUNT = int(np.iinfo(np.int64).max)  # counts are stored as int64

# Characters of histogram text read at a time: one chunk's copies (~6.5 MB at the numpy
# pass's traced peak, ~5 MB of line strs in the row loop) are held at once, not the whole file's.
_CHUNK_CHARS = 1 << 20

# byte values _is_canonical looks for in rows as emit_histogram writes them
_E, _O, _MINUS, _COMMA, _NEWLINE, _ZERO = b"EO-,\n0"
# the pair letters become digits, so a canonical chunk is one comma-separated list of int64
_PAIR_DIGITS = str.maketrans("EO\n", "01,")
_PAIR_CODES = {"EE": 0, "EO": 1, "OE": 10, "OO": 11}
_FAST_BINS = 10**18  # a pair's first bin for the numpy pass: its offsets then fit int64

# Ensembles that simulate_chsh_ensembles draws per numpy call: ~0.8 kB of working
# memory each. The chunks come in order from one generator, so the size never
# changes the output.
ENSEMBLE_CHUNK = 16_384


@dataclass(frozen=True)
class CountRecord:
    """Four coincidence counts for one setting pair plus expected accidental background."""

    n_ee: int
    n_eo: int
    n_oe: int
    n_oo: int
    setting_labels: tuple[str, str] = ("", "")
    duration: float = 1.0
    background_per_outcome: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if not all(is_int(c) for c in self.counts()):
            raise InvalidInputError(f"counts must be integers, got {self.counts()!r}")
        if any(c < 0 for c in self.counts()):
            raise InvalidInputError("counts must be >= 0")
        # a numpy integer passes the check above, but json cannot write it
        for name, c in zip(("n_ee", "n_eo", "n_oe", "n_oo"), self.counts()):
            object.__setattr__(self, name, int(c))
        labels = self.setting_labels
        if not (type(labels) is tuple and len(labels) == 2 and all(type(label) is str for label in labels)):
            raise InvalidInputError(f"setting labels must be two strings, got {labels!r}")
        background = self.background_per_outcome
        if len(background) != 4 or not all(is_real(b) and abs(b) < math.inf for b in background):
            raise InvalidInputError(f"background must be four finite numbers, got {background!r}")
        if any(b < 0.0 for b in background):
            raise InvalidInputError("background must be >= 0")
        duration = self.duration
        if not (is_real(duration) and 0.0 < duration < math.inf):
            raise InvalidInputError(f"duration must be {'finite' if duration == math.inf else 'positive'}")

    def counts(self) -> tuple[int, int, int, int]:
        return (self.n_ee, self.n_eo, self.n_oe, self.n_oo)

    def net_counts(self) -> tuple[float, float, float, float]:
        """Raw minus expected background, kept signed."""
        return tuple(c - b for c, b in zip(self.counts(), self.background_per_outcome))

    def to_json_dict(self) -> dict:
        return {
            "setting_a": self.setting_labels[0],
            "setting_b": self.setting_labels[1],
            "duration_s": self.duration,
            "counts": dict(zip(OUTCOMES, self.counts())),
            "background": dict(zip(OUTCOMES, self.background_per_outcome)),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> CountRecord:
        """The record of a decoded JSON object; each value must have the type json decodes it to."""
        number = functools.partial(json_number, "count record")
        counts, background = data.get("counts"), data.get("background", {})
        for name, obj in (("counts", counts), ("background", background)):
            if type(obj) is not dict:
                raise InvalidInputError(f"bad count record: {name} must be an object, got {obj!r}")
        missing = [key for key in OUTCOMES if key not in counts]
        if missing:
            raise InvalidInputError(f"bad count record: counts has no key {missing[0]!r}")
        values = [number(f"counts.{key}", counts[key], integer=True) for key in OUTCOMES]
        duration = number("duration_s", data.get("duration_s", 1.0))
        background = tuple(number(f"background.{key}", background.get(key, 0.0)) for key in OUTCOMES)
        try:  # the constructor's own checks, the labels' among them
            return cls(*values, setting_labels=(data.get("setting_a", ""), data.get("setting_b", "")),
                       duration=duration, background_per_outcome=background)
        except InvalidInputError as exc:
            raise InvalidInputError(f"bad count record: {exc}") from None


@dataclass(eq=False)
class Histogram:
    """Coincidence counts per channel pair over relative-delay bins.

    Arrays share a common span starting at start_index; missing channel pairs
    mean no events were recorded there.
    """

    bin_width_s: float
    start_index: int
    counts: dict[str, np.ndarray]

    def __post_init__(self):
        if not is_real(self.bin_width_s):
            raise InvalidInputError(f"bin_width_s must be a real number, got {self.bin_width_s!r}")
        try:
            width = float(self.bin_width_s)  # the header writes its repr
        except OverflowError:  # an int past the largest float
            width = math.inf
        if not 0.0 < width < math.inf:
            raise InvalidInputError("bin_width_s must be positive and finite")
        self.bin_width_s = width
        if not is_int(self.start_index):
            raise InvalidInputError(f"start_index must be an integer, got {self.start_index!r}")
        self.start_index = int(self.start_index)  # a numpy integer's span would wrap past int64
        if not self.counts:
            raise InvalidInputError("histogram needs at least one channel pair")
        counts = {}  # the histogram's own mapping: the caller's dict is left as it was
        for pair, arr in self.counts.items():
            if pair not in OUTCOMES:
                raise InvalidInputError(f"unknown channel pair {pair!r}")
            try:
                arr = np.asarray(arr)
            except ValueError:  # a ragged nested sequence
                raise InvalidInputError("histogram counts must be one-dimensional") from None
            if arr.ndim != 1:
                raise InvalidInputError(f"histogram counts must be one-dimensional, got shape {arr.shape}")
            # np.asarray([]) is float64: an empty array is refused by its length below
            if arr.size and arr.dtype.kind not in "iu":  # float, bool, object, str...
                raise InvalidInputError(f"histogram counts must be int64 integers, got {arr.dtype} values")
            if arr.dtype == np.uint64 and arr.size and arr.max() > np.iinfo(np.int64).max:
                raise InvalidInputError(f"histogram counts must be int64 integers, got {arr.max()}")
            arr = counts[pair] = arr.astype(np.int64, copy=False)
            if (arr < 0).any():
                raise InvalidInputError("histogram counts must be >= 0")
        self.counts = counts
        lengths = {arr.size for arr in counts.values()}
        if len(lengths) != 1 or lengths == {0}:
            raise InvalidInputError("channel-pair arrays must share one nonzero length")

    @property
    def n_bins(self) -> int:
        return next(iter(self.counts.values())).size

    @property
    def span_s(self) -> tuple[float, float]:
        return (self.start_index * self.bin_width_s,
                (self.start_index + self.n_bins) * self.bin_width_s)


def simulate_counts(probs: ProbTable, model: MeasurementModel, seed: int | np.random.Generator,
                    labels: tuple[str, str] = ("", "")) -> CountRecord:
    """Draw Poisson coincidence counts for one setting pair.

    Outcome xy has mean duration * (efficiency * pair_rate * P(x,y)
    + accidental_rate / 4); the accidental means are recorded as the
    background. seed is an int, or a Generator that the draw continues;
    an int seed gives the same record every time.
    """
    accidental_mean, means = _count_means(probs, model)
    rng = _generator(seed)
    return CountRecord(*rng.poisson(means).tolist(), setting_labels=labels, duration=model.duration,
                       background_per_outcome=(accidental_mean,) * 4)


def simulate_chsh_ensembles(tables, model: MeasurementModel, seed: int | np.random.Generator,
                            ensembles: int) -> tuple[np.ndarray, np.ndarray]:
    """S and sigma_s of `ensembles` synthetic CHSH experiments, background subtracted.

    tables are the four ProbTables ordered (A0B0, A0B1, A1B0, A1B1). One
    generator draws every count, in chunks of ENSEMBLE_CHUNK ensembles, and
    consumes its stream exactly as four simulate_counts calls per ensemble
    would: ensemble 0 holds the records that those calls draw from the same
    seed, and the chunk size never changes the output.
    """
    tables = list(tables)
    if len(tables) != 4:
        raise InvalidInputError("simulate_chsh_ensembles needs exactly 4 tables (00, 01, 10, 11)")
    if not is_int(ensembles) or ensembles < 0:
        raise InvalidInputError(f"ensembles must be an integer >= 0, got {ensembles!r}")
    backgrounds, means = zip(*(_count_means(probs, model) for probs in tables))
    background = np.array(backgrounds)[:, np.newaxis]  # one accidental mean per setting pair
    rng = _generator(seed)
    s_values = np.empty(ensembles)
    sigmas = np.empty(ensembles)
    for start in range(0, ensembles, ENSEMBLE_CHUNK):
        stop = min(start + ENSEMBLE_CHUNK, ensembles)
        raw = rng.poisson(means, size=(stop - start, 4, 4))
        s_values[start:stop], sigmas[start:stop], _ = _chsh(raw, background, True, None,
                                                            PAIR_LABELS)
    return s_values, sigmas


def synthesize_histogram(probs: ProbTable, model: MeasurementModel,
                         seed: int | np.random.Generator, *, span_bins: int = 200) -> Histogram:
    """Synthetic delay histogram: true coincidences in the peak window, flat accidentals.

    Bins are DEFAULT_BIN_WIDTH_S wide and the peak fills DEFAULT_PEAK_WINDOW;
    the per-outcome accidental mean inside that window equals
    duration * accidental_rate / 4, spread flat over the whole span.
    seed is an int, or a Generator that the draw continues; an int seed
    gives the same histogram every time.
    """
    if not is_int(span_bins):
        raise InvalidInputError(f"span_bins must be an integer, got {span_bins!r}")
    if span_bins <= _PEAK_BINS:
        raise InvalidInputError("span must exceed the peak width")
    start = -span_bins // 2
    peak_lo = -start  # array offset of delay bin 0
    accidental_per_bin = model.duration * model.accidental_rate / 4.0 / _PEAK_BINS
    signal_scale = model.duration * model.efficiency * model.pair_rate
    signal_means = [signal_scale * p for p in probs.as_tuple()]
    _check_poisson_means(signal_means + [accidental_per_bin])
    rng = _generator(seed)
    counts: dict[str, np.ndarray] = {}
    for outcome, mean in zip(OUTCOMES, signal_means):
        true_total = int(rng.poisson(mean))
        spread = rng.multinomial(true_total, [1.0 / _PEAK_BINS] * _PEAK_BINS)
        arr = rng.poisson(accidental_per_bin, size=span_bins).astype(np.int64)
        arr[peak_lo:peak_lo + _PEAK_BINS] += spread
        counts[outcome] = arr
    return Histogram(bin_width_s=DEFAULT_BIN_WIDTH_S, start_index=start, counts=counts)


def _generator(seed) -> np.random.Generator:
    """The Generator itself, or a new one from an integer seed >= 0 (bool is not one)."""
    if not (isinstance(seed, np.random.Generator) or is_int(seed) and seed >= 0):
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def _count_means(probs: ProbTable, model: MeasurementModel) -> tuple[float, list[float]]:
    """The accidental mean and the four outcome means of one setting pair's Poisson draw."""
    accidental_mean = model.duration * model.accidental_rate / 4.0
    signal_scale = model.duration * model.efficiency * model.pair_rate
    means = [signal_scale * p + accidental_mean for p in probs.as_tuple()]
    _check_poisson_means(means)
    return accidental_mean, means


def _check_poisson_means(means) -> None:
    if not all(mean <= MAX_POISSON_MEAN for mean in means):  # also false for NaN
        raise InvalidInputError(
            f"expected counts above {MAX_POISSON_MEAN:g} per draw: lower the rates or the duration")


def emit_histogram(histogram: Histogram) -> str:
    """Serialize to the histogram CSV format (canonical pair and index order)."""
    parts = [f"# coincidence-histogram v1, bin_width_s={histogram.bin_width_s!r}\n"]
    start = histogram.start_index
    n = histogram.n_bins
    # the delay-bin column, formatted once: "@@,<index>,%d\n" per row, @@ standing for the pair
    rows = "@@,%d,%%d\n" * n % tuple(range(start, start + n))
    for pair in OUTCOMES:
        if pair in histogram.counts:
            parts.append(rows.replace("@@", pair) % tuple(histogram.counts[pair].tolist()))
    return "".join(parts)


def ingest_histogram(source) -> Histogram:
    """Parse the histogram CSV format from a string, bytes, or readable stream.

    Malformed input is rejected with the offending line number. The text is
    read about _CHUNK_CHARS characters at a time. A chunk of rows written
    exactly as emit_histogram writes them, in order, is read in one numpy
    pass (_canonical_rows), where the speed lives; any other chunk goes
    through the row loop (_parse_rows), the plain judge that alone decides
    what is malformed and how it is reported. Each row keeps 16 bytes: its
    offset from its pair's first bin and its count. A file at the span cap,
    4 pairs x MAX_SPAN_BINS rows (53 MB), took ~0.9 s and peaked at ~187 MB
    of RSS in a fresh process, decoded text included, on a 2-vCPU VM
    (Python 3.11, numpy 2.4); with CRLF line ends, all in the row loop, ~4 s.
    """
    text = _read_text(source)
    chunks = _line_chunks(text)
    head, newline, body = next(chunks, "").partition("\n")
    lines = (head + newline).splitlines()  # the header, and any lines other breaks end in it
    if not lines:
        raise HistogramFormatError("empty input", line=1)
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise HistogramFormatError("expected '# coincidence-histogram v1, bin_width_s=<float>'", line=1)
    try:
        bin_width = float(match.group(1))
    except ValueError:
        raise HistogramFormatError("unparsable bin_width_s", line=1) from None
    if not 0.0 < bin_width < math.inf:  # 1e400 reads as inf
        raise HistogramFormatError("bin_width_s must be positive and finite", line=1)

    # pair -> [first delay bin, last delay bin, offsets from the first, counts]
    table: dict[str, list] = {}
    lineno = _parse_rows(lines[1:], 1, table)
    for chunk in chain((body,), chunks):
        rows = _canonical_rows(chunk, table)
        lineno = lineno + rows if rows else _parse_rows(chunk.splitlines(), lineno, table)
    if not table:
        raise HistogramFormatError("no data rows", line=lineno)

    # rows are strictly increasing per pair, so each pair's ends bound the span
    lo = min(first for first, _, _, _ in table.values())
    hi = max(last for _, last, _, _ in table.values())
    if hi - lo + 1 > MAX_SPAN_BINS:
        raise HistogramFormatError(
            f"delay bins {lo}..{hi} span {hi - lo + 1} bins, more than {MAX_SPAN_BINS}")
    counts = {}
    for pair, (first, _, offsets, values) in table.items():
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        arr[np.frombuffer(offsets, dtype=np.int64) + (first - lo)] = np.frombuffer(values, dtype=np.int64)
        counts[pair] = arr
    return Histogram(bin_width_s=bin_width, start_index=lo, counts=counts)


def _parse_rows(lines, lineno: int, table: dict) -> int:
    """The row loop: add data rows numbered from lineno + 1 to table; the last line's number.

    The plain judge of every row the numpy pass does not take, such as CRLF
    or padded files: each row is split, read and checked against its pair's
    entry in table, which the pair's first row creates.
    """
    for lineno, raw in enumerate(lines, lineno + 1):
        try:
            written, index, count = raw.split(",")
        except ValueError:
            if not raw.strip():
                continue
            raise HistogramFormatError("expected 'channel_pair,delay_bin_index,count'",
                                       line=lineno) from None
        pair = _channel_pair(written, lineno)  # an unknown pair outranks bad integers
        try:
            index = int(index)
            count = int(count)
        except ValueError:
            raise HistogramFormatError("delay_bin_index and count must be integers",
                                       line=lineno) from None
        if not 0 <= count <= _MAX_COUNT:
            raise HistogramFormatError(
                f"negative count {count}" if count < 0 else f"count {count} exceeds int64", line=lineno)
        entry = table.get(pair)
        if entry is None:
            entry = table[pair] = [index, index - 1, array("q"), array("q")]
        if index <= entry[1]:
            raise HistogramFormatError(
                f"non-monotone delay bins for {pair}: {index} after {entry[1]}", line=lineno)
        entry[1] = index
        # an offset past the cap is not kept: the span check then fails
        offset = index - entry[0]
        if offset < MAX_SPAN_BINS:
            entry[2].append(offset)
            entry[3].append(count)
    return lineno


def _canonical_rows(chunk: str, table: dict) -> int:
    """Add a chunk of canonical rows to table in one numpy pass; how many, or 0 and no change.

    A canonical row is one that emit_histogram writes: an upper-case pair, an
    ASCII index and count of at most 18 digits (so int64 holds them, and
    their differences, exactly) and a "\\n". The chunk is taken only if every
    row is canonical (_is_canonical), each pair's bins rise past its last bin
    so far, and each pair already seen starts within +-10**18; the row loop
    then gives the same table. Anything else, a fault included, returns 0
    with table untouched, and the row loop reads the chunk.
    """
    if not _is_canonical(chunk):
        return 0
    rows = np.fromstring(chunk.translate(_PAIR_DIGITS), dtype=np.int64, sep=",").reshape(-1, 3)
    codes, bins, counts = rows.T
    taken = []
    for pair, code in _PAIR_CODES.items():
        where = np.flatnonzero(codes == code)
        if not where.size:
            continue
        pair_bins = bins[where]
        head, state = int(pair_bins[0]), table.get(pair)
        first, last = state[:2] if state else (head, head - 1)
        if not (-_FAST_BINS < first < _FAST_BINS and head > last
                and (pair_bins[1:] > pair_bins[:-1]).all()):
            return 0
        taken.append((where[0], pair, first, pair_bins, counts[where]))
    for _, pair, first, pair_bins, pair_counts in sorted(taken, key=lambda t: t[0]):
        state = table.setdefault(pair, [first, None, array("q"), array("q")])
        state[1] = int(pair_bins[-1])
        offsets = pair_bins - first
        kept = np.searchsorted(offsets, MAX_SPAN_BINS)  # offsets rise, so the kept ones lead
        state[2].frombytes(offsets[:kept].tobytes())
        state[3].frombytes(pair_counts[:kept].tobytes())
    return len(rows)


def _is_canonical(chunk: str) -> bool:
    """Whether chunk is one or more rows as emit_histogram writes them; never raises.

    True exactly where (?:[EO][EO],-?[0-9]{1,18},[0-9]{1,18}\\n)+ matches the
    whole chunk, without a regex's backtracking state. Such a chunk holds 5
    non-digits per row (two pair letters, two commas, the "\\n") plus its
    minus signs; counting them declines most other chunks, CRLF ones
    included, in a few cheap passes. The positions then place each
    non-digit: each "\\n" ends a row, whose first comma is its third
    character, after two pair letters, and whose second comma leaves 1-18
    digits on either side, the index's after an optional "-" where every
    minus sign of the chunk must be. Every other character is then a digit.
    """
    if not (chunk.endswith("\n") and chunk.isascii()):
        return False
    b = np.frombuffer(chunk.encode("ascii"), dtype=np.uint8)
    minus_signs = np.count_nonzero(b == _MINUS)
    digits = np.count_nonzero((b - _ZERO) < 10)  # uint8: a byte below "0" wraps past 10
    if b.size - digits != 5 * np.count_nonzero(b == _NEWLINE) + minus_signs:
        return False
    ends = np.flatnonzero(b == _NEWLINE)
    commas = np.flatnonzero(b == _COMMA)
    if commas.size != 2 * ends.size:
        return False
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, second = commas[0::2], commas[1::2]
    if not (first == starts + 2).all():
        return False
    letters = b[np.concatenate((starts, starts + 1))]
    minus = b[first + 1] == _MINUS
    widths = np.concatenate((second - first - 1 - minus, ends - second - 1))  # digits per field
    return bool(((letters == _E) | (letters == _O)).all() and ((widths >= 1) & (widths <= 18)).all()
                and np.count_nonzero(minus) == minus_signs)


def _line_chunks(text: str):
    """text in pieces of about _CHUNK_CHARS characters, each cut just after a "\\n".

    A "\\n" ends a line (alone or as "\\r\\n"), so the pieces' splitlines()
    join into exactly the lines of the whole text.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK_CHARS)
        stop = len(text) if cut < 0 else cut + 1
        yield text[start:stop]
        start = stop


def _channel_pair(field: str, lineno: int) -> str:
    pair = field.strip()
    if pair not in OUTCOMES:
        raise HistogramFormatError(f"unknown channel pair {pair!r}", line=lineno)
    return pair


def _read_text(source) -> str:
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, str):
        return data
    if not isinstance(data, bytes):
        raise InvalidInputError(f"cannot read histogram from {type(source)!r}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as str.splitlines numbers the parser's lines: "\r", "\x0c", U+2028 end one too
        prefix = data[:exc.start].decode("utf-8")
        raise HistogramFormatError("not UTF-8 text", line=len((prefix + "x").splitlines())) from None


def extract_counts(histogram: Histogram,
                   peak_window: tuple[float, float],
                   background_window: tuple[float, float],
                   *, duration_s: float = 1.0,
                   labels: tuple[str, str] = ("", "")) -> CountRecord:
    """Window the histogram into a CountRecord.

    Raw integers are the exact peak-window sums; the background estimate is the
    background-window sum rescaled by the ratio of selected bin counts.
    Subtraction itself is deferred to the estimators. The histogram format
    carries no acquisition time, so duration_s is caller-supplied metadata.
    """
    peak = _window_indices(histogram, peak_window, "peak window")
    back = _window_indices(histogram, background_window, "background window")
    if max(peak.start, back.start) < min(peak.stop, back.stop):
        raise InvalidInputError("peak and background windows overlap")
    ratio = (peak.stop - peak.start) / (back.stop - back.start)
    raw = []
    background = []
    for pair in OUTCOMES:
        arr = histogram.counts.get(pair)
        if arr is None:
            raw.append(0)
            background.append(0.0)
        else:
            # Python int sums: int64 ones wrap past 2**63 - 1
            raw.append(sum(arr[peak].tolist()))
            background.append(float(sum(arr[back].tolist())) * ratio)
    return CountRecord(*raw, setting_labels=labels, duration=duration_s,
                       background_per_outcome=tuple(background))


def _window_indices(histogram: Histogram, window: tuple[float, float], name: str) -> slice:
    lo, hi = float(window[0]), float(window[1])
    span_lo, span_hi = histogram.span_s
    if not lo < hi:
        raise InvalidInputError(f"{name} is empty")
    if lo < span_lo - 1e-15 or hi > span_hi + 1e-15:
        raise InvalidInputError(f"{name} ({lo}, {hi}) outside histogram span {histogram.span_s}")
    w = histogram.bin_width_s
    first = math.ceil(lo / w - 1e-9)   # bins whose start lies in [lo, hi)
    last = math.ceil(hi / w - 1e-9)
    i0 = max(first - histogram.start_index, 0)
    i1 = min(last - histogram.start_index, histogram.n_bins)
    if i1 <= i0:
        raise InvalidInputError(f"{name} selects no bins")
    return slice(i0, i1)


def visibility(sweep, outcome: str) -> tuple[float, float]:
    """Fringe visibility (N_max - N_min) / (N_max + N_min) of one cross outcome.

    Counts are background-subtracted and converted to rates; negative nets are
    clamped to zero with a warning. The uncertainty is first-order Poisson
    propagation through the ratio.
    """
    if outcome not in ("EO", "OE"):
        raise InvalidInputError("visibility outcome must be 'EO' or 'OE'")
    records = list(sweep)
    if len(records) < 5:
        raise InvalidInputError("visibility scan needs at least 5 points")
    idx = OUTCOMES.index(outcome)
    rates = []
    variances = []
    for rec in records:
        net = rec.net_counts()[idx]
        if net < 0.0:
            warnings.warn(f"negative net count {net:.2f} clamped to 0 in visibility", RuntimeWarning)
            net = 0.0
        rates.append(net / rec.duration)
        variances.append(rec.counts()[idx] / rec.duration**2)
    i_max = int(np.argmax(rates))
    i_min = int(np.argmin(rates))
    n_max, n_min = rates[i_max], rates[i_min]
    total = n_max + n_min
    if total <= 0.0:
        raise EstimatorError("non-positive net counts: visibility undefined")
    vis = (n_max - n_min) / total
    d_max = 2.0 * n_min / total**2
    d_min = -2.0 * n_max / total**2
    sigma = math.sqrt(d_max**2 * variances[i_max] + d_min**2 * variances[i_min])
    return vis, sigma


def chsh_estimate(records, subtract: bool = True,
                  normalization: tuple[float, float, float, float] | None = None
                  ) -> tuple[float, float, tuple[float, float, float, float]]:
    """CHSH estimate from four CountRecords ordered (A0B0, A0B1, A1B0, A1B1).

    S = C00 + C01 + C10 - C11 with each C as in correlator_estimate, and
    sigma_s from the sum of their variances.
    """
    records = list(records)
    if len(records) != 4:
        raise InvalidInputError("chsh_estimate needs exactly 4 records (00, 01, 10, 11)")
    s, sigma_s, c_values = _chsh([rec.counts() for rec in records],
                                 [rec.background_per_outcome for rec in records],
                                 subtract, normalization, [rec.setting_labels for rec in records])
    return float(s), float(sigma_s), tuple(c_values.tolist())


def correlator_estimate(record: CountRecord, subtract: bool,
                        normalization: tuple[float, float, float, float] | None
                        ) -> tuple[float, float]:
    """One setting pair's correlator C = N^- / N^+ and its variance.

    N^{+-} = (EE + OO) +- (EO + OE) from net counts (raw counts when not
    subtract). The variance is the delta method on independent Poisson
    counts, treating the recorded background means as known. The optional
    per-outcome normalization factors divide the counts (modulation-off
    calibration); None means no rescaling. Factors lie in [1e-6, 1e6], which
    keeps the fourth power of N^+ in the variance far from overflow.
    """
    c, var = _correlators([record.counts()], [record.background_per_outcome],
                          subtract, normalization, [record.setting_labels])
    return float(c[0]), float(var[0])


def _chsh(raw, background, subtract, normalization, labels):
    """S, sigma_s and the correlators over the last two axes (4 setting pairs, 4 outcomes)."""
    c, var = _correlators(raw, background, subtract, normalization, labels)
    s = c[..., 0] + c[..., 1] + c[..., 2] - c[..., 3]
    return s, np.sqrt(var[..., 0] + var[..., 1] + var[..., 2] + var[..., 3]), c


def _correlators(raw, background, subtract, normalization, labels):
    """correlator_estimate over the last axis of count arrays.

    raw holds counts in OUTCOMES order along its last axis, and its
    second-to-last axis runs over the setting pairs that labels names;
    background broadcasts against raw. N^+ <= 0 raises EstimatorError
    naming the first such pair in C order.
    """
    if normalization is None:
        normalization = (1.0, 1.0, 1.0, 1.0)
    if len(normalization) != 4 or not all(1e-6 <= f <= 1e6 for f in normalization):
        raise InvalidInputError("normalization needs 4 factors in [1e-6, 1e6]")
    factors = np.array(normalization, dtype=np.float64)
    raw = np.asarray(raw, dtype=np.float64)  # each count rounds as float(count) would
    values = (raw - background if subtract else raw) / factors
    var = raw / factors**2
    same = values[..., 0] + values[..., 3]
    cross = values[..., 1] + values[..., 2]
    var_same = var[..., 0] + var[..., 3]
    var_cross = var[..., 1] + var[..., 2]
    n_plus = same + cross
    bad = n_plus <= 0.0
    if bad.any():
        first = int(np.argmax(bad.ravel())) % len(labels)
        raise EstimatorError("non-positive net denominator N+ for "
                             f"settings {labels[first]}")
    return (same - cross) / n_plus, 4.0 * (cross**2 * var_same + same**2 * var_cross) / n_plus**4


def crosstalk_for_visibility(amplitude: float, target: float) -> float:
    """Crosstalk chi that degrades the ideal equal-amplitude phase-scan visibility to target.

    In the closed-form model the cross-outcome fringe runs from
    u = chi * (1 - chi) at drive cancellation up to the mixed table value
    (1 - (1 - 4u) j) / 4 at phase agreement, with j = J_0(4 * amplitude).
    So V = (1 - j)(1 - 4u) / ((1 - j) + 4u (1 + j)), which falls from 1 at
    chi = 0 to 0 at chi = 1/2 and inverts in closed form. Where j rounds
    to 1 (amplitude below ~3.7e-9) the fringe is flat at every chi, so no
    chi gives the target and InvalidInputError names the amplitude.
    """
    if not 0.0 < target <= 1.0:
        raise InvalidInputError("target visibility must lie in (0, 1]")
    setting = ModulationSetting(amplitude, 0.0)
    aligned = ideal_probabilities(effective_drive(setting, setting))
    if aligned.p_eo == 0.0:
        raise InvalidInputError(f"at amplitude {amplitude!r} J_0(4 * amplitude) rounds to 1: the "
                                f"fringe is flat and no crosstalk gives visibility {target!r}")
    # in the table's terms 1 - j = 4 p_eo and 1 + j = 4 p_ee
    u = aligned.p_eo * (1.0 - target) / (4.0 * (aligned.p_eo + target * aligned.p_ee))
    return 2.0 * u / (1.0 + math.sqrt(max(1.0 - 4.0 * u, 0.0)))
