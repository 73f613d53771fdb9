"""The four benchmark workloads: seeded inputs, one task each, and the task's output check.

Inputs are raw numbers drawn from the workload seed before timing starts,
enough that no input repeats within a run (a repeat would reward caches that
real runs cannot use); a task turns them into freqbin records and calls the
program. Every call goes
through a module attribute (`bell.chsh_finite`, `cli.main`, ...) so that the
tracer's wrappers see it. A check raises CheckFailed; it reads only the
task's output and values computed by `reference`, never the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference

from freqbin import bell, cli, closedform, counts
from freqbin.params import DispersionProfile, MeasurementModel, ModulationSetting

CROSSTALK = 0.0241
AMPLITUDE_BOUND = 1.5          # optimize_general's default amplitude bound
QUADRATIC_DISPERSION = 1e-4    # rad per bin^2 on each arm; small but makes apply_dispersion run
BINS_6 = tuple(range(1, 7))
BINS_41 = tuple(range(-20, 21))
BINS_801 = tuple(range(-400, 401))  # K = 1001 would need |bin| > 512 at c = 1.5 (WindowBoundError)
S_GENERAL = 2.566494962149      # max of 3 J0(4c) - J0(12c)
C_STAR = 0.23184
OPTIMAL_QUAD = ((0.2318, 0.0), (0.6955, math.pi), (0.2318, 0.0), (0.6955, math.pi))
HIST_SPAN_BINS = 2000           # 4 outcomes x 2000 delay bins = 8000 rows per file
ACQUISITION_S = 1800.0


class CheckFailed(Exception):
    """A task's output disagrees with its reference."""


def _stratified_quads(rng, count: int) -> np.ndarray:
    """Rows (a0, a1, b0, b1, alpha0, alpha1, beta0, beta1).

    Each amplitude is U[0, 1.5]; within a task the four amplitudes fall in
    distinct quarters of that range (shuffled among the settings), so the
    per-task sideband order, and with it the task's cost, varies less
    between seeds.
    """
    quarters = (np.arange(4) + rng.uniform(size=(count, 4))) * (AMPLITUDE_BOUND / 4.0)
    amplitudes = rng.permuted(quarters, axis=1)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, 4))
    return np.hstack([amplitudes, phases])


class _QuadRows:
    """Read-only sequence of quads, each ((amplitude, phase) for a0, a1, b0, b1)."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> tuple:
        row = self.rows[index]
        return tuple((float(row[k]), float(row[k + 4])) for k in range(4))


def _setting_quad(pairs) -> bell.SettingQuad:
    return bell.SettingQuad(*(ModulationSetting(a, p) for a, p in pairs))


def _check_close(label: str, got, want, tol: float) -> None:
    for g, w in zip(got, want):
        if not abs(g - w) <= tol:
            raise CheckFailed(f"{label}: got {g!r}, reference {w!r} (tolerance {tol})")


def _check_report(label, report, bins, pairs, crosstalk, dispersion) -> None:
    if any(not abs(e) <= 1.0 for e in report.correlators):
        raise CheckFailed(f"{label}: correlator outside [-1, 1]: {report.correlators}")
    corr, s = reference.finite_report(pairs, bins, crosstalk, dispersion)
    _check_close(label, list(report.correlators) + [report.s_value], corr + [s], 1e-9)


class FiniteSmall:
    """chsh_finite on one random quad at the paper's K = 6 (bins 1..6) and K = 41 (-20..20)."""

    name = "finite_small"
    trace_tasks = 40
    memory_bound = False

    def __init__(self, tiny: bool):
        self.model = MeasurementModel(crosstalk=CROSSTALK)

    def inputs(self, rng):
        return _QuadRows(_stratified_quads(rng, 65536))

    def warm_up(self, workdir):
        bell.chsh_finite(_setting_quad(OPTIMAL_QUAD), BINS_6, self.model)

    def run(self, pairs, workdir):
        quad = _setting_quad(pairs)
        return (bell.chsh_finite(quad, BINS_6, self.model),
                bell.chsh_finite(quad, BINS_41, self.model))

    def check(self, pairs, output):
        for label, bins, report in (("K=6", BINS_6, output[0]), ("K=41", BINS_41, output[1])):
            _check_report(label, report, bins, pairs, CROSSTALK, 0.0)


class FiniteLarge:
    """chsh_finite on one random quad at K = 801 (-400..400) with quadratic dispersion."""

    name = "finite_large"
    trace_tasks = 3
    memory_bound = True  # apply_modulator streams ~10 MB complex tables

    def __init__(self, tiny: bool):
        self.bins = BINS_41 if tiny else BINS_801
        self.model = MeasurementModel(crosstalk=CROSSTALK)
        self.dispersion = DispersionProfile(quadratic_coefficient=QUADRATIC_DISPERSION)

    def inputs(self, rng):
        return _QuadRows(_stratified_quads(rng, 512))

    def warm_up(self, workdir):
        bell.chsh_finite(_setting_quad(OPTIMAL_QUAD), BINS_6, self.model, self.dispersion)

    def run(self, pairs, workdir):
        return bell.chsh_finite(_setting_quad(pairs), self.bins, self.model, self.dispersion)

    def check(self, pairs, output):
        _check_report(f"K={len(self.bins)}", output, self.bins, pairs, CROSSTALK,
                      QUADRATIC_DISPERSION)


def _run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"freqbin {' '.join(argv[:2])} exited with {code}")


class OptimizeGeneral:
    """`freqbin chsh optimize --general` in process, default 20 restarts, one seed per task.

    Fewer restarts would miss the global optimum on some seeds, so even the
    smoke test's tiny run keeps the default.
    """

    name = "optimize_general"
    trace_tasks = 2
    memory_bound = False

    def __init__(self, tiny: bool):
        pass

    def inputs(self, rng):
        return [int(s) for s in rng.integers(0, 2**31, size=1024)]

    def warm_up(self, workdir):
        _run_cli(["chsh", "optimize", "--general", "--restarts", "1", "--seed", "0",
                  "--out", str(workdir / "warm_up.json")])

    def run(self, seed, workdir):
        out = workdir / "optimize.json"
        _run_cli(["chsh", "optimize", "--general", "--seed", str(seed), "--out", str(out)])
        return out

    def check(self, seed, output):
        results = json.loads(Path(output).read_text(encoding="utf-8"))["results"]
        _check_close("general S", [results["general"]["s"]], [S_GENERAL], 1e-6)
        _check_close("symmetric S", [results["symmetric"]["s_star"]], [S_GENERAL], 1e-6)
        _check_close("c*", [results["symmetric"]["c_star"]], [C_STAR], 1e-4)


class CountAnalysis:
    """Synthesize and write 4 histograms for the optimal quad, then `freqbin analyze` them."""

    name = "count_analysis"
    trace_tasks = 10
    memory_bound = False

    def __init__(self, tiny: bool):
        self.span_bins = 200 if tiny else HIST_SPAN_BINS
        self.model = MeasurementModel(crosstalk=CROSSTALK, duration=ACQUISITION_S)
        self.s_theory = reference.ideal_chsh(OPTIMAL_QUAD, CROSSTALK)
        quad = _setting_quad(OPTIMAL_QUAD)
        self.pairs = list(zip(quad.pairs(), ("A0B0", "A0B1", "A1B0", "A1B1")))

    def inputs(self, rng):
        return [int(s) for s in rng.integers(0, 2**31 - 4, size=16384)]

    def warm_up(self, workdir):
        self._analyze(0, workdir, 200, workdir / "warm_up.json")

    def run(self, seed, workdir):
        out = workdir / "analyze.json"
        return self._analyze(seed, workdir, self.span_bins, out), out

    def _analyze(self, seed, workdir, span_bins, out):
        histograms, paths = [], []
        for index, ((sa, sb), label) in enumerate(self.pairs):
            probs = closedform.apply_crosstalk(
                closedform.ideal_probabilities(closedform.effective_drive(sa, sb)), CROSSTALK)
            histogram = counts.synthesize_histogram(probs, self.model, seed + index,
                                                    span_bins=span_bins)
            path = workdir / f"hist_{label}.csv"
            path.write_text(counts.emit_histogram(histogram), encoding="utf-8")
            histograms.append(histogram)
            paths.append(str(path))
        _run_cli(["analyze", *paths, "--duration", str(ACQUISITION_S), "--out", str(out)])
        return histograms

    def check(self, seed, output):
        histograms, out = output
        results = json.loads(Path(out).read_text(encoding="utf-8"))["results"]
        for histogram, record in zip(histograms, results["records"]):
            # Peak window = delay bins 0..3, which synthesize_histogram puts at offset span/2.
            peak = histogram.n_bins // 2
            want = {o: int(arr[peak:peak + 4].sum()) for o, arr in histogram.counts.items()}
            if record["counts"] != want:
                raise CheckFailed(f"round trip {record['setting_a']}: ingested "
                                  f"{record['counts']}, synthesized {want}")
        s, sigma = results["s"], results["sigma_s"]
        if not abs(s - self.s_theory) <= 5.0 * sigma:
            raise CheckFailed(f"S = {s} +/- {sigma} is over 5 sigma from theory {self.s_theory}")


WORKLOADS = {w.name: w for w in (FiniteSmall, FiniteLarge, OptimizeGeneral, CountAnalysis)}
