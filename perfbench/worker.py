"""One benchmark worker process: set up, then a closed loop of tasks on one workload.

Run by run.py, never imported. Modes:

  setup  import freqbin.cli, generate inputs, one warm-up call; report the time
  run    the same set-up, then tasks back to back for --seconds, untraced
  trace  the same set-up, then alternate untraced and traced blocks of tasks
         for --seconds

The last line of standard output is one JSON object with the results.
"""

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

# The host's speed drifts by up to 70% over tens of seconds (measured on the
# 2-vCPU VM the benchmark was written on), far more than the changes the
# benchmark must resolve. So every timing is scaled by a reference time over
# the mean of two calibration samples, one before and one after it. Times are
# reported at the reference speed, at which one sample takes the reference
# time. The kernel of the sample matches the workload's dominant work: the
# interpreter, or streaming complex arrays through the last-level cache.
CALIBRATION_EVERY_S = 0.1
INTERPRETER_REFERENCE_S = 1.5e-3
MEMORY_REFERENCE_S = 0.2e-3


def interpreter_sample():
    """Fastest of 3 runs of a fixed integer loop; about INTERPRETER_REFERENCE_S."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def memory_sampler():
    """A sample function: fastest of 5 in-place adds of two 2 MB complex arrays.

    4 MB in all, beyond the 2 MB per-core L2; about MEMORY_REFERENCE_S.
    """
    import numpy as np

    a = np.ones(131072, dtype=complex)
    b = np.zeros_like(a)

    def memory_sample():
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            np.add(b, a, out=b)
            best = min(best, time.perf_counter() - start)
        return best

    return memory_sample


class HostSpeed:
    """Calibration samples between timings; scale() closes a window of raw timings."""

    def __init__(self, sample, reference_s):
        self._sample = sample
        self._reference_s = reference_s
        self.samples = [sample()]
        self._taken = time.perf_counter()

    def due(self):
        return time.perf_counter() - self._taken >= CALIBRATION_EVERY_S

    def scale(self):
        """Factor that converts the raw seconds since the last sample to reference seconds."""
        before = self.samples[-1]
        self.samples.append(self._sample())
        self._taken = time.perf_counter()
        return 2.0 * self._reference_s / (before + self.samples[-1])


def _set_up(args, workdir, speed):
    start = time.perf_counter()
    import freqbin.cli  # noqa: F401  (the import a CLI user pays for)
    imported = time.perf_counter()

    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    generate_start = time.perf_counter()
    inputs = workload.inputs(np.random.default_rng(args.seed))
    workload.warm_up(workdir)
    warmed = time.perf_counter()
    raw_s = (imported - start) + (warmed - generate_start)
    return workload, inputs, raw_s, raw_s * speed.scale()


def _attempt(workload, task_input, workdir, outcome):
    """Run one task; returns its wall seconds. Failures are counted, not raised."""
    start = time.perf_counter()
    try:
        output = workload.run(task_input, workdir)
    except Exception:  # a task that raises is a failed operation
        elapsed = time.perf_counter() - start
        _fail(outcome, traceback.format_exc(limit=3))
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        workload.check(task_input, output)
    except Exception:  # includes CheckFailed and malformed outputs
        _fail(outcome, traceback.format_exc(limit=3))
        return elapsed, False
    return elapsed, True


def _fail(outcome, message):
    outcome["failed"] += 1
    if len(outcome["errors"]) < 5:
        outcome["errors"].append(message)


def _closed_loop(workload, inputs, workdir, seconds, max_tasks, speed):
    outcome = {"failed": 0, "errors": []}
    raw, scaled, window, passed = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while len(raw) < max_tasks and (not raw or time.perf_counter() < deadline):
        elapsed, ok = _attempt(workload, inputs[len(raw) % len(inputs)], workdir, outcome)
        raw.append(elapsed)
        window.append(elapsed)
        passed += ok
        if speed.due():
            factor = speed.scale()
            scaled.extend(t * factor for t in window)
            window.clear()
    if window:
        factor = speed.scale()
        scaled.extend(t * factor for t in window)
    return {"task_s": scaled, "raw_task_s": raw, "passed": passed, "attempted": len(raw),
            **outcome}


def _traced_passes(workload, inputs, workdir, seconds, max_tasks, speed):
    """Alternate untraced and traced blocks of fresh inputs until `seconds` have passed."""
    from spans import Tracer

    block = min(workload.trace_tasks, max_tasks)
    tracer = Tracer()
    outcome = {"failed": 0, "errors": []}
    untraced_s = traced_s = 0.0
    passes = next_input = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        block_s = 0.0
        for _ in range(block):
            block_s += _attempt(workload, inputs[next_input % len(inputs)], workdir, outcome)[0]
            next_input += 1
        untraced_s += block_s * speed.scale()
        block_s = 0.0
        tracer.install()
        try:
            for _ in range(block):
                tracer.task += 1
                block_s += _attempt(workload, inputs[next_input % len(inputs)], workdir,
                                    outcome)[0]
                next_input += 1
        finally:
            tracer.uninstall()
        traced_s += block_s * speed.scale()
        passes += 1
    return tracer, {"passes": passes, "tasks_per_pass": block,
                    "untraced_s": untraced_s, "traced_s": traced_s,
                    "attempted": 2 * passes * block, **outcome}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the traced spans (trace mode)")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    setup_speed = HostSpeed(interpreter_sample, INTERPRETER_REFERENCE_S)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        workload, inputs, raw_setup_s, setup_s = _set_up(args, workdir, setup_speed)
        result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
        if workload.memory_bound:
            speed = HostSpeed(memory_sampler(), MEMORY_REFERENCE_S)
        else:
            speed = HostSpeed(interpreter_sample, INTERPRETER_REFERENCE_S)
        max_tasks = 3 if args.tiny else sys.maxsize
        if args.mode == "run":
            result.update(_closed_loop(workload, inputs, workdir, args.seconds, max_tasks, speed))
        elif args.mode == "trace":
            tracer, summary = _traced_passes(workload, inputs, workdir, args.seconds, max_tasks,
                                             speed)
            result.update(summary)
            result["layers"] = _layer_summary(tracer, summary)
            result["spans"] = {"recorded": tracer.spans_recorded, "total": tracer.spans_total}
            if args.spans:
                tracer.write_spans(args.spans)
        result["calibration_s"] = speed.samples
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["versions"] = _versions()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _layer_summary(tracer, summary):
    from spans import TRACED

    traced_tasks = summary["passes"] * summary["tasks_per_pass"]
    wall = summary["traced_s"]
    solves = tracer.calls[TRACED.index("bell.optimize_general")]
    kernels = tracer.calls[TRACED.index("binspace.modulation_kernel")]
    layers = {}
    for name, calls, self_s in zip(TRACED, tracer.calls, tracer.self_s):
        layers[f"{name}.calls"] = (calls / traced_tasks, "count/task")
        layers[f"{name}.self_ms"] = (1e3 * self_s / traced_tasks, "ms/task")
        layers[f"{name}.share"] = (self_s / wall, "ratio")
    layers.update({
        "binspace.modulation_kernel.distinct_ratio":
            (len(tracer.kernel_keys) / kernels if kernels else 0.0, "ratio"),
        "binspace.apply_modulator.bytes_computed": (tracer.modulator_bytes / traced_tasks, "B/task"),
        "bell.optimize_general.objective_evals":
            (tracer.optimize_evals / solves if solves else 0.0, "count/solve"),
        "counts.ingest_histogram.rows": (tracer.rows["ingest"] / traced_tasks, "count/task"),
        "counts.ingest_histogram.bytes": (tracer.bytes["ingest"] / traced_tasks, "B/task"),
        "counts.emit_histogram.rows": (tracer.rows["emit"] / traced_tasks, "count/task"),
        "counts.emit_histogram.bytes": (tracer.bytes["emit"] / traced_tasks, "B/task"),
        "trace.overhead_ms":
            (1e3 * (summary["traced_s"] - summary["untraced_s"]) / traced_tasks, "ms/task"),
        "trace.overhead_share":
            ((summary["traced_s"] - summary["untraced_s"]) / summary["untraced_s"], "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
