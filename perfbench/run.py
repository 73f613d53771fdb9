"""freqbin benchmark: one workload, one seed, one fresh worker process at a time.

    python3 perfbench/run.py --workload finite_small --seed 1 --seconds 20 --trace 0

Run from the repository root. `--trace 0` measures the end-to-end metrics
with tracing off: SETUP_PROBES fresh processes time set-up alone, then one
more sets up and runs tasks back to back (a closed loop with one client) for
--seconds. `--trace 1` reports the per-layer metrics instead, from a run that
alternates untraced and traced passes over a fixed task list. Every task's
output is checked. Metric names and units come from BENCHMARK.json; the last
line of standard output is the result as one JSON object, and a run record
goes to .perfbench_out/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail_percentile(samples):
    """(value, q): the highest percentile q <= 90 with at least 10 samples above it.

    Nearest rank. With n >= 100 this is p90; with fewer samples the
    percentile drops to what the count supports, and q says which.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(min(math.ceil(0.9 * n), n - 10), 1)
    return ordered[rank - 1], 100.0 * rank / n


def git_sha():
    """HEAD's commit from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(args, mode, seq, deadline, extra=()):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds),
           "--workdir", str(OUT_DIR / f"work-{os.getpid()}-{seq}"), *extra]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(args, deadline):
    probes = 1 if args.tiny else SETUP_PROBES
    probe_runs = [_run_worker(args, "setup", k, deadline) for k in range(probes)]
    run = _run_worker(args, "run", probes, deadline)
    setup = [r["setup_s"] for r in probe_runs + [run]]
    times = run["task_s"]
    p90, q = tail_percentile(times)
    metrics = {
        "tasks_per_s": (run["passed"] / sum(times), "1/s"),
        "task_p50_ms": (1e3 * statistics.median(times), "ms"),
        "task_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    samples = {"tasks": len(times), "task_p90_percentile": q, "setup": len(setup)}
    raw = {"setup_s": [r["raw_setup_s"] for r in probe_runs + [run]], "task_s": run["raw_task_s"]}
    return run, metrics, samples, {"setup_s": setup, "task_s": times, "raw": raw,
                                   "calibration_s": run["calibration_s"]}


def _traced(args, deadline):
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    run = _run_worker(args, "trace", 0, deadline, ("--spans", str(spans_path)))
    metrics = {name: (entry["value"], entry["unit"]) for name, entry in run["layers"].items()}
    samples = {"traced_tasks": run["passes"] * run["tasks_per_pass"], "passes": run["passes"],
               "spans": run["spans"]}
    return run, metrics, samples, {"spans_file": spans_path.name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and at most 3 tasks (smoke test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if not (ROOT / "src" / "freqbin" / "__init__.py").is_file():
            raise BenchError(f"no freqbin sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        OUT_DIR.mkdir(exist_ok=True)
        measure = _traced if args.trace else _end_to_end
        run, values, samples, extra = measure(args, deadline)
        mismatched = [m["name"] for m in wanted
                      if m["name"] not in values or values[m["name"]][1] != m["unit"]]
        if mismatched:
            raise BenchError(f"metrics not measured in BENCHMARK.json's units: {mismatched}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    attempted, failed = run["attempted"], run["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "metrics": metrics, "samples": samples,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "errors": run["errors"], "git_sha": git_sha(), "versions": run["versions"],
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_vars": {var: "1" for var in THREAD_VARS}, **extra,
    }
    record_path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  samples {samples}")
    for name, entry in metrics.items():
        print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    for error in run["errors"]:
        print(error, file=sys.stderr)
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
