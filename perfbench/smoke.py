"""Smoke test of the benchmark itself: every workload, both modes, tiny inputs.

    python3 perfbench/smoke.py

Each workload runs at most 3 tasks on small inputs (K = 41 instead of 801,
200-bin histograms). The test checks that every metric BENCHMARK.json names
is printed with its unit, that no task failed (error_rate 0), and that the
benchmark refuses to run, printing no result, in a directory that holds only
BENCHMARK.json and perfbench/. Exits 0 when all of that holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"


def _bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_result(spec, workload, trace, proc):
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
        problems.append(f"error_rate {result['failed']}/{result['attempted']}:\n{proc.stderr}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(wanted)}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            problems.append(f"{name} is not a number: {entry['value']!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = _check_result(spec, workload, trace, _bench(ROOT, workload, trace))
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for problem in problems:
                print(f"     {problem}")

    # Without the program's sources the benchmark must fail and print no result.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(ROOT / "perfbench", SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        bare = _bench(SCRATCH, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    refused = bare.returncode != 0 and '"metrics"' not in bare.stdout
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without src/ (exit {bare.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
