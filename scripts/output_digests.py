#!/usr/bin/env python3
"""Print the SHA-256 of every output of a fixed battery of freqbin CLI runs.

    python3 scripts/output_digests.py > digests.txt

The battery simulates histograms, analyzes them in JSON and CSV (and as a
visibility scan), runs every `chsh` subcommand and `pattern`, and feeds
`analyze` a malformed file. Each command runs in one fresh temporary
directory with relative paths, so the listing holds nothing of the machine:
one line per output file, standard output and standard error, in the form
"<sha256>  <command>: <what>". Diff the listings of two checkouts to show
that a change leaves every output byte, message and exit code the same.
The package is imported from this checkout's src/. The script exits 1 if
any command exits with another code than the one listed for it.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HISTOGRAMS = [f"sim/hist_{label}.csv" for label in ("A0B0", "A0B1", "A1B0", "A1B1")]
SCAN = HISTOGRAMS + [f"sim2/hist_{label}.csv" for label in ("A0B0", "A0B1", "A1B0", "A1B1")]
MALFORMED = "# coincidence-histogram v1, bin_width_s=5e-10\nEE,0,3\nEE,1,-4\n"

# (expected exit code, arguments); every output path is relative to the run directory
BATTERY = [
    (0, ["simulate", "--seed", "7", "--out", "sim"]),
    (0, ["simulate", "--seed", "8", "--alpha1", "1.0", "--out", "sim2"]),
    (0, ["analyze", *HISTOGRAMS, "--duration", "1800", "--out", "analyze.json"]),
    (0, ["analyze", *HISTOGRAMS, "--format", "csv", "--out", "analyze.csv"]),
    (0, ["analyze", *HISTOGRAMS, "--no-subtract", "--normalization", "1,2,2,1",
         "--out", "analyze_raw.json"]),
    (0, ["analyze", *SCAN, "--visibility", "EO", "--out", "visibility.json"]),
    (3, ["analyze", "malformed.csv", "malformed.csv", "malformed.csv", "malformed.csv"]),
    (0, ["chsh", "eval", "--seed", "3", "--out", "eval.json"]),
    (0, ["chsh", "eval", "--seed", "3", "--format", "csv", "--out", "eval.csv"]),
    (0, ["chsh", "optimize", "--out", "optimize.json"]),
    (0, ["chsh", "optimize", "--general", "--restarts", "3", "--seed", "1",
         "--out", "optimize_general.json"]),
    (0, ["chsh", "finite", "--bins=-3..3", "--out", "finite.json"]),
    (0, ["chsh", "finite", "--bins=-20..20", "--dispersion-quadratic", "1e-3",
         "--format", "csv", "--out", "finite.csv"]),
    (0, ["chsh", "montecarlo", "--ensembles", "300", "--seed", "5", "--out", "montecarlo.json"]),
    (0, ["pattern", "--steps", "9", "--out", "pattern.csv"]),
    (0, ["pattern", "--pattern-model", "both", "--bins=-4..4", "--steps", "7",
         "--format", "json", "--out", "pattern.json"]),
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def files_under(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "malformed.csv").write_text(MALFORMED, encoding="utf-8")
        for expected, args in BATTERY:
            before = files_under(root)
            run = subprocess.run([sys.executable, "-c", "import sys; from freqbin.cli import main; "
                                  "sys.exit(main())", *args],
                                 cwd=root, env=env, capture_output=True)
            name = " ".join(args)
            print(f"exit {run.returncode}  {name}")
            print(f"{digest(run.stdout)}  {name}: stdout")
            print(f"{digest(run.stderr)}  {name}: stderr")
            for path, data in files_under(root).items():
                if before.get(path) != data:
                    print(f"{digest(data)}  {name}: {path}")
            if run.returncode != expected:
                print(f"expected exit {expected}, got {run.returncode}: {name}\n"
                      f"{run.stderr.decode(errors='replace')}", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
