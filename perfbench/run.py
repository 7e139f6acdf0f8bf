#!/usr/bin/env python3
"""Service ledger benchmark: builds the ledger program and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: direct_mix, select_cold, select_hot_rw, outage (see README.md).
The program is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR/perfbench-<hash of the checkout's path>
($CARGO_TARGET_DIR defaults to .bench_build), so checkouts that share a
CARGO_TARGET_DIR never share a build tree; the first run pays the build,
later runs only re-link if a source changed. Build output goes to stderr.
The last line of stdout is the run's JSON result; the exit code is the
program's (0 = correct run). Traced runs (--trace 1) also write the span
log and the metrics-registry snapshot to <build tree>/runs/<workload>-seed<n>/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("direct_mix", "select_cold", "select_hot_rw", "outage")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build(build_dir):
    """Configures (once) and builds the ledger target; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no DBA sources under %s/src" % ROOT, file=sys.stderr)
        return False
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", str(build_dir), "--target", "ledger",
                "-j", jobs]
    if not (build_dir / "CMakeCache.txt").is_file():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-written cache that would skip the next configure.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    base = build_base()
    # One build tree per source tree: a cache configured from another
    # checkout would silently keep building that checkout's sources.
    tree = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    build_dir = base / ("perfbench-" + tree)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = build_dir / "runs" / ("%s-seed%d" % (args.workload, args.seed))
    command = [str(build_dir / "ledger"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--out", str(out_dir)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (args.workload,
                                                      RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode == 0 and not run.stdout.rstrip().endswith("}}"):
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
