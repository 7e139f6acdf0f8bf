#!/usr/bin/env python3
"""Run-to-run spread of the ledger benchmark, in alternating sets of runs.

    python3 perfbench/spread.py [--sets 2] [--seeds 1-10] [--workloads a,b]
                                [--checkout DIR ...] [--trace 0|1]
                                [--json OUT]

Each set runs every workload once per seed. Sets alternate run by run
(set 0 seed 1, set 1 seed 1, set 0 seed 2, ...), so drift on the machine
falls on every set alike. With one --checkout (default: this one) the sets
are repeats of the same code, which is how the bounds in BENCHMARK.json were
set and how steadiness is re-checked; with two checkouts (parent first, then
the change) set k runs checkout k mod 2, which is the paired comparison a
change that claims a gain needs.

For every workload, metric and set it prints the median, the first and third
quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and
each later set's median against the first set's median. Against the bounds
of BENCHMARK.json it flags a spread above a third of the bound ("wide") or a
median shift above the bound ("SHIFT"); setup_s is exempt from the spread
flag. It also reports failed/attempted per set, which must be identical.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout, workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    run = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(command),
                                                       run.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    # statistics.quantiles' middle cut is the median for n=4.
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--checkout", action="append", default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    checkouts = [str(Path(c).resolve()) for c in
                 (args.checkout or [str(HERE.parent)])]
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    results = {}  # (workload, set) -> list of result objects
    for workload in workloads:
        for seed in seeds:
            for s in range(args.sets):
                checkout = checkouts[s % len(checkouts)]
                result = run_once(checkout, workload, seed, seconds,
                                  args.trace)
                results.setdefault((workload, s), []).append(result)
                print("%-14s set %d seed %-3d %s" % (
                    workload, s, seed, " ".join(
                        "%s=%.6g" % (k, v["value"])
                        for k, v in result["metrics"].items())),
                      file=sys.stderr, flush=True)

    report = {}
    for workload in workloads:
        print("\n== %s" % workload)
        first = results[(workload, 0)]
        for name in first[0]["metrics"]:
            base_med = None
            for s in range(args.sets):
                values = [r["metrics"][name]["value"]
                          for r in results[(workload, s)]]
                med, q1, q3, spread = summary(values)
                base_med = med if base_med is None else base_med
                shift = (med - base_med) / base_med if base_med else 0.0
                flags = []
                bound = bounds.get(name)
                if bound:
                    if name != "setup_s" and spread > bound["bound"] / 3:
                        flags.append("wide")
                    worse = shift if bound["better"] == "lower" else -shift
                    if worse > bound["bound"]:
                        flags.append("SHIFT")
                print("  %-28s set %d  median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %6.2f%%  vs set0 %+6.2f%% %s" % (
                          name, s, med, q1, q3, 100 * spread, 100 * shift,
                          " ".join(flags)))
                report.setdefault(workload, {}).setdefault(name, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "shift": shift, "values": values})
        for s in range(args.sets):
            attempted = sum(r["attempted"] for r in results[(workload, s)])
            failed = sum(r["failed"] for r in results[(workload, s)])
            correct = all(r["correct"] for r in results[(workload, s)])
            print("  set %d: failed %d of %d attempted, all correct: %s" % (
                s, failed, attempted, correct))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
