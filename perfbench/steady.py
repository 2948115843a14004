#!/usr/bin/env python3
"""Steadiness check: runs one workload k times, each in a fresh process.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seconds 15]
                                [--first-seed 1] [--trace 0|1]

Run i uses seed first-seed + i. Prints, for every metric of the result
line, the median, the quartiles (statistics.quantiles, n=4), the
interquartile range as a share of the median, and min/max; then each run's
correct/attempted/failed. Exits non-zero if any run fails or is incorrect,
or if the printed metric names differ from those BENCHMARK.json declares.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this trace mode, if any."""
    path = os.path.join(bench.ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as spec:
        doc = json.load(spec)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = bench.build()
    values = {}
    units = {}
    runs = []
    ok = True
    for i in range(args.runs):
        run_args = bench.parse_args([
            "--workload", args.workload, "--seed", str(args.first_seed + i),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        done = bench.run(binary, run_args, stdout=subprocess.PIPE)
        result = result_line(done.stdout) if done.returncode == 0 else None
        if result is None:
            print("seed %d: exit %d, no result" %
                  (run_args.seed, done.returncode))
            ok = False
            continue
        runs.append((run_args.seed, result))
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    declared = declared_metrics(args.trace)
    if declared is not None and runs and set(values) != set(declared):
        print("metrics differ from BENCHMARK.json: printed but undeclared %s,"
              " declared but not printed %s" %
              (sorted(set(values) - set(declared)),
               sorted(set(declared) - set(values))))
        ok = False

    print("%s: %d runs of %g s, trace %d" %
          (args.workload, len(runs), args.seconds, args.trace))
    print("%-40s %14s %14s %14s %8s %14s %14s" %
          ("metric", "median", "q1", "q3", "iqr/med", "min", "max"))
    for name, series in values.items():
        med = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print("%-40s %14.6g %14.6g %14.6g %8.4f %14.6g %14.6g  %s" %
              (name, med, q1, q3, spread, min(series), max(series),
               units[name]))
    for seed, result in runs:
        share = result["failed"] / result["attempted"]
        print("seed %d: correct %s attempted %d failed %d (share %.6f)" %
              (seed, result["correct"], result["attempted"], result["failed"],
               share))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
