#!/usr/bin/env python3
"""Compares the simulated-count digests of two source trees.

    python3 perfbench/compare_digest.py --base <tree> [--head <tree>] [--seed 1]

Builds the benchmark against the src/ of each tree (head defaults to the
checkout this script sits in), runs one round of every simulation workload
(paper_figures, chaos_trials) with the same seed, and compares
the digests of their simulated counts: events, frames, CPU tasks,
heartbeats, labels, handovers and the rest of the per-layer counters, plus,
for chaos_trials, every trial's full metric digest. A change meant only to
make the simulator faster must leave every digest unchanged. Exits 1 when a
digest differs, and prints the differing counts.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SIM_WORKLOADS = ("paper_figures", "chaos_trials")


def detail_of(binary, tree, workload, seed):
    args = bench.parse_args(["--workload", workload, "--seed", str(seed),
                             "--seconds", "0", "--trace", "0"])
    done = bench.run(binary, args, et_root=tree, stdout=subprocess.PIPE)
    for line in done.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    bench.fail("%s printed no detail line for %s" % (binary, workload))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", default=bench.ROOT)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    binaries = {}
    for side in ("base", "head"):
        tree = os.path.abspath(getattr(args, side))
        build_dir = os.path.join(bench.ROOT, ".bench_build", "digest-" + side)
        binaries[side] = (bench.build(build_dir, tree), tree)

    same = True
    for workload in SIM_WORKLOADS:
        details = {side: detail_of(binary, tree, workload, args.seed)
                   for side, (binary, tree) in binaries.items()}
        base, head = details["base"], details["head"]
        match = base["digest"] == head["digest"]
        same = same and match
        print("%-14s base %s head %s %s" % (workload, base["digest"],
                                              head["digest"],
                                              "same" if match else "DIFFERENT"))
        if not match and "digest_counts" in base:
            for a, b in zip(base["digest_counts"].splitlines(),
                            head["digest_counts"].splitlines()):
                if a != b:
                    print("    %s  ->  %s" % (a, b))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
