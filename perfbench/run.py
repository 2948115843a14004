#!/usr/bin/env python3
"""Runs one benchmark workload, building the benchmark first if needed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the library sources under src/ plus the benchmark program) into
.bench_build/perfbench; later runs only re-check the build. The program's
output is passed through: provenance and detail lines, then one JSON result
line. Traced runs write their Chrome trace-event file under
.bench_build/traces/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("paper_figures", "chaos_trials", "serve_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def configured_root(build_dir):
    """The source tree an existing build directory was configured for."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("ET_ROOT:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir=BUILD_DIR, et_root=ROOT):
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(et_root, "src", "scenario", "tank.hpp")):
        fail("no EnviroTrack sources under %s/src" % et_root)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if configured_root(build_dir) != et_root:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DET_ROOT=" + et_root])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def git_sha(tree):
    if shutil.which("git") is None:
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(binary, args, et_root=ROOT, stdout=None):
    """Runs the benchmark program; returns its CompletedProcess."""
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(et_root))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=stdout,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main():
    args = parse_args()
    binary = build()
    sys.stdout.flush()
    done = run(binary, args)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
