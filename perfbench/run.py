#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

The measuring program (a Cargo package of its own in this directory) is
built offline into $CARGO_TARGET_DIR, or `.bench_build` at the repository
root when that is unset. Each workload then runs in its own process on one
thread (C4_THREADS=1): the program measures the host and simulated metrics,
and this script adds the process's peak resident memory, read from the
kernel's accounting of the finished child. The program records each
operation's fingerprint under the build directory the first time it runs
at a seed, and every later run of the same build at that seed must
reproduce it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload in turn, prints each one's result line, and ends with a summary
object whose metric names are prefixed with the workload's name.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ["moe-512-exact", "rings-16k-twotier", "fleet-soak-512"]
# A workload process still running this long after its measuring time is
# killed, and the run fails. The margin covers the last round and the two
# rounds every run makes, at least.
TIMEOUT_MARGIN_S = 60
DEFAULT_SEED = 42
# BENCHMARK.json's run length; the bounds were measured at it.
DEFAULT_SECONDS = 35.0


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the measuring program; returns its path, or None on failure."""
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        # Cargo's output goes to standard error, keeping stdout for results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "c4_perfbench")


def run_workload(binary, name, seed, seconds, trace):
    """Runs one workload process; returns its result object, or None."""
    env = dict(os.environ, C4_THREADS="1")
    cmd = [binary, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--fingerprints", os.path.join(target_dir(), "perfbench-fingerprints")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(seconds + TIMEOUT_MARGIN_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 reaps the child and returns its resource usage; on Linux
        # ru_maxrss is the peak resident set in KiB.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        print(f"run.py: {name} exited with {proc.returncode}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: {name} printed no result", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"run.py: {name} printed a malformed result", file=sys.stderr)
        return None
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    binary = build()
    if binary is None:
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(binary, name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        if args.workload == "all":
            print(f"{name}: {json.dumps(result)}")
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
