#!/usr/bin/env python3
"""Builds the benchmark driver from the checkout's sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hsn_exchange --seed 1 --seconds 20 --trace 0

The last line of standard output is the driver's JSON result. The build
lives in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and
is incremental, so only the first run in a checkout compiles. Recorded
result digests (perfbench/expected_digests.json) are handed to the driver
for the seeds that have them, so a change in any simulated statistic
counts as a failed operation.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures once, then builds incrementally; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def expected_digests(workload, seed):
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        recorded = json.load(f)
    return recorded.get(workload, {}).get(str(seed), {})


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out = build_dir()
    exe = build(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work")]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    for part, digest in sorted(expected_digests(args.workload, args.seed).items()):
        cmd += ["--expect", f"{part}={digest}"]
    # The driver's stdout (ending in the JSON line) passes straight through.
    # A termination request stops the driver too, and waits for it.
    proc = subprocess.Popen(cmd)
    signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    signal.signal(signal.SIGINT, lambda *_: proc.terminate())
    sys.exit(proc.wait())


if __name__ == "__main__":
    main()
