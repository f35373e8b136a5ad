#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Builds the harness from the checkout's sources into .bench_build/perfbench,
runs one workload in its own process and forwards its result: the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exits 0 only when the harness ran and every
output check passed.

  python3 perfbench/run.py --workload mcb_sweep --seed 1 --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
--size tiny and --reference exist for perfbench/selftest.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
WORKLOADS = ("mcb_sweep", "lulesh_sweep", "mcb_bounds")
# The harness must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; build chatter goes to
    stderr so stdout carries only the result."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench_harness"],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--reference", default=os.path.join(HERE, "reference.tsv"),
                   help="digest file checked at the default seed")
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--reference", args.reference,
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError) as e:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result line ({e}); harness exit "
              f"{proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
