#!/usr/bin/env python3
"""Build and run the AIMES system benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release tree of the repository's
sources plus the benchmark binary under .bench_build/perfbench (or under
$CARGO_TARGET_DIR/perfbench when that variable is set); later calls only
check that the tree is up to date. Build output goes to stderr. The
benchmark binary prints a context line and, as the last line of stdout,
the result object {"correct", "attempted", "failed", "metrics"}.

Workloads: paper_sweep, campaign_backlog, grid, daemon_roundtrip.
Exit code 0 only when a result was printed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_sweep", "campaign_backlog", "grid", "daemon_roundtrip")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "aimes_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    out_dir = os.path.join(root, ".bench_out")
    aimesd = os.path.join(build_dir, "aimes", "tools", "aimesd")
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--aimesd", aimesd,
           "--out-dir", out_dir]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
