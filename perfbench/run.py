#!/usr/bin/env python3
"""Builds and runs the selearn benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (perfbench/Cargo.toml) builds against the
repository's crates by path, in release mode and offline. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The target directory is $CARGO_TARGET_DIR when set, else perfbench/target.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("estimate-hot", "estimate-cold", "feedback-mixed", "fit")
# A run must end within 180 s; the binary's own work takes well under this.
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest],
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    binary = os.path.join(target, "release", "selearn-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
