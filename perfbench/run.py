#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <cycle-tiny|replay-small> \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark package in
perfbench/ (release profile, offline) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs it with the same arguments.
The benchmark prints one JSON result object as the last line of
standard output. Build failures exit with the build's code (never 0)
and print no result.
"""

import os
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
BINARY = "etpp-perfbench"


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(PKG, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", BINARY)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
