#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

The Rust package next to this file is built in release mode (offline;
every dependency is a path inside the repository) into
``$CARGO_TARGET_DIR`` or ``perfbench/target``, then run with the same
arguments.  Build output goes to stderr so that the last line on stdout
is the benchmark's JSON result.  The exit code is the build's when it
fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
