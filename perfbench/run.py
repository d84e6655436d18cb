#!/usr/bin/env python3
"""Builds `mps-serve` and the benchmark from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload walk|sweep|generate --seed N \
        --seconds S --trace 0|1 [--smoke]

Build outputs go to $CARGO_TARGET_DIR (default `.bench_build`); the
benchmark's generated artifacts and span files go to a `perfbench`
directory inside it. The last line on stdout is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest, *extra]
    result = subprocess.run(cmd, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    workspace = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(workspace):
        sys.exit("perfbench: no repository workspace next to the benchmark; nothing to build")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(workspace, "-p", "mps-serve", "--bin", "mps-serve")
    build(os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--server",
        os.path.join(release, "mps-serve"),
        "--work",
        os.path.join(target, "perfbench"),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
