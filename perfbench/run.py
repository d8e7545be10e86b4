#!/usr/bin/env python3
"""Builds the `cce` binary and the `perfbench` program from source, then runs one
benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-live --seed 1 --seconds 15 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). Cargo's progress goes
to stderr; the last line on stdout is perfbench's JSON result. Any build
failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(["--manifest-path", "Cargo.toml", "-p", "cce-cli", "--bin", "cce"], target_dir)
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    perfbench = os.path.join(release, "perfbench")
    cmd = [perfbench, "--cce", os.path.join(release, "cce")] + sys.argv[1:]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
