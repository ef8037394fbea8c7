#!/usr/bin/env python3
"""Build and run the layer-attributed benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tune-small --seed 1 --seconds 20 --trace 0

The `acclaim` CLI and the harness (a package of its own under
perfbench/harness) are built from source with cargo, offline, into
$CARGO_TARGET_DIR (default .bench_build). The harness then drives the
CLI and its serve daemon and prints the result as the last stdout line.
Build output goes to stderr. A failed build, or a directory without
the repository's sources, exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HARNESS_MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")


def build(env):
    """Build the CLI and the harness; return the harness binary path."""
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("perfbench: run from the repository root (no Cargo.toml or crates/ here)")
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "acclaim-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", HARNESS_MANIFEST],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return os.path.join(env["CARGO_TARGET_DIR"], "release")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bin_dir = build(env)
    cmd = [
        os.path.join(bin_dir, "perfbench-harness"),
        "--acclaim",
        os.path.join(bin_dir, "acclaim"),
        *sys.argv[1:],
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
