#!/usr/bin/env python3
"""Builds and runs the CTS benchmark from the repository root.

    python3 perfbench/run.py --workload suite|grid_1m|slltd_mix \
        --seed N --seconds S --trace 0|1

Builds the `slltd` daemon (root workspace) and the `perfbench` package
in release mode into $CARGO_TARGET_DIR (default `.bench_build`), then
runs `perfbench` with the given arguments. The last line of standard
output is the JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys


def main() -> int:
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        print("error: run from the repository root (no workspace here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "Cargo.toml",
         "-p", "sllt-server", "--bin", "slltd"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"error: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--slltd", os.path.join(release, "slltd")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
