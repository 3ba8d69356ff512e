#!/usr/bin/env python3
"""Builds the SpinStreams benchmark from source and runs it.

    python3 spinbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The release build goes to
$CARGO_TARGET_DIR (default: .bench_build in the current directory); cargo's
own output goes to standard error. Every argument is passed on to the
benchmark binary, whose exit code this script returns. If the build fails,
the script exits non-zero without printing a result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("spinbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "spinbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
