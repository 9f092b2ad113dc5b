#!/usr/bin/env python3
"""Builds and runs the mdlump benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload tandem-cold --seed 1 --seconds 20 --trace 0

The benchmark binary is built in release mode from the sources in this
checkout (into $CARGO_TARGET_DIR, default .bench_build) and then run
with the same arguments. Its last line of standard output is the JSON
result. Exits non-zero, printing no result, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
