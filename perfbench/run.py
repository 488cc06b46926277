#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload decide|guard|learn --seed N --seconds S --trace 0|1

Run from the root of a checkout. Cargo's output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The build uses
CARGO_TARGET_DIR when it is set (relative paths resolve against the
checkout root) and perfbench/target otherwise. Exits non-zero, without a
result line, when the build fails, and with the benchmark's own exit code
otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
