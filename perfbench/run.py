#!/usr/bin/env python3
"""Builds the MAREA benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <telemetry|bulk_lossy|swarm_command> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR, or .bench_build under the current directory when
that is unset. The human-readable report goes to stderr; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is the benchmark's: 0 when every correctness check
passed, 1 when one failed, 2 on a usage or build error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 2
    version = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    rustc = version.stdout.strip() or "rustc unknown"
    exe = os.path.join(target, "release", "marea-perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--rustc", rustc]).returncode


if __name__ == "__main__":
    sys.exit(main())
