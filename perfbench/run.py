#!/usr/bin/env python3
"""Builds and runs the lastcpu benchmark.

    python3 perfbench/run.py --workload kvs-hot --seed 0 --seconds 20 --trace 0

Run it from the root of the repository. It builds `perfbench/` (a cargo
package of its own that links the emulator crates by path) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
binary with the given arguments. Cargo's output goes to stderr, so the last
line of stdout is the binary's JSON result. Exits non-zero when the build
fails, when a check fails, or on a usage error. See perfbench/README.md.
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
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
