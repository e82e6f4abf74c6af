#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is compiled with dune (release profile) into .bench_build/
in the current directory, then run with the given arguments.  Its last
stdout line is the result object; the exit code is the benchmark's own.
A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", TARGET]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.exit("perfbench: build failed: %s" % exc)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build()
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    done = subprocess.run([exe] + sys.argv[1:], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
