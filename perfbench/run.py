#!/usr/bin/env python3
"""Build and run PIQL's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scadr-home --seed 1 --seconds 10 --trace 0

It builds the Go benchmark in perfbench/ from source (Go build cache,
binary and outputs all under the build directory, $CARGO_TARGET_DIR or
.bench_build), then runs it. The benchmark's standard output ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. A failed
build exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOENV="off",
               GOTOOLCHAIN="local",
               GOPROXY="off",
               GOFLAGS="-buildvcs=false",
               PERFBENCH_GIT_SHA=git_sha())
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary,
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", repr(args.seconds),
           "-trace", str(args.trace),
           "-out", os.path.join(build, "perfbench-out")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
