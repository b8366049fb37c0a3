#!/usr/bin/env python3
"""Build and run the sunosmt end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory, a module of its own
that uses the repository's module through a replace directive. This
script builds it into .bench_build/ at the repository root, keeping the
Go build cache there too, then runs it with the arguments given and
exits with its status. The last line of its standard output is the
result as one JSON object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")

# The program stops itself well within this; the limit only guards
# against a run that cannot be stopped from inside.
RUN_TIMEOUT_S = 175


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOMODCACHE=os.path.join(BUILD, "go-mod"),
        GOPATH=os.path.join(BUILD, "go-path"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    os.makedirs(BUILD, exist_ok=True)
    return subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env).returncode


def main():
    status = build()
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status or 1
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
