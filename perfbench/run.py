#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload profile-lulesh --seed 1 --seconds 20 --trace 0

The Go package in this directory is built into .bench_build/ (with the
Go build cache there too, so nothing is written outside the checkout),
then run with the same arguments. Its last stdout line is the result
JSON. The exit code is the benchmark's; a failed build exits non-zero
without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    # Settings that change what the program computes stay unset, so every
    # run measures the same work.
    for var in ("NUMAPROF_BINS", "NUMAPROF_PARALLEL", "NUMAPROF_LOG", "GOMAXPROCS", "GODEBUG"):
        env.pop(var, None)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command keeps its telemetry counters under the user
        # config directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    workdir = os.path.join(BUILD, "work")
    run = subprocess.run([binary, "-workdir", workdir] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
