#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 addsperf/run.py --workload paper --seed 1 --seconds 20 --trace 0

The benchmark is the Go program in this directory. It is built from source
with the Go build cache, temporary files and the binary under .bench_build/
in the checkout, so a run reads and writes nothing outside the checkout
(apart from the Go toolchain itself). The program's last line of standard
output is the JSON result; the exit code is the program's.
"""

import argparse
import os
import subprocess
import sys

# A run measures for --seconds, plus set-up and the reference checks; these
# bound the build and the run so that a first run, which builds, ends
# within 900 s and any later one within 180 s.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["paper", "gen", "service"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "addsperf")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"addsperf: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("addsperf: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"addsperf: run exceeded {RUN_LIMIT_S}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
