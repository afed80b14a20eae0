#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload nat-dram --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The Go package in this directory is
built from source into .bench_build/ (the Go build cache, temporary
files and span/profile output stay there too), then run once in a fresh
process. Its last line of standard output is the result JSON; any
failure to build or run exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
# A run measures for --seconds; set-up, the correctness checks and, in a
# traced run, the layer ladder come on top.
RUN_OVERHEAD_S = 140
WORKLOADS = ("nat-dram", "sfc6-cached", "figures-quick")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    timeout = args.seconds + RUN_OVERHEAD_S
    start = time.monotonic()
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: {args.workload} exceeded {timeout}s", file=sys.stderr)
        return 1
    out = run.stdout.decode()
    if run.returncode != 0:
        sys.stderr.write(out)
        print(f"run.py: {args.workload} exited {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    print(f"run.py: {args.workload} ran {time.monotonic() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
