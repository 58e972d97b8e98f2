#!/usr/bin/env python3
"""Host-time benchmark for the smokestack tools.

Run from the root of the repository:

    python3 perfbench/run.py --workload spec|campaign|serve --seed N \
        --seconds S --trace 0|1

Builds perfbench/src/main.exe with dune (release profile) and runs it.
Build output goes to stderr; the last line of stdout is the benchmark's
JSON result.  The exit code is the benchmark's: 0 when every output
check passed, 1 when one failed, 2 on a usage or build error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/src/main.exe"
OUT = ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["spec", "campaign", "serve"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return p.parse_args()


def build(dune):
    # Everything the build writes stays inside the checkout: the build
    # directory, and no shared dune cache.
    build_dir = os.environ.get("DUNE_BUILD_DIR", "_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "--profile", "release", "--build-dir", build_dir, TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)
    return os.path.join(ROOT, build_dir, "default", "perfbench", "src", "main.exe")


def main():
    args = parse()
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project next to perfbench/: run from a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    exe = build(dune)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
