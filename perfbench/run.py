#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload verify|kernel|serve --seed N \
        --seconds S --trace 0|1

The executable is built with dune inside the checkout (dune's shared cache
is switched off, so nothing is written outside it). Its standard output is
passed through unchanged; the last line is the JSON result. A traced run
also writes its spans to .perfbench_out/. The exit code is the benchmark's:
0 when every correctness check passed, 1 when one failed, 2 on bad
arguments or a failed build.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
# A run measures for --seconds and then finishes the pass under way; the
# slowest traced pass takes about ten seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail(f"{ROOT} is not the repository root (no dune-project)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ROOT, "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "kernel", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--spans", os.path.join(out, f"spans-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
