#!/usr/bin/env python3
"""Build lidbench from the checkout's sources and run one workload.

    python3 lidbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The build goes to dune's _build
directory; its log goes to standard error, so the last line of standard
output is the benchmark's JSON result.  Any further arguments are passed
to the benchmark (see lidbench --help).
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./lidbench/main.exe"


def dune():
    if shutil.which("dune"):
        return ["dune"]
    return ["opam", "exec", "--", "dune"]


def main():
    build = subprocess.run(
        dune() + ["build", "--root", ROOT, TARGET], cwd=ROOT, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("lidbench: build failed", file=sys.stderr)
        return build.returncode or 2
    exe = os.path.join(ROOT, "_build", "default", "lidbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
