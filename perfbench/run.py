#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark binary is built with dune into
.bench_build/ (release profile, shared cache off, so nothing is written
outside the checkout), then run with the same arguments; its last line of
standard output is the JSON result.  If the build fails, nothing is printed
on standard output and the exit code is non-zero.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["net-dpor", "mailboat-naive", "fs-crash-faults", "fs-serve", "all"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache", "disabled", "--display", "quiet", TARGET]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")


def pin_to_one_core():
    """Run the benchmark and its calibration child on one core, so that the
    calibration kernel shares whatever slows the workload's core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    exe = build()
    done = subprocess.run([exe, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)],
                          cwd=ROOT, preexec_fn=pin_to_one_core)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
