#!/usr/bin/env python3
"""Builds and runs the end-to-end repair benchmark.

    python3 perfbench/run.py --workload dc_fig7 --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the pipeline sources under src/ plus the benchmark program) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
only what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Scratch files (daemon
snapshots, the traced run's span dump) go to .bench_work/.

Exits with the benchmark's own code (0 ok, 1 a result disagreed with the
soundness oracle) or 2 when the sources are missing or do not build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dc_fig7", "fattree_pc3", "cprd_edits")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cpr.h")):
        print("run.py: no pipeline sources under src/; run from a full checkout",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "cpr_e2e_bench", "cpr_json_validate"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    work_dir = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    command = [os.path.join(build_dir, "cpr_e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
