#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

Runs every workload at minimum length (--seconds 1; the direct workloads
still finish one pass over their inputs) with and without tracing, and
checks that the run is correct, that every metric BENCHMARK.json names is in
the result line with its unit and printed as a "metric" line, and that
tools/cpr_json_validate accepts the result line. Finally it checks that a
directory holding only BENCHMARK.json and perfbench/ is refused: non-zero
exit and no result line. Exits 0 when everything passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def run(workload, trace, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(spec, workload, trace, failures):
    label = "%s --trace %d" % (workload, trace)
    proc = run(workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append("%s: exit %d\n%s" % (label, proc.returncode, proc.stderr[-2000:]))
        return
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        failures.append("%s: correct=%s attempted=%s" % (label, result.get("correct"),
                                                          result.get("attempted")))
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            failures.append("%s: metric %s missing or not in %s: %s" % (label, name, unit, got))
        if printed.get(name) != unit:
            failures.append("%s: metric %s not printed with unit %s" % (label, name, unit))
    extra = set(result["metrics"]) - {metric["name"] for metric in expected}
    if extra:
        failures.append("%s: unexpected metrics %s" % (label, sorted(extra)))
    validate = subprocess.run([os.path.join(build_dir(), "cpr_json_validate")],
                              input=lines[-1], capture_output=True, text=True)
    if validate.returncode != 0:
        failures.append("%s: cpr_json_validate: %s" % (label, validate.stderr))
    print("ok   %s (%d repairs)" % (label, result["attempted"]))


def check_refused_without_sources(failures):
    bare = os.path.join(ROOT, ".bench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fattree_pc3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare checkout: exit %d, stdout %r" % (proc.returncode, proc.stdout))
    else:
        print("ok   bare checkout refused (exit %d)" % proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace, failures)
    check_refused_without_sources(failures)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
