#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [--seconds N]

Run from the repository root. Runs every workload in BENCHMARK.json briefly,
untraced and traced, and fails if the run exits non-zero (run.py refuses a
metric BENCHMARK.json does not list with that unit, so a renamed metric
breaks loudly), if the result line is malformed, if a listed metric is
missing or carries another unit, or if an end-to-end metric reads 0. Then
checks that the benchmark refuses to run, printing no result, in a directory
holding only BENCHMARK.json and the benchmark files.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys


def run(cwd, workload, seconds, trace, env=None):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


def check_result(stdout, expected, nonzero):
    """Returns a list of problems with the last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return ["last line is not JSON: %s" % e]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(res))
        return problems
    if res["correct"] is not True:
        problems.append("correct is %r" % res["correct"])
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted is %r" % res["attempted"])
    if not isinstance(res["failed"], int):
        problems.append("failed is %r" % res["failed"])
    for m in expected:
        got = res["metrics"].get(m["name"])
        if got is None:
            problems.append("missing metric %s" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("%s has unit %r, BENCHMARK.json says %r" %
                            (m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("%s has no numeric value" % m["name"])
        elif nonzero and got["value"] == 0:
            problems.append("end-to-end metric %s reads 0" % m["name"])
    return problems


def check_bare(root):
    """The benchmark must fail without the repository sources."""
    bare = os.path.join(root, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(root, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = run(bare, "update", 1, 0, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        return ["bare directory: exit %d, stdout %r" % (p.returncode,
                                                        p.stdout[-200:])]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = []
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            p = run(root, w["name"], args.seconds, trace)
            problems = (["exit %d: %s" % (p.returncode, p.stderr[-500:])]
                        if p.returncode else
                        check_result(p.stdout, expected, trace == 0))
            status = "ok" if not problems else "FAIL"
            print("%-12s trace=%d %s" % (w["name"], trace, status))
            failures += ["%s trace=%d: %s" % (w["name"], trace, x)
                         for x in problems]
    bare = check_bare(root)
    print("bare checkout refuses to run: %s" % ("ok" if not bare else "FAIL"))
    failures += bare
    for f in failures:
        print("  " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
