#!/usr/bin/env python3
"""Builds and runs the VP benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (the repository's src/ plus the vpbench
program) into $CARGO_TARGET_DIR or .bench_build, builds it and runs vpbench.
The last stdout line is the result object. vpbench reports the metrics its
workload exercises; the others that BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1) are added with value 0.
Build output goes to stderr. Exits non-zero, printing no result, if the
sources are missing, the build fails, vpbench finds an incorrect output, or
vpbench reports a metric BENCHMARK.json does not list with that unit.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("update", "read-mostly", "fault-storm")
RUN_TIMEOUT_S = 170


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    """Configures and builds vpbench; returns its path or None."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: no repository sources (src/) next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "vpbench", "-j", jobs],
    ]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "vpbench")


def complete(result_line, listed):
    """Returns the result line with every listed metric present, or None if
    vpbench reported a metric that is not listed with the same unit."""
    result = json.loads(result_line)
    units = {m["name"]: m["unit"] for m in listed}
    for name, m in result["metrics"].items():
        if units.get(name) != m["unit"]:
            print("run.py: vpbench reported %s [%s], which BENCHMARK.json "
                  "does not list for this mode" % (name, m["unit"]),
                  file=sys.stderr)
            return None
    for name, unit in units.items():
        result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    return json.dumps(result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(root, out_dir)
    binary = build(root, os.path.join(out_dir, "perfbench"))
    if binary is None:
        return 1

    spans = os.path.join(out_dir, "spans-%s.tsv" % args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(root)]
    if args.trace:
        cmd += ["--spans-out", spans]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: vpbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if run.returncode != 0:
        # vpbench explains on stderr; print no result.
        return run.returncode
    lines = run.stdout.rstrip("\n").split("\n")
    result = complete(lines[-1], listed)
    if result is None:
        return 1
    sys.stdout.write("\n".join(lines[:-1] + [result]) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
