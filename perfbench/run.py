#!/usr/bin/env python3
"""NTCS benchmark: steady-state round trips and lookups, four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of the workloads listed in BENCHMARK.json. The script builds
perfbench/ntcs_bench.exe from source with dune into .bench_build (release
profile, dune cache off, so nothing is written outside the checkout), runs
the workload for S seconds of measurement, prints every metric by name and
unit, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The result line is checked against BENCHMARK.json before
it is printed: exactly the listed metrics, with the listed units, every
value a finite number. A build failure, a crash, or a result line that
fails the check exits non-zero without printing a result.

perfbench/context.json records why each workload was chosen, which
end-to-end metric each per-layer metric should move, and how host times
are scaled to a nominal host speed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "ntcs_bench.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    rows = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    return {row["name"]: row["unit"] for row in rows}


def validate(result, spec, trace):
    """Return a list of problems with one result object (empty if none)."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are not exactly %s" % sorted(RESULT_KEYS)]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    if not isinstance(got, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric %s" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("unlisted metric %s" % name)
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("metric %s is not {value, unit}" % name)
            continue
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("metric %s has a non-finite value" % name)
        if m["unit"] != want[name]:
            problems.append("metric %s has unit %r, expected %r" % (name, m["unit"], want[name]))
    return problems


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("run.py: %s missing: not an NTCS source checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/ntcs_bench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("run.py: build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: build failed")


def run_one(exe, workload, seed, seconds, trace, extra=()):
    """Run the bench binary once; return (info lines, parsed result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish in time" % workload)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("run.py: %s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("run.py: %s printed no result line" % workload)
    return lines[:-1], result


def main():
    spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for name in workloads:
        info, result = run_one(EXE, name, args.seed, args.seconds, args.trace)
        problems = validate(result, spec, args.trace)
        if problems:
            sys.exit("run.py: %s: %s" % (name, "; ".join(problems)))
        for line in info:
            print(line)
        for metric, m in sorted(result["metrics"].items()):
            print("%-16s %-36s %18.6g %s" % (name, metric, m["value"], m["unit"]))
        results[name] = result
    last = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps(last))


if __name__ == "__main__":
    main()
