#!/usr/bin/env python3
"""Smoke test of the NTCS benchmark. `dune runtest` runs it; by hand:

    dune build ./perfbench/ntcs_bench.exe
    python3 perfbench/test_smoke.py --exe _build/default/perfbench/ntcs_bench.exe \\
        --benchmark BENCHMARK.json

For every workload in BENCHMARK.json it runs the bench binary in its smoke
mode (short windows, one repeat of each kind) and checks that:
- the last output line parses and names exactly the metrics BENCHMARK.json
  lists for that trace mode, with their units (run.validate);
- the result is correct and no op failed;
- the simulated fields repeat exactly across two runs at the same seed,
  both at the tuning seed and at the held-out seed of context.json.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Fields that are pure functions of the seed and the program.
DETERMINISTIC = {
    0: ["op_virtual_us_p50", "op_virtual_us_p99", "setup_virtual_us"],
    1: ["sched.events_per_op", "net.bytes_per_op", "nsp.cache_hit_ratio",
        "gw.forwards_per_op"],
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--exe", required=True)
    ap.add_argument("--benchmark", required=True)
    args = ap.parse_args()
    exe = os.path.abspath(args.exe)
    spec = run.load_spec(args.benchmark)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "context.json")) as f:
        seeds = json.load(f)["seeds"]
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for seed, traces in ((seeds["tuning"][0], (0, 1)), (seeds["held_out"], (0,))):
            for trace in traces:
                results = [run.run_one(exe, name, seed, 1, trace, ["--smoke"])[1]
                           for _ in range(2)]
                tag = "%s seed=%d trace=%d" % (name, seed, trace)
                for r in results:
                    failures += ["%s: %s" % (tag, p) for p in run.validate(r, spec, trace)]
                    if not r["correct"] or r["failed"] != 0:
                        failures.append("%s: correct=%s failed=%s"
                                        % (tag, r["correct"], r["failed"]))
                a, b = (r["metrics"] for r in results)
                for field in DETERMINISTIC[trace]:
                    if a[field]["value"] != b[field]["value"]:
                        failures.append("%s: %s differs across equal-seed runs: %s vs %s"
                                        % (tag, field, a[field]["value"], b[field]["value"]))
    if failures:
        print("\n".join(failures))
        sys.exit(1)
    print("perfbench smoke: every metric emitted, outputs correct, runs deterministic")


if __name__ == "__main__":
    main()
