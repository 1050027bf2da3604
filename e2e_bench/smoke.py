#!/usr/bin/env python3
"""Seconds-long smoke check of the end-to-end benchmark.

    python3 e2e_bench/smoke.py

Runs every workload of BENCHMARK.json at a small genome (hg19/8192, about
0.4 Mbp) for one second, untraced and traced, and checks that
  * each run is correct, with at least one operation and none failed;
  * it reports exactly the metrics BENCHMARK.json names for that mode,
    each with its declared unit;
  * the oracle gate trips: with --corrupt-oracle every operation fails and
    the run reports correct = false.
Exits 0 when every check holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "8192"
SEED = "7"


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = run(w, trace)
            where = f"{w} trace={trace}"
            if res is None:
                problems.append(f"{where}: run failed")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{where}: not correct ({res['attempted']} attempted,"
                                f" {res['failed']} failed)")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                units = sorted(k for k in set(got) & set(declared[trace])
                               if got[k] != declared[trace][k])
                problems.append(f"{where}: metrics differ: missing {missing},"
                                f" extra {extra}, wrong unit {units}")
            print(f"ran {where}: {res['attempted']} ops, {len(got)} metrics", flush=True)
        bad = run(w, 0, "--corrupt-oracle")
        if bad is None or bad["correct"] or bad["failed"] != bad["attempted"]:
            problems.append(f"{w}: oracle gate did not trip on a wrong reference: {bad}")
        else:
            print(f"ok  {w}: gate tripped on all {bad['attempted']} ops", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
