#!/usr/bin/env python3
"""End-to-end benchmark of the off-target search: build, generate, run.

    python3 e2e_bench/run.py --workload cold_scan --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (e2e_bench/CMakeLists.txt, on top of src/) into .bench_build/e2e;
later runs rebuild incrementally. The seed's inputs (genome FASTA, guides,
serial-oracle records) are generated once into .bench_build/e2e_data and
reused by every workload run with that seed. All scratch files, spill runs
included, stay under .bench_build.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
the line before it carries the host fingerprint and run context. Exits
non-zero without a result when the build, the input generation or the run
fails. See e2e_bench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cold_scan", "warm_query", "serve_evict")
KEEP_INPUTS = 3  # seeds whose generated inputs stay cached
RUN_BUDGET_S = 170  # input generation plus the run, after the build


def log(*parts):
    print("e2e:", *parts, file=sys.stderr, flush=True)


def call(cmd, timeout, **kw):
    """Run cmd to completion (killed and reaped on timeout); its stdout goes
    to our stderr unless captured."""
    kw.setdefault("stdout", sys.stderr)
    return subprocess.run(cmd, timeout=timeout, check=True, **kw)


def build():
    build_dir = os.path.join(STATE, "e2e")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             timeout=300)
    call(["cmake", "--build", build_dir, "--target", "e2e_bench",
          "-j", str(os.cpu_count() or 1)], timeout=850)
    return os.path.join(build_dir, "e2e_bench")


def inputs(binary, seed, scale, timeout):
    """Generate (or reuse) the seed's inputs; returns their directory."""
    data = os.path.join(STATE, "e2e_data")
    final = os.path.join(data, f"seed{seed}_scale{scale}")
    if not os.path.exists(os.path.join(final, "done")):
        shutil.rmtree(final, ignore_errors=True)
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        call([binary, "gen", "--seed", str(seed), "--scale", str(scale),
              "--dir", tmp], timeout=timeout)
        open(os.path.join(tmp, "done"), "w").close()
        os.rename(tmp, final)
    os.utime(final)
    cached = sorted((os.path.join(data, d) for d in os.listdir(data)),
                    key=os.path.getmtime, reverse=True)
    for old in cached[KEEP_INPUTS:]:
        shutil.rmtree(old, ignore_errors=True)
    return final


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = per-layer traced run")
    ap.add_argument("--scale", type=int, default=128,
                    help="hg19 scale divisor (128 = 24.2 Mbp; smoke.py uses 8192)")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="perturb the expected records: every operation must fail")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("repository sources (src/) not found beside", HERE)
        return 2
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp  # compiler and generator temporaries
    try:
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        data = inputs(binary, args.seed, args.scale, RUN_BUDGET_S)
        work = os.path.join(STATE, "e2e_work", str(os.getpid()))
        os.makedirs(work, exist_ok=True)
        env = dict(os.environ, TMPDIR=work)  # engine spill runs
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", data, "--work", work]
        if args.corrupt_oracle:
            cmd.append("--corrupt-oracle")
        try:
            out = call(cmd, timeout=max(1, deadline - time.monotonic()), env=env,
                       stdout=subprocess.PIPE, text=True).stdout
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (subprocess.SubprocessError, OSError) as e:
        log("failed:", e)
        return 1

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line:", lines[-1:] or "<none>")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
