#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench.ml).

    python3 perfbench/run.py --workload minic-long --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

Run from the root of the repository. The benchmark is built from source
with dune into .bench_build/ (release profile, dune cache off, so
nothing is written outside the checkout), then executed with the given
arguments. The last line of standard output is the JSON result; build
output goes to standard error. Each workload runs in its own process, so
one workload's peak heap never carries into the next.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["minic-long", "call-heavy", "predict-adapt"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    except OSError as e:
        fail(f"cannot run dune: {e}")
    if done.returncode != 0:
        fail("build failed")


def run_one(workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"{workload}: exited with code {proc.returncode}")
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    build()
    if args.workload != "all":
        sys.stdout.write(run_one(args.workload, args))
        return
    # every workload in its own process; the last line merges their
    # results, metric names prefixed with the workload
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        out = run_one(w, args)
        sys.stdout.write(out)
        r = json.loads(out.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            merged["metrics"][f"{w}/{name}"] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
