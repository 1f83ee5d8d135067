#!/usr/bin/env python3
"""Builds the chop performance benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <fig7_sweep|generate_1k|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first call configures and builds an optimized binary under
.bench_build/perfbench at the repository root; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. --smoke runs one op of every workload with
every check on and exits non-zero unless all of them pass. See README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["fig7_sweep", "generate_1k", "serve_mixed"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(step)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def run(args):
    """Runs the benchmark binary, relaying its output; returns
    (exit code, last stdout line)."""
    command = [BINARY, "--data-dir", HERE, "--out-dir", BUILD] + args
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: {' '.join(args)} timed out", file=sys.stderr)
        return 1, ""
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def smoke():
    """One traced op per workload; also checks that the printed metrics
    are exactly the per-layer metrics BENCHMARK.json declares."""
    declared = None
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            declared = [m["name"] for m in json.load(f)["per_layer"]]
    failed = []
    for workload in WORKLOADS:
        code, last = run(["--workload", workload, "--smoke"])
        try:
            result = json.loads(last)
            ok = code == 0 and result["correct"]
            if declared is not None and list(result["metrics"]) != declared:
                print(f"run.py: {workload} metrics differ from BENCHMARK.json",
                      file=sys.stderr)
                ok = False
        except (ValueError, KeyError):
            ok = False
        if not ok:
            failed.append(workload)
    print("smoke: " + ("FAILED " + " ".join(failed) if failed else "ok"),
          file=sys.stderr)
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()
    if not opts.smoke and (opts.workload is None or opts.seed is None):
        parser.error("--workload and --seed are required (or --smoke)")
    if not build():
        return 1
    if opts.smoke:
        return smoke()
    code, _ = run(["--workload", opts.workload, "--seed", str(opts.seed),
                   "--seconds", str(opts.seconds), "--trace", opts.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
