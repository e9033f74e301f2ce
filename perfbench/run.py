#!/usr/bin/env python3
"""Build and run the whole-solve benchmark.

Run from the root of the repository:

  python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0
      one run; its last line of output is the JSON result
  python3 perfbench/run.py
      every workload, timed and traced, printed as a table
  python3 perfbench/run.py --test
      the benchmark's own tests (short runs and negative checks)

The program is built with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Build output goes to
stderr, so the result stays the last line of stdout.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["table1", "storm", "tsp-sweep"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(targets):
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", "4", "--target"] + targets]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return out


def command(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--span-file",
                os.path.join(build_dir(), "spans-%s-seed%d.json" % (workload, seed))]
    return cmd


def run_one(binary, workload, seed, seconds, trace):
    """Runs one pass and returns (exit code, parsed result or None)."""
    proc = subprocess.run(command(binary, workload, seed, seconds, trace),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def summary(seed, seconds):
    binary = os.path.join(build(["perfbench_run"]), "perfbench_run")
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(binary, workload, seed, seconds, trace)
            status = status or code
            if result is None:
                print("%s trace=%d: no result (exit %d)" % (workload, trace, code))
                continue
            print("%s (%s): correct=%s attempted=%d failed=%d" % (
                workload, "traced" if trace else "timed", result["correct"],
                result["attempted"], result["failed"]))
            for name, metric in result["metrics"].items():
                print("  %-28s %16.6g %s" % (name, metric["value"], metric["unit"]))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        out = build(["perfbench_run", "perfbench_test"])
        return subprocess.run(["ctest", "--test-dir", out, "--output-on-failure"]).returncode
    if args.workload is None:
        return summary(args.seed, args.seconds)

    binary = os.path.join(build(["perfbench_run"]), "perfbench_run")
    # The program prints the result line last; its exit code is ours.
    return subprocess.run(command(binary, args.workload, args.seed, args.seconds,
                                  args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
