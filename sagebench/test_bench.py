#!/usr/bin/env python3
"""The benchmark's own test.

    python3 sagebench/test_bench.py [--seconds S]

Run from the repository root. It builds the benchmark, then checks:

1. the harness self-test (percentile, quiet-round selection,
   failure-share and span self-time arithmetic on synthetic inputs with
   known answers) passes;
2. every workload passes its correctness check with zero failed
   operations on two different seeds (untraced runs);
3. for a fixed seed, the exact per-layer counts of a traced run --
   net.*_per_set, runtime.plan_bytes, codegen.glue_bytes and
   atot.generations -- repeat exactly from run to run.

Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's build and run helpers)

WORKLOADS = ["fft2d-stream", "cornerturn-table1", "design-loop", "serve-open"]
EXACT_COUNTS = [
    "net.fabric_bytes_per_set",
    "net.fabric_messages_per_set",
    "net.bytes_copied_per_set",
    "net.bytes_moved_per_set",
    "runtime.plan_bytes",
    "codegen.glue_bytes",
    "atot.generations",
]


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def layers_of(lines):
    for line in lines:
        if line.startswith("layers "):
            return json.loads(line[len("layers "):])["metrics"]
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    build_dir = run.build()
    selftest = subprocess.run([os.path.join(build_dir, "sagebench_selftest")],
                              check=False)
    if selftest.returncode != 0:
        fail("harness self-test")
    binary = os.path.join(build_dir, "sagebench")

    for workload in WORKLOADS:
        for seed in (1, 2):
            code, _, result = run.run_driver(binary, [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"])
            if code != 0 or result is None or not result["correct"] \
                    or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} seed {seed}: correctness check "
                     f"(exit {code}, result {result})")
            print(f"ok {workload} seed {seed}: "
                  f"{result['attempted']} operations, 0 failed")

        counts = []
        for _ in range(2):
            code, lines, result = run.run_driver(binary, [
                "--workload", workload, "--seed", "7",
                "--seconds", str(args.seconds), "--trace", "1"])
            layers = layers_of(lines)
            if code != 0 or layers is None:
                fail(f"{workload}: traced run (exit {code})")
            counts.append({name: layers[name]["value"]
                           for name in EXACT_COUNTS if name in layers})
        if not counts[0]:
            fail(f"{workload}: no exact counts reported")
        if counts[0] != counts[1]:
            fail(f"{workload}: counts differ between runs of one seed: "
                 f"{counts[0]} vs {counts[1]}")
        print(f"ok {workload}: {len(counts[0])} counts repeat exactly")
    print("benchmark test passed")


if __name__ == "__main__":
    main()
