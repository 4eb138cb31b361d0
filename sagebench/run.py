#!/usr/bin/env python3
"""Build and run the openSAGE repository benchmark.

    python3 sagebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the openSAGE
libraries and the benchmark driver (sagebench/CMakeLists.txt) into
$CARGO_TARGET_DIR/sagebench, or .bench_build/sagebench when that is
unset; later runs only re-check the build.

With --trace 0 the driver measures the workload untraced. The cold
set-up is also timed in SETUP_PROBES extra fresh processes, and setup_s
is the median over all of them. With --trace 1 the driver reports the
per-layer metrics of a traced run plus the tracing overhead.

The last line of standard output is the JSON result. The exit code is
non-zero when the build fails, the sources are missing, or any
operation failed its correctness check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"sagebench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"openSAGE sources not found under {ROOT}/src")
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "sagebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            sys.exit(2)
    return build_dir


def run_driver(binary, args):
    """Runs the driver; returns (exit code, output lines, parsed result)."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = os.path.join(build(), "sagebench")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_samples = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            code, _, probe = run_driver(binary, common + ["--seconds", "1",
                                                          "--trace", "0",
                                                          "--setup-only"])
            if code != 0 or probe is None:
                log(f"set-up probe of {args.workload} failed")
                return 1
            setup_samples.append(probe["metrics"]["setup_s"]["value"])

    code, lines, result = run_driver(
        binary, common + ["--seconds", repr(args.seconds),
                          "--trace", str(args.trace)])
    for line in lines[:-1]:
        print(line)
    if result is None:
        log(f"workload {args.workload} produced no result")
        return code or 1
    if args.trace == 0:
        setup = result["metrics"]["setup_s"]
        setup_samples.append(setup["value"])
        setup["value"] = statistics.median(setup_samples)
        print("setup_s samples (s): " +
              " ".join(f"{v:.6f}" for v in setup_samples))
    print(json.dumps(result))
    if code != 0 or not result.get("correct", False):
        log(f"workload {args.workload} failed its correctness check")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
