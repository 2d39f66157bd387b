#!/usr/bin/env python3
"""Build and run the Kodan repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library sources of the enclosing tree)
into .bench_build/; later calls rebuild incrementally. Build output goes
to stderr. The benchmark binary's stdout is passed through, so the last
line is its JSON result. With `--workload all` every workload runs in
turn and a summary of each end-to-end metric, by name with its unit,
follows; the exit code is non-zero if any output failed to verify.
Extra arguments (e.g. --tiny) are passed to the binary.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "kodan_perfbench")
WORKLOADS = ["runtime_fp64", "runtime_int8", "fleet_contacts", "mission_world"]
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no Kodan source tree next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "kodan_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return os.path.isfile(BINARY)


def run_one(workload, seed, seconds, trace, extra):
    """Run one workload; returns (exit code, parsed JSON or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode or 1, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds,
                          args.trace, extra)
        return code

    failed = False
    summary = []
    for workload in WORKLOADS:
        code, result = run_one(workload, args.seed, args.seconds,
                               args.trace, extra)
        if code != 0 or result is None or not result["correct"]:
            failed = True
        if result is not None:
            for name, metric in result["metrics"].items():
                summary.append(f"{workload:16s} {name:32s} "
                               f"{metric['value']:.6g} {metric['unit']}")
    print("\n".join(["summary:"] + summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
