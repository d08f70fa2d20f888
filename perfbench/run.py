#!/usr/bin/env python3
"""Certified-CEC benchmark: builds the harness from this checkout and runs it.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

A run builds perfbench/ (with ../src) into .bench_build/perfbench, runs one
workload of perfbench/certbench.cpp, and relays its output. The last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it records the environment (nproc, compiler,
build type, seed), sample counts and failed_share. The exit code is 0 only
when every job of the run was correct.

--self-test checks the harness itself: every workload, traced and untraced,
must print exactly the metrics BENCHMARK.json names, with their units, and a
run with a deliberately mislabelled job must fail its gate.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "certbench"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; False when either step fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    compile_ = ["cmake", "--build", str(BUILD), "-j", jobs]
    with open(ROOT / ".bench_build" / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode:
            # A cache left by a checkout at another path cannot be reused.
            shutil.rmtree(BUILD, ignore_errors=True)
            BUILD.mkdir(parents=True, exist_ok=True)
            if subprocess.run(configure, stdout=sys.stderr,
                              cwd=ROOT).returncode:
                return False
        return subprocess.run(compile_, stdout=sys.stderr,
                              cwd=ROOT).returncode == 0


def run_harness(args):
    """Runs the harness; returns (exit code, stdout lines, parsed result)."""
    try:
        proc = subprocess.run([str(BINARY), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, lines, result


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, _, result = run_harness(
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)])
            if result is None:
                problems.append(f"{label}: no result line (exit {code})")
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            want = expected[trace]
            if got != want:
                wrong_units = sorted(k for k in got.keys() & want.keys()
                                     if got[k] != want[k])
                problems.append(f"{label}: missing {sorted(want.keys() - got)}"
                                f", extra {sorted(got.keys() - want)}"
                                f", wrong units {wrong_units}")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: failed its gate (exit {code})")
            log(f"self-test {label}: {result['attempted']} jobs checked")
    # A mutant declared equivalent must drive failed_share above 0.
    code, _, result = run_harness(
        ["--workload", "suite_certify", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--mislabel", "1"])
    if (result is None or code == 0 or result["correct"]
            or not result["failed"] > 0):
        problems.append("mislabelled job did not fail the gate")
    else:
        log(f"self-test mislabel: failed_share = "
            f"{result['failed'] / result['attempted']:.4f} > 0, exit {code}")
    for problem in problems:
        log(f"SELF-TEST FAILURE: {problem}")
    print(json.dumps({"self_test": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        log("build failed")
        return 2
    if args.self_test:
        return self_test()

    code, lines, result = run_harness(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    if result is None:
        log(f"harness printed no result (exit {code})")
        return code or 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
