#!/usr/bin/env python3
"""Builds and runs the DBG4ETH cold-score benchmark.

    python3 perfbench/run.py --workload cold_solo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds the library from ../src and the
benchmark binary in perfbench/src with CMake into $CARGO_TARGET_DIR (default
.bench_build), runs one workload, stamps the result with the hardware,
compiler, build type and commit, appends it to <build dir>/results.jsonl
(see perfbench/report.py) and prints the result as the last stdout line.
The exit code is non-zero when the build fails, the run fails or any served
score differs from the in-process oracle.
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
WORKLOADS = ("cold_solo", "warm_http", "flood", "train")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found beside perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(nproc())])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("perfbench: build step failed: %s" % error)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(step))
            return False
    return os.path.isfile(BINARY)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    """Compiler id and version as CMake detected them."""
    files = os.path.join(CMAKE_DIR, "CMakeFiles")
    for entry in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path) as f:
                text = f.read()
            cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            return "%s %s" % (cid.group(1) if cid else "?",
                              ver.group(1) if ver else "?")
    return "unknown"


def commit():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds (the result still identifies the code)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def stamp():
    return {"nproc": nproc(), "cpu": cpu_model(), "compiler": compiler(),
            "build_type": BUILD_TYPE, "commit": commit()}


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines), or None
    when it timed out (it is killed and waited for)."""
    try:
        done = subprocess.run([BINARY] + args + ["--out-dir", BUILD_DIR],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def self_test():
    """A clean run must pass; a run with one served score corrupted by one
    ulp must report correct=false and exit non-zero."""
    ok = True
    for corrupt, expect_correct in ((-1, True), (3, False)):
        outcome = run_binary(["--workload", "cold_solo", "--seed", "1",
                              "--seconds", "1", "--trace", "0",
                              "--corrupt-op", str(corrupt)])
        result = parse_result(outcome[1]) if outcome else None
        passed = (result is not None and result["correct"] == expect_correct
                  and (outcome[0] == 0) == expect_correct)
        log("self-test corrupt-op=%d: %s" % (corrupt, "ok" if passed else "FAILED"))
        ok = ok and passed
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 2
    if args.self_test:
        return self_test()

    outcome = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", repr(args.seconds),
                          "--trace", str(args.trace)])
    if outcome is None:
        return 3
    code, lines = outcome
    result = parse_result(lines)
    if result is None:
        log("perfbench: the benchmark binary printed no result (exit %d)" % code)
        for line in lines[-20:]:
            log("  " + line)
        return code or 4
    for line in lines[:-1]:
        print(line)
    record = {"stamp": stamp(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "result": result}
    print("stamp: " + json.dumps(record["stamp"], sort_keys=True))
    with open(os.path.join(BUILD_DIR, "results.jsonl"), "a") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
