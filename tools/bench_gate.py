#!/usr/bin/env python3
"""Paired cold-score regression gate: a base commit vs the working tree.

    python3 tools/bench_gate.py [BASE]     # BASE defaults to HEAD

Exports BASE with `git archive` into a temporary directory and runs that
copy's perfbench/run.py (built into its own CARGO_TARGET_DIR) against the
working tree's (built into the default .bench_build). It runs five pairs of
`--workload cold_solo --trace 0 --seconds 5`: both sides of a pair use the
same seed, and the side that runs first alternates from pair to pair, since a
later run reads faster than an earlier one on the same machine.

The gate fails when a run exits non-zero, reports correct=false or failed>0,
when the two sides' environment stamps (nproc, cpu, compiler, build type)
differ, or when the median over pairs of change/base p50_us exceeds
MAX_MEDIAN_RATIO. On a 4-vCPU VM a single pair of unchanged code read
0.85-1.28, so only the median of alternated pairs is judged; that median read
0.90-1.06 over ten gate runs, while a copy with ldg_forward 25% slower reads
above 1.10.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (2001, 2002, 2003, 2004, 2005)
MAX_MEDIAN_RATIO = 1.10
STAMP_KEYS = ("nproc", "cpu", "compiler", "build_type")
RUN_ARGS = ["--workload", "cold_solo", "--trace", "0", "--seconds", "5"]


class GateFailure(Exception):
    pass


def run_side(name, tree, target_dir, seed, log_path):
    """One perfbench run; returns (stamp, p50_us). Build output and the run's
    stderr go to log_path."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    if target_dir:
        env["CARGO_TARGET_DIR"] = target_dir
    with open(log_path, "a") as log:
        done = subprocess.run(
            [sys.executable, os.path.join(tree, "perfbench", "run.py"),
             "--seed", str(seed)] + RUN_ARGS,
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
    lines = done.stdout.splitlines()
    stamp = next((json.loads(line[len("stamp: "):]) for line in lines
                  if line.startswith("stamp: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if stamp is None or result is None:
        with open(log_path) as log:
            tail = "".join(log.readlines()[-20:])
        raise GateFailure("%s seed %d: perfbench exited %d without a result\n%s"
                          % (name, seed, done.returncode, tail))
    if done.returncode != 0 or not result["correct"] or result["failed"] > 0:
        raise GateFailure("%s seed %d: exit %d, correct=%s, failed=%d" %
                          (name, seed, done.returncode, result["correct"],
                           result["failed"]))
    return stamp, result["metrics"]["p50_us"]["value"]


def main():
    base = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    scratch = tempfile.mkdtemp(prefix="dbg4eth_bench_gate.")
    log_path = os.path.join(scratch, "perfbench.log")
    try:
        base_tree = os.path.join(scratch, "base")
        os.mkdir(base_tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", base],
                                 stdout=subprocess.PIPE)
        if archive.returncode != 0:
            raise GateFailure("git archive %s failed" % base)
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive.stdout,
                       check=True)
        sides = {"base": (base_tree, os.path.join(scratch, "build")),
                 "change": (ROOT, None)}
        print("  base %s vs working tree, cold_solo, %d alternated pairs"
              % (base, len(SEEDS)), flush=True)
        ratios = []
        stamps = {}
        for i, seed in enumerate(SEEDS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            p50 = {}
            for name in order:
                tree, target_dir = sides[name]
                stamps[name], p50[name] = run_side(name, tree, target_dir,
                                                   seed, log_path)
            for key in STAMP_KEYS:
                if stamps["base"][key] != stamps["change"][key]:
                    raise GateFailure("stamp %s differs: base %r, change %r" %
                                      (key, stamps["base"][key],
                                       stamps["change"][key]))
            ratios.append(p50["change"] / p50["base"])
            print("  pair %d seed %d (%s first): base p50 %.0f us, change "
                  "p50 %.0f us, ratio %.3f" % (i + 1, seed, order[0],
                                               p50["base"], p50["change"],
                                               ratios[-1]), flush=True)
        median = statistics.median(ratios)
        if median > MAX_MEDIAN_RATIO:
            raise GateFailure("median change/base p50_us %.3f exceeds %.2f"
                              % (median, MAX_MEDIAN_RATIO))
        print("  bench gate passed: median change/base p50_us %.3f <= %.2f"
              % (median, MAX_MEDIAN_RATIO))
        return 0
    except GateFailure as failure:
        print("  bench gate FAILED: %s" % failure)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
