#!/usr/bin/env python3
"""Summarizes the benchmark's result history.

    python3 perfbench/report.py [results.jsonl]

Reads the records perfbench/run.py appends (default
$CARGO_TARGET_DIR/results.jsonl, else .bench_build/results.jsonl) and prints,
for each group of runs, every metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, the figure each
metric's bound in BENCHMARK.json is judged against).

Runs are grouped first by environment stamp (nproc, CPU model, compiler,
build type), then by commit, workload and trace mode. Groups with different
environment stamps are printed side by side in separate sections and are
never compared with each other.
"""
import collections
import json
import os
import statistics
import sys

ENVIRONMENT_KEYS = ("nproc", "cpu", "compiler", "build_type")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(values):
    """Median, quartiles and (q3 - q1) / median of one metric's values."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    default = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "results.jsonl")
    records = load(sys.argv[1] if len(sys.argv) > 1 else default)
    groups = collections.defaultdict(lambda: collections.defaultdict(list))
    for record in records:
        stamp = record["stamp"]
        environment = tuple((k, stamp[k]) for k in ENVIRONMENT_KEYS)
        key = (stamp["commit"], record["workload"], record["trace"])
        groups[environment][key].append(record)

    for environment, runs in groups.items():
        print("== environment: " + ", ".join("%s=%s" % kv for kv in environment))
        for (commit, workload, trace), group in sorted(runs.items()):
            seeds = sorted(r["seed"] for r in group)
            failed = sum(r["result"]["failed"] for r in group)
            attempted = sum(r["result"]["attempted"] for r in group)
            incorrect = sum(not r["result"]["correct"] for r in group)
            print("-- %s  %s  trace=%d  runs=%d seeds=%s  failed=%d/%d  "
                  "incorrect runs=%d" % (commit, workload, trace, len(group),
                                         seeds, failed, attempted, incorrect))
            names = []
            for r in group:
                for name in r["result"]["metrics"]:
                    if name not in names:
                        names.append(name)
            for name in names:
                values = [r["result"]["metrics"][name]["value"] for r in group
                          if name in r["result"]["metrics"]]
                unit = group[0]["result"]["metrics"].get(name, {}).get("unit", "")
                median, q1, q3, spread = summarize(values)
                print("   %-28s median %14.6g  q1 %14.6g  q3 %14.6g  "
                      "spread %6.3f  %s" % (name, median, q1, q3, spread, unit))
        print()


if __name__ == "__main__":
    main()
