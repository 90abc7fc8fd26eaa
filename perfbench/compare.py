#!/usr/bin/env python3
"""Summarize or compare sets of benchmark runs of one workload.

    python3 perfbench/compare.py RUNS_LOG              # spread of one set
    python3 perfbench/compare.py BASE_LOG CHANGE_LOG   # change against base

A log holds the stdout of several `perfbench/run.py` runs of one
workload and mode; only the JSON report lines are read. Every report's
host fingerprint (nproc, CPU model, build type, compiler, run length,
scale) must be the same, or the comparison is refused with exit code 2:
numbers from different hosts or builds do not compare. Commit and seed
may differ.

For every end-to-end metric of BENCHMARK.json this prints the median and
the quartiles of each set. One set: the spread (quartile distance over
median) against the metric's bound. Two sets: the change's median against
the base's, flagged when it is worse by more than the bound (exit 1).
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu", "build_type", "compiler", "seconds", "tiny")


def reports(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.startswith('{"workload"')]


def host(report):
    return {k: report["fingerprint"][k] for k in HOST_KEYS}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, med, q3


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [reports(path) for path in argv[1:]]
    if not all(sets):
        print("compare.py: a log holds no report lines", file=sys.stderr)
        return 2
    everything = [r for s in sets for r in s]
    hosts = {json.dumps(host(r), sort_keys=True) for r in everything}
    if len(hosts) > 1:
        print("compare.py: refusing to compare runs from different hosts or builds:",
              file=sys.stderr)
        for h in sorted(hosts):
            print(f"  {h}", file=sys.stderr)
        return 2
    kinds = {(r["workload"], r["trace"]) for r in everything}
    if len(kinds) > 1:
        print(f"compare.py: logs mix workloads or modes: {sorted(kinds)}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]
    (workload, _), = kinds
    print(f"# {workload}: {' vs '.join(str(len(s)) for s in sets)} runs on {hosts.pop()}")
    worse = False
    for spec in declared:
        name, bound = spec["name"], spec["bound"]
        per_set = [[r["metrics"][name]["value"] for r in s] for s in sets]
        q1, med, q3 = stats(per_set[0])
        if len(sets) == 1:
            spread = (q3 - q1) / med if med else float("inf")
            print(f"{name:24s} median {med:.6g} {spec['unit']}  quartiles [{q1:.6g}, {q3:.6g}]  "
                  f"spread {spread:.3f} (bound {bound}, target < {bound / 3:.3f})")
            continue
        c1, cmed, c3 = stats(per_set[1])
        change = (cmed - med) / med if med else 0.0
        regress = change > bound if spec["better"] == "lower" else -change > bound
        worse |= regress
        print(f"{name:24s} base {med:.6g} [{q1:.6g}, {q3:.6g}]  change {cmed:.6g} "
              f"[{c1:.6g}, {c3:.6g}] {spec['unit']}  {change:+.1%} "
              f"{'WORSE than bound ' + str(bound) if regress else 'within bound'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
