#!/usr/bin/env python3
"""Build the benchmark binary from source, run a workload, print its result.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

The binary (perfbench/main.cc) is built with CMake into .bench_build/ at
the repository root. Its stdout is passed through (one JSON report line
per workload, with the host fingerprint, every metric's unit and sample
count), followed by a readable summary and, as the last line, the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding exactly the metrics BENCHMARK.json declares for the mode:
`end_to_end` with --trace 0, `per_layer` with --trace 1. Exits 1 when an
output check failed, and non-zero without a result line when the build
or the binary fails (3: a broken invariant, see README.md).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# The seed runs default to, and one kept back from all tuning: a later
# change confirms its claim on HELD_OUT_SEED as well.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261016


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree; never stamp an enclosing repository's commit
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summary(report):
    fp = report["fingerprint"]
    lines = [f"# {report['workload']} (trace {report['trace']}): seed {fp['seed']}, "
             f"{fp['nproc']} x {fp['cpu']}, {fp['build_type']}, {fp['compiler']}, "
             f"commit {fp['commit']}",
             f"#   checked {report['attempted']}, failed {report['failed']}"]
    lines += [f"#   failure: {f}" for f in report["failures"]]
    for name, m in report["metrics"].items():
        lines.append(f"#   {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    return "\n".join(lines)


def result(reports, declared):
    """The result line: the declared metrics of every report."""
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for spec in declared:
            m = report["metrics"].get(spec["name"])
            if m is None or m["unit"] != spec["unit"]:
                raise SystemExit(f"run.py: {report['workload']} did not report "
                                 f"{spec['name']} in {spec['unit']}")
            metrics[prefix + spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
            "failed": failed, "metrics": metrics}


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test scale")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--commit", git_commit()]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"run.py: perfbench exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    reports = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    for report in reports:
        print(summary(report))
    out = result(reports, bench["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
