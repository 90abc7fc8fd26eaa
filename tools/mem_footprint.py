#!/usr/bin/env python3
"""Advisory memory-footprint gate for the N=1M scaling work.

Runs (or is fed the output of) bench_footprint — one iCPDA epoch at
constant paper density with per-subsystem heap accounting, as one JSONL
row — and compares bytes-per-node against the checked-in baseline
(tools/footprint_baseline.json). A regression beyond the tolerance
prints a loud warning and exits 1; use --update to re-baseline after
an intentional change.

Usage:
    tools/mem_footprint.py --probe build/bench/bench_footprint \
        [--nodes 20000] [--shards 8] [--tolerance 1.25] [--update]
    tools/mem_footprint.py --json bench_output.jsonl   # pre-captured
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

BASELINE = pathlib.Path(__file__).resolve().parent / "footprint_baseline.json"

SUBSYSTEMS = [
    "topology_bytes",
    "scheduler_bytes",
    "channel_bytes",
    "mac_bytes",
    "metrics_bytes",
    "plan_bytes",
    "object_bytes",
]


def row_of(text):
    """The one row of a bench_footprint run (skipping its # header)."""
    return next(json.loads(line) for line in text.splitlines() if line.startswith("{"))


def run_probe(probe, nodes, shards):
    out = subprocess.run([probe, f"--shards={shards}", "--no-progress"], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "ICPDA_N_AXIS": str(nodes)}).stdout
    return row_of(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", help="path to the bench_footprint binary")
    ap.add_argument("--json", help="pre-captured bench_footprint output instead of running")
    ap.add_argument("--nodes", type=int, default=20000)
    ap.add_argument("--shards", type=int, default=8)
    ap.add_argument("--tolerance", type=float, default=1.25,
                    help="fail above baseline bytes/node * tolerance")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this run")
    ap.add_argument("--baseline", default=str(BASELINE))
    args = ap.parse_args()

    if args.json:
        report = row_of(pathlib.Path(args.json).read_text())
    elif args.probe:
        report = run_probe(args.probe, args.nodes, args.shards)
    else:
        ap.error("need --probe or --json")

    bpn = report["bytes_per_node"]
    print(f"footprint: n={report['nodes']} shards={report['shards']} "
          f"total={report['total_bytes'] / 1e6:.1f} MB "
          f"({bpn:.0f} B/node), rss={report['rss_kb'] / 1024:.0f} MB")
    for key in SUBSYSTEMS:
        print(f"  {key:<16} {report[key] / 1e6:10.2f} MB "
              f"({report[key] / report['nodes']:8.1f} B/node)")

    baseline_path = pathlib.Path(args.baseline)
    if args.update or not baseline_path.exists():
        baseline_path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"baseline written: {baseline_path}")
        return 0

    base = json.loads(baseline_path.read_text())
    if base.get("nodes") != report["nodes"] or base.get("shards") != report["shards"]:
        print(f"note: baseline is n={base.get('nodes')} shards={base.get('shards')}; "
              "comparing bytes/node anyway")
    limit = base["bytes_per_node"] * args.tolerance
    verdict = "OK" if bpn <= limit else "REGRESSION"
    print(f"bytes/node: {bpn:.0f} vs baseline {base['bytes_per_node']:.0f} "
          f"(limit {limit:.0f}) -> {verdict}")
    if bpn > limit:
        print("memory footprint regressed; rerun with --update if intentional",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
