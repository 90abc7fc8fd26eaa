#!/usr/bin/env python3
"""Perf-regression smoke over the bench_micro hot-kernel baselines.

Runs bench_micro (google-benchmark JSON output), extracts the DES
substrate + protocol hot-path kernels, and compares them against the
checked-in baselines (BENCH_PR8.json for the single-engine kernels,
BENCH_PR10.json for the sharded-engine kernels under the
micro-instant gate + tile plan; a kernel may live in only one
baseline; earlier baselines are recorded in the EXPERIMENTS.md
T3/T5/S1 tables), printing a per-kernel
wall-clock delta. The step is advisory by default (exit 0 regardless
of deltas): CI runners have noisy clocks, so timing regressions are
flagged for a human, not gated. Pass --max-regress PCT to turn it
into a gate locally.

Every baseline carries the fingerprint of the host that recorded it:
google-benchmark's CPU count and MHz, the CPU model and the build type
of the measured binary. A baseline whose fingerprint is missing or
differs from the current run's is refused (exit code 2, as
perfbench/compare.py does): kernel timings from different hosts or
builds do not compare.

Improvements beyond 10x are also flagged as suspicious: a kernel that
suddenly runs in a tenth of its baseline usually means the compiler
eliminated the measured work (a DoNotOptimize went missing) or the
kernel's workload silently shrank, not a real win.

--baseline may be repeated; all files are merged for the comparison.
Regenerate one baseline on a quiet machine after an intentional perf
change (--update requires exactly one --baseline and writes only the
kernels the filter matched):

    python3 tools/perf_smoke.py --bench build/bench/bench_micro \
        --baseline BENCH_PR8.json --big-n --update \
        --filter 'BM_Scheduler|BM_ChannelBroadcastFanout|BM_IcpdaEpoch/|BM_TopologyBuild|BM_ServicePipeline|BM_MakeShares|BM_SolveClusterSum|BM_SealOpen|BM_Prf64|BM_LinkKeyBatch'
    python3 tools/perf_smoke.py --bench build/bench/bench_micro \
        --baseline BENCH_PR10.json --update --filter BM_IcpdaEpochSharded

--big-n sets ICPDA_BIG_N=1 so the expensive T3 scaling points
(BM_IcpdaEpoch/3000..5000, single-iteration) are registered too.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

# The kernels that form the perf contract (see bench/bench_micro.cc:
# names and Arg lists are kept stable for this comparison).
DEFAULT_FILTER = (
    "BM_SchedulerChurn|BM_SchedulerPushPop|BM_SchedulerCancel|"
    "BM_ChannelBroadcastFanout|BM_IcpdaEpoch|BM_IcpdaEpochSharded|"
    "BM_TopologyBuild|"
    "BM_ServicePipeline|BM_MakeShares|BM_SolveClusterSum|BM_SealOpen|"
    "BM_Prf64|BM_LinkKeyBatch"
)

DEFAULT_BASELINES = ["BENCH_PR8.json", "BENCH_PR10.json"]

# cur < base / SUSPICIOUS_SPEEDUP is treated as "too good to be true".
SUSPICIOUS_SPEEDUP = 10.0


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_type(bench):
    """CMAKE_BUILD_TYPE of the build tree holding the bench binary."""
    path = os.path.dirname(os.path.abspath(bench))
    while True:
        cache = os.path.join(path, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("CMAKE_BUILD_TYPE:"):
                        return line.split("=", 1)[1].strip() or "unknown"
            return "unknown"
        parent = os.path.dirname(path)
        if parent == path:
            return "unknown"
        path = parent


def host_fingerprint(bench, context):
    return {
        "num_cpus": context.get("num_cpus"),
        "mhz_per_cpu": context.get("mhz_per_cpu"),
        "cpu": cpu_model(),
        "build_type": build_type(bench),
    }


def run_bench(bench, bench_filter, big_n):
    env = dict(os.environ)
    if big_n:
        env["ICPDA_BIG_N"] = "1"
    out = subprocess.run(
        [bench, f"--benchmark_filter={bench_filter}",
         "--benchmark_format=json"],
        check=True, capture_output=True, text=True, env=env)
    doc = json.loads(out.stdout)
    results = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "real_time": b["real_time"],
            "time_unit": b["time_unit"],
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        if "events_per_epoch" in b:
            entry["events_per_epoch"] = b["events_per_epoch"]
        if "parallel_fraction" in b:
            entry["parallel_fraction"] = b["parallel_fraction"]
        results[b["name"]] = entry
    return results, host_fingerprint(bench, doc["context"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="build/bench/bench_micro",
                    help="path to the bench_micro binary")
    ap.add_argument("--baseline", action="append", default=None,
                    help="checked-in baseline JSON (repeatable; default "
                         f"{' + '.join(DEFAULT_BASELINES)})")
    ap.add_argument("--filter", default=DEFAULT_FILTER,
                    help="google-benchmark regex of kernels to run")
    ap.add_argument("--big-n", action="store_true",
                    help="register the expensive T3 points (ICPDA_BIG_N=1)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this run")
    ap.add_argument("--max-regress", type=float, default=None, metavar="PCT",
                    help="fail if any kernel slows by more than PCT percent")
    args = ap.parse_args()
    baselines = args.baseline or DEFAULT_BASELINES

    current, host = run_bench(args.bench, args.filter, args.big_n)
    if not current:
        sys.exit("perf_smoke: benchmark filter matched nothing")

    if args.update:
        if len(baselines) != 1:
            sys.exit("perf_smoke: --update takes exactly one --baseline")
        doc = {
            "schema": "icpda-perf-baseline-v1",
            "note": ("Hot-kernel baseline; regenerate with "
                     "tools/perf_smoke.py --update on a quiet machine "
                     "and review the diff"),
            "host": host,
            "benchmarks": current,
        }
        with open(baselines[0], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"perf_smoke: wrote {len(current)} kernels to {baselines[0]}")
        return

    baseline = {}
    source = {}  # kernel name -> baseline file it was loaded from
    for path in baselines:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("host") != host:
            print(f"perf_smoke: refusing to compare against {path}: it was "
                  "recorded on a different host or build", file=sys.stderr)
            print(f"  {path}: {json.dumps(doc.get('host'), sort_keys=True)}",
                  file=sys.stderr)
            print(f"  this run: {json.dumps(host, sort_keys=True)}", file=sys.stderr)
            sys.exit(2)
        for name, entry in doc["benchmarks"].items():
            if name in baseline:
                sys.exit(f"perf_smoke: kernel {name} appears in both "
                         f"{source[name]} and {path}")
            baseline[name] = entry
            source[name] = path

    worst = 0.0
    suspicious = []
    width = max(len(n) for n in baseline)
    print(f"{'kernel':<{width}}  {'baseline':>12}  {'now':>12}  delta")
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"{name:<{width}}  {'—':>12}  {'—':>12}  "
                  f"(in {source[name]} but not run)")
            continue
        if cur["time_unit"] != base["time_unit"]:
            sys.exit(f"perf_smoke: {name}: unit changed "
                     f"{base['time_unit']} (from {source[name]}) -> "
                     f"{cur['time_unit']}")
        delta = 100.0 * (cur["real_time"] - base["real_time"]) / base["real_time"]
        worst = max(worst, delta)
        unit = base["time_unit"]
        flag = ""
        if cur["real_time"] < base["real_time"] / SUSPICIOUS_SPEEDUP:
            suspicious.append(name)
            flag = "  SUSPICIOUS"
        print(f"{name:<{width}}  {base['real_time']:>10.1f}{unit}  "
              f"{cur['real_time']:>10.1f}{unit}  {delta:+.1f}%{flag}")
    for name in suspicious:
        print(f"perf_smoke: WARNING: {name} improved more than "
              f"{SUSPICIOUS_SPEEDUP:.0f}x over its baseline — verify the "
              f"kernel still measures real work (DoNotOptimize intact, "
              f"workload unchanged) before celebrating or re-baselining")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  (new kernel — not in baseline)")

    if args.max_regress is not None and worst > args.max_regress:
        sys.exit(f"perf_smoke: worst regression {worst:+.1f}% exceeds "
                 f"--max-regress {args.max_regress}%")


if __name__ == "__main__":
    main()
