#!/usr/bin/env python3
"""Statistics of an alternating A/B run (tools/perf_vs_parent.sh).

    python3 tools/ab_stats.py KIND RUNS_DIR

RUNS_DIR holds one output file per run, named PAIR-POS-SIDE: the pair's
number, the run's position in the pair (1 or 2) and its tree (`ref` or
`new`). KIND says what a run's output holds: `perfbench` (perfbench/run.py:
BENCHMARK.json's end-to-end metrics), `micro` (bench_micro JSON: real_time
per kernel) or `footprint` (footprint_probe JSON: epoch_s).

Per metric this prints both medians and interquartile ranges, the change
of the median, the pairs the change won (a tie counts for neither side),
the run-position effect (the median over pairs of second run / first run,
whichever tree ran second) and the verdict of the A/B rule. The change is
a gain when it wins at least 9 pairs in 10 and its median beats the
reference's by more than the reference's interquartile range; a loss is
the mirror image; anything else is no change.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3), computed as perfbench/compare.py does."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else tuple(values * 3)


def summarize(pairs, better):
    """pairs: [{"first": "ref" or "new", "ref": value, "new": value}, ...]."""
    sign = 1 if better == "higher" else -1
    ref_q = quartiles([p["ref"] for p in pairs])
    new_q = quartiles([p["new"] for p in pairs])
    won = sum(sign * (p["new"] - p["ref"]) > 0 for p in pairs)
    lost = sum(sign * (p["new"] - p["ref"]) < 0 for p in pairs)
    ratios = [p["ref" if p["first"] == "new" else "new"] / p[p["first"]]
              for p in pairs if p[p["first"]]]
    gap = sign * (new_q[1] - ref_q[1])
    need = WIN_SHARE * len(pairs)
    if won >= need and gap > ref_q[2] - ref_q[0]:
        verdict = "GAIN"
    elif lost >= need and -gap > ref_q[2] - ref_q[0]:
        verdict = "LOSS"
    else:
        verdict = "no change"
    return {"ref": ref_q, "new": new_q, "pairs": len(pairs), "won": won, "lost": lost,
            "delta": (new_q[1] - ref_q[1]) / ref_q[1] if ref_q[1] else 0.0,
            "position": statistics.median(ratios) - 1 if ratios else 0.0,
            "verdict": verdict}


def metrics_of(kind, text):
    """{metric: (value, unit, better)} of one run's output."""
    if kind == "perfbench":
        report = next(json.loads(line) for line in text.splitlines()
                      if line.startswith('{"workload"'))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["end_to_end"]
        return {s["name"]: (report["metrics"][s["name"]]["value"], s["unit"], s["better"])
                for s in declared}
    doc = json.loads(text)
    if kind == "micro":
        return {b["name"]: (b["real_time"], b["time_unit"], "lower")
                for b in doc["benchmarks"] if b.get("run_type") != "aggregate"}
    if kind == "footprint":
        return {"epoch_s": (doc["epoch_s"], "s", "lower")}
    raise SystemExit(f"ab_stats.py: unknown kind {kind}")


def read_runs(kind, runs_dir):
    """{metric: (unit, better, pairs)} from the run files of RUNS_DIR."""
    by_pair = {}
    for name in sorted(os.listdir(runs_dir)):
        pair, pos, side = name.split("-")
        with open(os.path.join(runs_dir, name)) as f:
            by_pair.setdefault(pair, {})[(pos, side)] = metrics_of(kind, f.read())
    out = {}
    for pair, runs in by_pair.items():
        first = next(side for pos, side in runs if pos == "1")
        sides = {side: m for (_, side), m in runs.items()}
        for metric, (value, unit, better) in sides["ref"].items():
            entry = out.setdefault(metric, (unit, better, []))
            entry[2].append({"first": first, "ref": value, "new": sides["new"][metric][0]})
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    runs = read_runs(argv[1], argv[2])
    if not runs:
        print("ab_stats.py: the runs report no metric", file=sys.stderr)
        return 1
    for metric, (unit, better, pairs) in runs.items():
        s = summarize(pairs, better)
        (r1, rm, r3), (n1, nm, n3) = s["ref"], s["new"]
        print(f"{metric} [{unit}, {better} is better]\n"
              f"  ref {rm:.6g} (IQR {r3 - r1:.3g})  new {nm:.6g} (IQR {n3 - n1:.3g})  "
              f"{s['delta']:+.1%}  won {s['won']}/{s['pairs']} (lost {s['lost']})  "
              f"position {s['position']:+.1%}  {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
