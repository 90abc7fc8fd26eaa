#!/usr/bin/env sh
# Performance A/B against a reference revision: run one target in ten
# alternating pairs on this checkout and on the reference, then print
# per metric both medians and interquartile ranges, the change, the
# pairs the change won and the run-position effect (tools/ab_stats.py,
# which also states the rule a gain must meet).
#
# Usage: tools/perf_vs_parent.sh <target> [rev]   (rev defaults to HEAD~1)
#
# <target> is one of
#   <workload>                  a perfbench workload (BENCHMARK.json):
#                               each side runs its own tree's
#                               perfbench/run.py --workload <workload>,
#                               and this checkout's perfbench/compare.py
#                               reads both sets for the bound flags
#   micro:<filter>              bench_micro real_time per kernel that
#                               the google-benchmark filter matches
#   footprint:<nodes>x<shards>  bench_footprint's epoch_s; the
#                               reference must have bench_footprint
#                               too, so both revisions must be at or
#                               after the commit that added it
#
# The trees are exported and built as by tools/rows_vs_parent.sh
# (tools/parent_tree.sh), uncommitted edits included; with HEAD and a
# clean tree, both sides run the same code (an A/A run). The reference
# runs first in odd pairs, this checkout in even ones. Exits non-zero
# when a run fails or perfbench/compare.py flags a bound.
set -eu

PAIRS=10
target="${1:?usage: tools/perf_vs_parent.sh <target> [rev]}"
rev="${2:-HEAD~1}"
repo_root="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
cd "$repo_root"

case "$target" in
  micro:*) kind=micro build=bench_micro ;;
  footprint:*)
    kind=footprint build=bench_footprint
    size="${target#footprint:}" nodes="${size%%x*}" shards="${size#*x}"
    case "$size/$nodes$shards" in
      [0-9]*x[0-9]*/*[!0-9]*) nodes= ;;
      [0-9]*x[0-9]*/*) ;;
      *) nodes= ;;
    esac
    if [ -z "$nodes" ]; then
      echo "perf_vs_parent: expected footprint:<nodes>x<shards>, got $target" >&2
      exit 2
    fi ;;
  *) kind=perfbench build= ;;
esac

. tools/parent_tree.sh
# shellcheck disable=SC2086  # $build is empty or one target
parent_tree "$rev" perf_vs_parent $build
mkdir -p "$work/runs"

run() {  # run <tree> <output file>
  case "$kind" in
    perfbench) python3 "$1/perfbench/run.py" --workload "$target" ;;
    micro) "$1/build/bench/bench_micro" --benchmark_filter="${target#micro:}" --benchmark_format=json ;;
    footprint) ICPDA_N_AXIS="$nodes" "$1/build/bench/bench_footprint" --shards="$shards" --no-progress ;;
  esac >"$2" 2>"$2.log"
}

echo "== $PAIRS alternating pairs of $target: $rev (ref) vs this checkout (new) =="
i=1
while [ "$i" -le "$PAIRS" ]; do
  if [ $((i % 2)) -eq 1 ]; then order="ref new"; else order="new ref"; fi
  pos=1
  for side in $order; do
    tree="$repo_root"
    [ "$side" = new ] || tree="$work/ref"
    out="$work/runs/$(printf %02d "$i")-$pos-$side"
    if ! run "$tree" "$out"; then
      echo "perf_vs_parent: pair $i, $side side failed:" >&2
      tail -n 20 "$out.log" >&2
      exit 1
    fi
    rm -f "$out.log"
    pos=2
  done
  echo "pair $i/$PAIRS done"
  i=$((i + 1))
done

status=0
if [ "$kind" = perfbench ]; then
  cat "$work"/runs/*-ref >"$work/ref.log"
  cat "$work"/runs/*-new >"$work/new.log"
  python3 perfbench/compare.py "$work/ref.log" "$work/new.log" || status=$?
fi
python3 tools/ab_stats.py "$kind" "$work/runs"
exit "$status"
