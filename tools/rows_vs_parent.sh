#!/usr/bin/env sh
# Campaign-rows gate: run every campaign bench (bench/CMakeLists.txt,
# ICPDA_CAMPAIGN_BENCHES) at ICPDA_TRIALS=1 on this checkout and on a
# reference revision, and `cmp` each bench's rows; do the same for the
# traced rows of `bench_comm_overhead --trace` (the per-phase byte
# columns the tracer feeds); then run golden_trace_test on this
# checkout (both pinned golden digests).
#
# Usage: tools/rows_vs_parent.sh [rev]     (rev defaults to HEAD~1)
#
# This checkout is built in build/ (the default preset), so uncommitted
# edits are included; to check the working tree against its own last
# commit, pass HEAD. The reference revision is exported and built by
# tools/parent_tree.sh. Exits non-zero on any byte difference, a bench
# that fails on either side, or a failing golden test.
set -eu

rev="${1:-HEAD~1}"
repo_root="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
cd "$repo_root"
. tools/parent_tree.sh
parent_tree "$rev" rows_vs_parent all
mkdir -p "$work/rows/ref" "$work/rows/new"

benches="$(sed -n '/^set(ICPDA_CAMPAIGN_BENCHES/,/)/p' bench/CMakeLists.txt |
  sed -e 's/#.*//' -e 's/set(ICPDA_CAMPAIGN_BENCHES//' -e 's/)//' | tr -s ' \n' ' ')"

status=0
# compare <label> <bench> [arg...]: run `<bench> --no-progress [arg...]`
# at ICPDA_TRIALS=1 on both sides and `cmp` the rows.
compare() {
  label="$1"
  bench="$2"
  shift 2
  for side in ref new; do
    if [ "$side" = ref ]; then bin="$work/ref/build/bench/$bench"; else bin="build/bench/$bench"; fi
    if ! ICPDA_TRIALS=1 "$bin" --no-progress "$@" >"$work/rows/$side/$label.jsonl"; then
      echo "FAIL  $label: exited non-zero on the $side side"
      status=1
      return 0
    fi
  done
  if cmp -s "$work/rows/ref/$label.jsonl" "$work/rows/new/$label.jsonl"; then
    echo "same  $label ($(grep -vc '^#' "$work/rows/new/$label.jsonl") rows)"
  else
    echo "DIFF  $label"
    diff "$work/rows/ref/$label.jsonl" "$work/rows/new/$label.jsonl" | head -n 10 || true
    status=1
  fi
}
for bench in $benches; do
  compare "$bench" "$bench"
done
compare "bench_comm_overhead --trace" bench_comm_overhead --trace

echo "== golden_trace_test =="
if ! build/tests/golden_trace_test --gtest_brief=1; then status=1; fi

if [ "$status" -eq 0 ]; then
  echo "rows_vs_parent: every campaign bench and the traced rows byte-identical to $rev; golden digests hold"
else
  echo "rows_vs_parent: differences against $rev (see above)" >&2
fi
exit "$status"
