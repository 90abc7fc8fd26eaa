#!/usr/bin/env sh
# Campaign-rows gate: run every campaign bench (bench/CMakeLists.txt,
# ICPDA_CAMPAIGN_BENCHES) at ICPDA_TRIALS=1 on this checkout and on a
# reference revision, and `cmp` each bench's rows; then run
# golden_trace_test on this checkout (both pinned golden digests).
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
for bench in $benches; do
  for side in ref new; do
    if [ "$side" = ref ]; then bin="$work/ref/build/bench/$bench"; else bin="build/bench/$bench"; fi
    if ! ICPDA_TRIALS=1 "$bin" --no-progress >"$work/rows/$side/$bench.jsonl"; then
      echo "FAIL  $bench: exited non-zero on the $side side"
      status=1
      continue 2
    fi
  done
  if cmp -s "$work/rows/ref/$bench.jsonl" "$work/rows/new/$bench.jsonl"; then
    echo "same  $bench ($(grep -vc '^#' "$work/rows/new/$bench.jsonl") rows)"
  else
    echo "DIFF  $bench"
    diff "$work/rows/ref/$bench.jsonl" "$work/rows/new/$bench.jsonl" | head -n 10 || true
    status=1
  fi
done

echo "== golden_trace_test =="
if ! build/tests/golden_trace_test --gtest_brief=1; then status=1; fi

if [ "$status" -eq 0 ]; then
  echo "rows_vs_parent: every campaign bench byte-identical to $rev; golden digests hold"
else
  echo "rows_vs_parent: differences against $rev (see above)" >&2
fi
exit "$status"
