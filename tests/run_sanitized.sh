#!/usr/bin/env sh
# Run the test binaries under sanitizers, in three passes:
#
#   1. asan  — AddressSanitizer + UBSan together over every unit test
#      (all of ctest but the `slow` and `smoke` labels): object-lifetime
#      bugs on the crash/purge/recovery paths the happy path never
#      touches, index bugs in the scheduler's slot-id buckets and tie
#      heap, and out-of-bounds reads in the field-list wire codec under
#      the hostile-input corpus (MessagesFuzzTest, which carries the
#      `slow` label and so runs in a second, named step). The `smoke`
#      bench runs stay out: they take ~3 min under ASan on 4 cores, the
#      unit tests ~25 s.
#   2. ubsan — UBSan alone over the same set: no shadow-memory
#      slowdown, so the allocation-heavy randomized suites (property/
#      fuzz, label `slow`) join the run and hostile-input UB gets real
#      coverage; the `slow` bench_fault shard grid and the N=20k
#      footprint gate (one bench_footprint epoch on 8 shards) come
#      along (the whole `slow` part takes ~160 s on 4 cores).
#   3. tsan  — ThreadSanitizer over the sharded-engine suites: the
#      conservative-PDES worker drains (net/shard_engine.cc) run
#      concurrent Scheduler::run_before on a shared Channel, and the
#      determinism tests alone cannot see a torn read that happens to
#      produce the right bytes. The campaign pool's suites run too:
#      its cells run concurrently in descending slot order while the
#      caller reduces and emits rows in point order.
#
# Usage: tests/run_sanitized.sh [ctest -R regex]
#
# A regex narrows the asan and ubsan passes to the matching tests (the
# asan fuzz-corpus step is then skipped; the ubsan `slow` part and the
# tsan pass are unchanged). ICPDA_SAN_LANES
# selects a subset of passes (default "asan ubsan tsan") so CI can
# split the lanes into separate jobs.
set -eu

repo_root="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
cd "$repo_root"
jobs="$(nproc 2>/dev/null || echo 4)"
lanes="${ICPDA_SAN_LANES:-asan ubsan tsan}"

if [ -n "${1:-}" ]; then
  narrowed=1
  set -- -R "$1"
else
  narrowed=0
  set -- -LE 'slow|smoke'
fi

case " $lanes " in *" asan "*)
  echo "== asan (address+undefined) =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -j "$jobs" "$@"
  if [ "$narrowed" = 0 ]; then
    # The hostile-input corpus is `slow` for the native lanes, but its
    # cases take < 0.3 s each under ASan, the one pass that sees the
    # codec read past a buffer.
    ctest --test-dir build-asan --output-on-failure -L slow -R MessagesFuzzTest
  fi
esac

case " $lanes " in *" ubsan "*)
  echo "== ubsan (undefined only, including slow suites) =="
  cmake --preset ubsan
  cmake --build --preset ubsan -j "$jobs"
  ctest --test-dir build-ubsan --output-on-failure -j "$jobs" "$@"
  ctest --test-dir build-ubsan --output-on-failure -L slow
esac

case " $lanes " in *" tsan "*)
  echo "== tsan (sharded-engine concurrency) =="
  tsan_filter="ShardDeterminismTest|ShardLookaheadTest|SchedulerTest|FloodHoldTest.ShardedFloods|CampaignTest|ThreadPoolTest|BenchMainTest"
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  # The lookahead sweep's default 5000 cases is sized for native
  # builds; TSan's ~10x slowdown gets full value from a tenth of the
  # budget.
  ICPDA_LOOKAHEAD_CASES=500 ctest --test-dir build-tsan --output-on-failure -R "$tsan_filter"
  # Full-campaign smoke at shards=8 x threads=8: the real protocol
  # running through the engine's parallel drains, under TSan.
  ctest --test-dir build-tsan --output-on-failure -R "smoke_bench_fault_shard_invariance"
esac
