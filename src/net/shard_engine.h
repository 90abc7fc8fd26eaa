// Conservative parallel discrete-event engine over per-shard schedulers.
//
// The Network partitions the field into spatial shards (sim/shard.h),
// gives each shard its own sim::Scheduler, and runs them here on a
// fixed worker pool. Correctness rests on three invariants the
// substrate maintains (DESIGN.md §5j):
//
//  1. Insert locality — every event an event schedules goes into its
//     OWN shard's scheduler (applications, MACs and fault injection
//     schedule per owner; a transmission's delivery event lives on the
//     sender's scheduler).
//  2. State locality — an event NOT tagged border only reads/writes
//     state of nodes in its own shard (an interior node's neighbours
//     are all local, by construction of the shard plan).
//  3. Lookahead — a drained (non-border) event only ever spawns border
//     events at least `lookahead` after itself: MAC attempts are >= one
//     contention slot out, deliveries >= min-frame airtime +
//     propagation out, and the one sub-lookahead spawn (the SIFS ACK)
//     is forced into the gate by border-tagging the delivery that
//     solicits it (Channel::transmit).
//
// Canonical order (sim/scheduler.h): every shard heap and the gate
// order events by one EventKey (fire time, schedule time, creator,
// creator-local counter). No field depends on the shard that holds the
// event — the shard schedulers share one fixed-size
// sim::CreatorCounters table, which the constructor checks — so the
// gate is a plain k-way merge by that key and a sharded run dispatches
// in the single-shard order by construction, with no cross-shard
// tie-break of its own (DESIGN.md §5j, §5k).
//
// Round structure: one ReductionBarrier per drain round. The last
// worker to arrive (serially, under the barrier) alternates two moves
// until a parallel drain is possible: while the globally-earliest
// pending event is (or ties with) a border event, it gates that ONE
// clock instant — every event AT the earliest border time, merged
// across shards in ascending canonical EventKey order, exactly the
// order the single-shard engine would use — and re-plans; once a
// border-free prefix exists, it plans the drain segment
// [K, min(first border time, K + lookahead, horizon)) and releases
// the workers to drain their shards in parallel, each in local
// canonical order. Border instants serialize; everything between them
// drains concurrently (PR-9 serialized a gated window's entire tail
// instead — see DESIGN.md §5k for the delta and the proof sketch).
// Because same-segment cross-shard events are causally independent
// (invariants 2+3), the parallel drain commutes with the canonical
// order — the observable execution is bit-identical to the
// single-shard engine.
//
// serialize_all runs every event through the gate (used when arbitrary
// shared state is attached: adversary co-ordination via
// Network::set_serialize_all, or channel taps). Still the same
// canonical order — just zero parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/thread_pool.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace icpda::net {

class ShardEngine {
 public:
  /// Window/gate occupancy of the last run (how much parallelism the
  /// lookahead actually exposed).
  struct Stats {
    std::uint64_t rounds = 0;          ///< parallel drain segments run
    std::uint64_t gate_rounds = 0;     ///< border instants serialized
    std::uint64_t gate_events = 0;     ///< events executed inside gates
    std::uint64_t parallel_events = 0; ///< events executed in drains
    /// Drained events that left a border event pending below their own
    /// window bound — a violation of invariant 3. Always zero unless
    /// the substrate's lookahead accounting is broken; counted (and
    /// asserted on by tests) rather than assumed.
    std::uint64_t lookahead_violations = 0;
  };

  /// `scheds` are borrowed (the Network owns them) and must share one
  /// fixed-size counter table; `pool` must have at least scheds.size()
  /// workers or the barrier deadlocks. Violations throw
  /// std::invalid_argument.
  ShardEngine(std::vector<sim::Scheduler*> scheds, sim::SimTime lookahead,
              runner::ThreadPool& pool);

  /// Run every shard up to and including `horizon` (or to exhaustion if
  /// infinite), then advance all shard clocks to a common end time,
  /// which is returned. Not reentrant; call from one thread.
  sim::SimTime run(sim::SimTime horizon, bool serialize_all);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] sim::SimTime lookahead() const { return lookahead_; }
  [[nodiscard]] std::size_t shard_count() const { return scheds_.size(); }

 private:
  /// Execute every pending event with fire time < bound, across all
  /// shards, in ascending EventKey order (k-way merge by repeated
  /// peek). Runs single-threaded under the barrier.
  void run_gate(sim::SimTime bound);

  std::vector<sim::Scheduler*> scheds_;
  sim::SimTime lookahead_;
  runner::ThreadPool& pool_;
  Stats stats_;
};

}  // namespace icpda::net
