#include "net/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "sim/barrier.h"

namespace icpda::net {

ShardEngine::ShardEngine(std::vector<sim::Scheduler*> scheds,
                         sim::SimTime lookahead, runner::ThreadPool& pool)
    : scheds_(std::move(scheds)), lookahead_(lookahead), pool_(pool) {
  if (scheds_.empty()) {
    throw std::invalid_argument("ShardEngine: need at least one shard");
  }
  if (!(lookahead_ > sim::SimTime::zero())) {
    throw std::invalid_argument("ShardEngine: lookahead must be positive");
  }
  if (pool_.size() < scheds_.size()) {
    throw std::invalid_argument(
        "ShardEngine: pool smaller than shard count would deadlock");
  }
  // The gate merges shards by EventKey, which is engine-independent
  // only if every shard draws counters from one table — and one that
  // never grows, since the shards draw from it in parallel.
  const sim::CreatorCounters& counters = scheds_.front()->counters();
  if (!counters.fixed()) {
    throw std::invalid_argument(
        "ShardEngine: shard schedulers need a fixed-size counter table");
  }
  for (const sim::Scheduler* s : scheds_) {
    if (&s->counters() != &counters) {
      throw std::invalid_argument(
          "ShardEngine: shard schedulers must share one counter table");
    }
  }
}

void ShardEngine::run_gate(sim::SimTime bound) {
  // K-way merge by repeated peek: always run the globally-least pending
  // event below the bound, by the same EventKey order each shard's heap
  // uses. An executed event may insert new events, but never before
  // itself — re-peeking every iteration keeps the order canonical
  // through arbitrary insert patterns.
  for (;;) {
    sim::Scheduler* best = nullptr;
    for (sim::Scheduler* s : scheds_) {
      if (!s->has_next() || !(s->next_time() < bound)) continue;
      if (best == nullptr || s->next_key() < best->next_key()) best = s;
    }
    if (best == nullptr) return;
    best->run_one();
    ++stats_.gate_events;
  }
}

sim::SimTime ShardEngine::run(sim::SimTime horizon, bool serialize_all) {
  const std::size_t shards = scheds_.size();
  // Events at exactly the horizon still fire (run_until semantics):
  // bound is the smallest representable time after it.
  const sim::SimTime bound{
      horizon.is_finite()
          ? std::nextafter(horizon.seconds(),
                           std::numeric_limits<double>::infinity())
          : std::numeric_limits<double>::infinity()};

  stats_ = Stats{};
  struct Plan {
    bool done = false;
    sim::SimTime drain_bound = sim::SimTime::zero();
  };
  Plan plan;
  sim::ReductionBarrier barrier(shards);
  std::vector<std::uint64_t> drained(shards, 0);
  std::vector<std::uint64_t> violations(shards, 0);
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  // Runs serially under the barrier (the other workers are parked):
  // play every pending border INSTANT through the gate, then plan the
  // next parallel drain segment. Unlike the PR-9 window machinery —
  // which, once a window contained any border event, serialized the
  // window's whole tail — the gate here executes only one clock
  // instant at a time (every event AT the earliest border time, in
  // canonical cross-shard order), and control returns to the parallel
  // drains the moment a border-free prefix reappears. Interior events
  // between two border instants therefore drain concurrently, which
  // is where the parallel fraction comes from (DESIGN.md §5k).
  //
  // Gate code is arbitrary protocol code; an exception here must not
  // strand the other workers in the barrier, so it is trapped exactly
  // like a drain-side failure.
  auto replan = [&] {
    if (failed.load(std::memory_order_relaxed)) {
      plan.done = true;
      return;
    }
    try {
      for (;;) {
        sim::SimTime next = sim::SimTime::infinity();
        for (sim::Scheduler* s : scheds_) {
          if (s->has_next()) next = std::min(next, s->next_time());
        }
        if (!(next < bound)) {
          plan.done = true;
          return;
        }
        if (serialize_all) {
          ++stats_.gate_rounds;
          run_gate(bound);
          continue;  // drains everything; next pass observes done
        }
        sim::SimTime gate_at = sim::SimTime::infinity();
        sim::EventKey bk;
        for (sim::Scheduler* s : scheds_) {
          if (s->next_border(bk)) gate_at = std::min(gate_at, bk.at);
        }
        if (gate_at <= next) {
          // No drainable border-free prefix: serialize this one
          // instant (border events plus any same-instant interiors —
          // same-time cross-shard interaction is real, so the whole
          // instant replays in canonical order), then re-plan; runs of
          // consecutive border instants gate back-to-back without
          // releasing the barrier.
          ++stats_.gate_rounds;
          run_gate(sim::SimTime{std::nextafter(
              gate_at.seconds(), std::numeric_limits<double>::infinity())});
          continue;
        }
        ++stats_.rounds;
        plan.drain_bound = std::min({gate_at, next + lookahead_, bound});
        return;
      }
    } catch (...) {
      const std::scoped_lock lock(error_mutex);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
      plan.done = true;
    }
  };

  auto worker = [&](std::size_t s) {
    for (;;) {
      barrier.arrive_and_wait(replan);
      if (plan.done) return;
      try {
        drained[s] += scheds_[s]->run_before(plan.drain_bound);
        // Lookahead-safety check (invariant 3): nothing this drain ran
        // may have left a border event pending below the drain bound —
        // the gate would execute it late, out of canonical order.
        sim::EventKey bk;
        if (scheds_[s]->next_border(bk) && bk.at < plan.drain_bound) {
          ++violations[s];
        }
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    futures.push_back(pool_.submit([&worker, s] { worker(s); }));
  }
  for (auto& f : futures) f.get();
  if (error) std::rethrow_exception(error);

  for (std::size_t s = 0; s < shards; ++s) {
    stats_.parallel_events += drained[s];
    stats_.lookahead_violations += violations[s];
  }

  // Leave every shard clock at a common end time: the horizon when
  // finite, else the latest event executed anywhere.
  sim::SimTime end = horizon.is_finite() ? horizon : sim::SimTime::zero();
  for (sim::Scheduler* s : scheds_) end = std::max(end, s->now());
  for (sim::Scheduler* s : scheds_) s->advance_to(end);
  return end;
}

}  // namespace icpda::net
