// Continuous-query dispatcher: open-loop arrivals, admission control,
// pipelined epochs, per-query completion records.
//
// The Dispatcher owns one service run over one Network. It draws a
// Poisson-by-seed arrival schedule of query descriptors, admits them
// against a max-in-flight cap with a deadline-based drop policy, opens
// each admitted query's epoch at the base station (per-query QueryId,
// routed by the QueryMux on every node) and writes one
// CompletionRecord per query. Epochs overlap freely: the per-node
// protocol state is per-query (the mux's instance map), per-query
// randomness is derived from (seed, node, query) alone, and the epoch
// clock is fixed by configuration — so a run is a deterministic
// function of (network config, service config), byte-stable across
// campaign thread counts.
//
// Admission semantics (DESIGN.md §5h): an arriving query launches
// immediately if a slot is free, otherwise waits FIFO (bounded queue;
// overflow = rejected). At every launch opportunity the head of the
// queue is checked against its deadline — the epoch length is known
// exactly in advance, so "cannot finish in time" is decidable at
// launch and such queries are dropped instead of launched late.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "crypto/keys.h"
#include "net/network.h"
#include "service/mux.h"
#include "service/query.h"

namespace icpda::service {

struct ServiceConfig {
  /// Protocol configuration of every query; query_id is stamped per
  /// query. Its allowed_mask restricts every query to a node subset,
  /// and trace_query_spans tags phase spans with the query id.
  core::IcpdaConfig protocol;
  /// Open-loop Poisson arrival rate, queries per second.
  double offered_load_qps = 0.2;
  /// Total arrivals to generate.
  std::uint32_t query_count = 20;
  /// Admission: concurrent epochs allowed.
  std::uint32_t max_in_flight = 2;
  /// Waiting-room bound; arrivals beyond it are rejected outright.
  std::size_t max_queue = 32;
  /// Completion deadline per query, seconds from arrival. A query that
  /// cannot finish its (fixed-length) epoch before the deadline is
  /// dropped at admission rather than launched late.
  double deadline_s = 30.0;
  /// Arrival-process seed and per-(node, query) protocol RNG salt.
  std::uint64_t seed = 1;
  /// Aggregate kinds assigned round-robin by arrival index.
  std::vector<AggregateKind> kind_cycle{AggregateKind::kSum,
                                        AggregateKind::kAvg,
                                        AggregateKind::kVar};
};

class Dispatcher {
 public:
  /// `keys` and `readings` must outlive the run.
  Dispatcher(net::Network& net, ServiceConfig config,
             const crypto::KeyScheme* keys, proto::ReadingProvider readings);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Attach the muxes, schedule the arrival process and run the
  /// network until every query is resolved (bounded horizon). Call
  /// once. Returns simulated end time.
  sim::SimTime run();

  /// One record per generated query, in id order: query q's is
  /// records()[q.id - 1].
  [[nodiscard]] const std::vector<CompletionRecord>& records() const {
    return records_;
  }

  [[nodiscard]] std::uint32_t completed() const { return count(QueryStatus::kCompleted); }
  [[nodiscard]] std::uint32_t dropped() const { return count(QueryStatus::kDroppedDeadline); }
  [[nodiscard]] std::uint32_t rejected() const { return count(QueryStatus::kRejectedQueue); }

  /// Shared mux state (introspection for tests).
  [[nodiscard]] ServiceState& state() { return state_; }

 private:
  void arrive(const QueryDescriptor& q);
  void launch(const QueryDescriptor& q);
  void drop(const QueryDescriptor& q, QueryStatus status);
  void complete(std::uint32_t query_id);
  /// Launch from the waiting queue while slots are free, dropping
  /// entries whose deadline can no longer be met.
  void pump();
  [[nodiscard]] bool misses_deadline(const QueryDescriptor& q) const;
  [[nodiscard]] std::uint32_t count(QueryStatus s) const;

  net::Network& net_;
  ServiceConfig config_;
  ServiceState state_;
  std::deque<QueryDescriptor> waiting_;
  std::vector<CompletionRecord> records_;
  std::uint32_t in_flight_ = 0;
  bool ran_ = false;
  double nominal_s_ = 0.0;        ///< exact epoch length (nominal_epoch_s)
  proto::Aggregate truth_;        ///< exact triple over allowed sensors
  std::size_t allowed_sensors_ = 0;
};

/// Exact nearest-rank percentile of completed-query latency (p in
/// [0, 100]); 0 when nothing completed. Benches feed this per cell so
/// the reported p50/p99 are exact, not streaming approximations.
[[nodiscard]] double latency_percentile(const std::vector<CompletionRecord>& records,
                                        double p);

}  // namespace icpda::service
