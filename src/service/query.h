// Continuous-query service: query descriptors and completion records.
//
// The paper evaluates iCPDA one query epoch at a time; the service
// layer (DESIGN.md §5h) treats aggregation as a *network service*
// instead — an open-loop stream of SUM/AVG/VAR queries multiplexed
// over one deployment, each query running the full three-phase
// protocol under its own QueryId. This header holds the value types
// shared by the dispatcher, the per-node mux and the benches: what a
// query asks for, and what became of it.
#pragma once

#include <cstdint>

#include "core/icpda.h"
#include "proto/aggregate.h"
#include "sim/time.h"

namespace icpda::service {

/// Aggregate a query asks for. All three are finishers over the same
/// (count, sum, sum_sq) moment triple the protocol already carries, so
/// the wire format and the share algebra are kind-agnostic: only the
/// finisher applied to the accepted triple differs.
enum class AggregateKind : std::uint8_t {
  kSum = 0,
  kAvg = 1,
  kVar = 2,
};

[[nodiscard]] const char* aggregate_kind_name(AggregateKind k);

/// Apply a query's finisher to an accepted moment triple.
[[nodiscard]] double finish_aggregate(AggregateKind kind,
                                      const proto::Aggregate& a);

/// One query as submitted to the service (before admission).
struct QueryDescriptor {
  /// Service-assigned id, >= 1 (0 is reserved: peek_query_id returns 0
  /// for unreadable payloads). Stamped into every frame of the query's
  /// epoch via IcpdaConfig::query_id.
  std::uint32_t id = 0;
  AggregateKind kind = AggregateKind::kSum;
  /// When the query entered the system (open-loop arrival process).
  sim::SimTime arrival;
};

/// Terminal state of a query.
enum class QueryStatus : std::uint8_t {
  /// Ran a full epoch; `outcome` holds the base station's view.
  kCompleted = 0,
  /// Dropped by admission: even launched immediately it could not have
  /// closed its epoch before the deadline (queueing delay ate it).
  kDroppedDeadline = 1,
  /// Rejected on arrival: the waiting queue was already full.
  kRejectedQueue = 2,
};

[[nodiscard]] const char* query_status_name(QueryStatus s);

/// Per-query completion record, the service's unit of accounting.
struct CompletionRecord {
  std::uint32_t id = 0;
  AggregateKind kind = AggregateKind::kSum;
  QueryStatus status = QueryStatus::kCompleted;
  sim::SimTime arrival;
  sim::SimTime launched;   ///< zero unless the query launched
  sim::SimTime closed;     ///< epoch close time (completed only)
  /// closed - arrival: queueing delay + the epoch itself.
  double latency_s = 0.0;
  /// Last report to reach the BS, relative to launch (settle time):
  /// how much of the fixed epoch budget the traffic actually used.
  double settle_s = 0.0;
  /// The query's finished answer (finish_aggregate over the result).
  double value = 0.0;
  /// |value - ground truth| where ground truth applies the same
  /// finisher to the exact triple over the allowed sensors.
  double abs_error = 0.0;
  /// result.count / allowed sensors (1.0 = every reading arrived).
  double coverage = 0.0;
  /// Integrity verdict (no significant tamper alarms).
  bool accepted = false;
  /// Full base-station outcome (completed queries only).
  core::IcpdaOutcome outcome;
};

}  // namespace icpda::service
