#include "service/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "proto/messages.h"

namespace icpda::service {

namespace {

/// Aggregate kinds, assigned round-robin by arrival index.
constexpr AggregateKind kKindCycle[] = {AggregateKind::kSum, AggregateKind::kAvg,
                                        AggregateKind::kVar};

}  // namespace

Dispatcher::Dispatcher(net::Network& net, ServiceConfig config,
                       const crypto::KeyScheme* keys,
                       proto::ReadingProvider readings)
    : net_(net), config_(std::move(config)) {
  if (net_.shard_count() > 1) {
    // The dispatcher drives net.scheduler() directly (arrivals, drain
    // grace, completion callbacks), which is a detached empty heap in a
    // sharded Network — the run would silently hang at t=0.
    throw std::invalid_argument(
        "service::Dispatcher requires an unsharded Network (shards == 1)");
  }
  state_.protocol = config_.protocol;
  state_.readings = std::move(readings);
  state_.keys = keys;
  state_.seed = config_.seed;
  nominal_s_ = core::nominal_epoch_s(config_.protocol);
  // Exact ground truth over the allowed sensors (the BS, node 0, never
  // contributes a reading).
  for (net::NodeId id = 1; id < net_.size(); ++id) {
    if (!proto::mask_allows(config_.protocol.allowed_mask, id)) continue;
    truth_.merge(proto::Aggregate::of(state_.readings(id)));
    ++allowed_sensors_;
  }
}

bool Dispatcher::misses_deadline(const CompletionRecord& rec) const {
  const double finish_at = net_.scheduler().now().seconds() + nominal_s_;
  return finish_at > rec.arrival.seconds() + config_.deadline_s;
}

std::uint32_t Dispatcher::count(QueryStatus s) const {
  std::uint32_t n = 0;
  for (const auto& r : state_.records) {
    if (r.status == s) ++n;
  }
  return n;
}

void Dispatcher::arrive(CompletionRecord& rec) {
  net_.metrics().add("service.arrival");
  if (in_flight_ < config_.max_in_flight) {
    if (misses_deadline(rec)) {
      drop(rec, QueryStatus::kDroppedDeadline);
    } else {
      launch(rec);
    }
    return;
  }
  if (waiting_.size() < config_.max_queue) {
    waiting_.push_back(rec.id);
    net_.metrics().add("service.queued");
    return;
  }
  drop(rec, QueryStatus::kRejectedQueue);
}

void Dispatcher::launch(CompletionRecord& rec) {
  rec.status = QueryStatus::kRunning;  // opens the mux's routing gate
  ++in_flight_;

  const sim::SimTime now = net_.scheduler().now();
  rec.launched = now;  // the rest is filled in by complete()

  net_.metrics().add("service.launched");
  net_.metrics().observe("service.queue_wait_s",
                         (now - rec.arrival).seconds());
  net_.tracer().counter(sim::kTraceGlobalNode, sim::TraceCounter::kQueryLaunch,
                        rec.id, now);

  auto& bs = net_.node(net_.base_station());
  static_cast<QueryMux*>(bs.app())->launch(bs, rec.id);
  net_.scheduler().after(sim::seconds(nominal_s_ + core::kEpochDrainGraceS),
                         [this, id = rec.id] { complete(state_.records[id - 1]); });
}

void Dispatcher::drop(CompletionRecord& rec, QueryStatus status) {
  rec.status = status;
  net_.metrics().add(status == QueryStatus::kRejectedQueue
                         ? "service.rejected_queue"
                         : "service.dropped_deadline");
  net_.tracer().counter(sim::kTraceGlobalNode, sim::TraceCounter::kQueryDrop,
                        rec.id, net_.scheduler().now());
}

void Dispatcher::complete(CompletionRecord& rec) {
  rec.status = QueryStatus::kCompleted;  // closes the routing gate
  --in_flight_;

  // Read in place: every instance of the query wrote into rec.outcome.
  const core::IcpdaOutcome& out = rec.outcome;
  rec.closed = out.closed_at;
  rec.latency_s = (out.closed_at - rec.arrival).seconds();
  rec.settle_s = out.last_report_at > rec.launched
                     ? (out.last_report_at - rec.launched).seconds()
                     : 0.0;
  const proto::Aggregate result = out.result ? *out.result : proto::Aggregate{};
  rec.value = finish_aggregate(rec.kind, result);
  rec.abs_error = std::abs(rec.value - finish_aggregate(rec.kind, truth_));
  rec.coverage = allowed_sensors_ > 0
                     ? result.count / static_cast<double>(allowed_sensors_)
                     : 0.0;
  rec.accepted = out.accepted();
  net_.metrics().add("service.completed");
  net_.tracer().counter(sim::kTraceGlobalNode, sim::TraceCounter::kQueryComplete,
                        rec.id, net_.scheduler().now());
  pump();
}

void Dispatcher::pump() {
  while (in_flight_ < config_.max_in_flight && !waiting_.empty()) {
    CompletionRecord& rec = state_.records[waiting_.front() - 1];
    waiting_.pop_front();
    if (misses_deadline(rec)) {
      drop(rec, QueryStatus::kDroppedDeadline);
      continue;
    }
    launch(rec);
  }
}

sim::SimTime Dispatcher::run() {
  if (ran_) return net_.scheduler().now();
  ran_ = true;

  net_.attach_apps(
      [this](net::Node&) { return std::make_unique<QueryMux>(&state_); });

  // Poisson-by-seed arrival schedule, generated up front: the whole
  // offered-traffic process is a pure function of (seed, load, count).
  // Ids are dense, so query q's record is state_.records[q - 1], made
  // here, never resized after, and resolved in place by
  // launch/drop/complete.
  sim::Rng arrivals(sim::seed_mix(config_.seed, 0xA221BA15, config_.query_count));
  state_.records.reserve(config_.query_count);
  double t = 0.0;
  for (std::uint32_t i = 0; i < config_.query_count; ++i) {
    t += arrivals.exponential(std::max(config_.offered_load_qps, 1e-9));
    CompletionRecord& rec = state_.records.emplace_back();
    rec.id = i + 1;  // 0 is reserved (peek_query_id's "unreadable")
    rec.kind = kKindCycle[i % std::size(kKindCycle)];
    rec.arrival = sim::seconds(t);
    net_.scheduler().at(rec.arrival, [this, id = rec.id] { arrive(state_.records[id - 1]); });
  }

  // Worst-case horizon: even fully serialized (one slot), every query
  // either finishes or is dropped by then. A hard bound keeps any
  // congestion pathology from running the simulation forever.
  double bound = 0.0;
  for (const auto& r : state_.records) {
    bound = std::max(bound, r.arrival.seconds()) + nominal_s_ + core::kEpochDrainGraceS;
  }
  net_.run(sim::seconds(bound + 5.0));
  // Balance the trace (close stray spans) and stamp the run boundary.
  net_.tracer().finalize_epoch(net_.scheduler().now());
  return net_.scheduler().now();
}

double latency_percentile(const std::vector<CompletionRecord>& records, double p) {
  std::vector<double> lat;
  lat.reserve(records.size());
  for (const auto& r : records) {
    if (r.status == QueryStatus::kCompleted) lat.push_back(r.latency_s);
  }
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(lat.size() - 1);
  // Linear interpolation between closest ranks (exact for p50 on odd n).
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, lat.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return lat[lo] + (lat[hi] - lat[lo]) * frac;
}

}  // namespace icpda::service
