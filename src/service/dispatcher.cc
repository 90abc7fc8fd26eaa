#include "service/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "proto/messages.h"

namespace icpda::service {

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

bool Dispatcher::misses_deadline(const QueryDescriptor& q) const {
  const double finish_at = net_.scheduler().now().seconds() + nominal_s_;
  return finish_at > q.arrival.seconds() + config_.deadline_s;
}

std::uint32_t Dispatcher::count(QueryStatus s) const {
  std::uint32_t n = 0;
  for (const auto& r : records_) {
    if (r.status == s) ++n;
  }
  return n;
}

void Dispatcher::arrive(const QueryDescriptor& q) {
  net_.metrics().add("service.arrival");
  if (in_flight_ < config_.max_in_flight) {
    if (misses_deadline(q)) {
      drop(q, QueryStatus::kDroppedDeadline);
    } else {
      launch(q);
    }
    return;
  }
  if (waiting_.size() < config_.max_queue) {
    waiting_.push_back(q);
    net_.metrics().add("service.queued");
    return;
  }
  drop(q, QueryStatus::kRejectedQueue);
}

void Dispatcher::launch(const QueryDescriptor& q) {
  auto [it, inserted] = state_.queries.try_emplace(q.id);
  ActiveQuery& query = it->second;
  query.config = config_.protocol;
  query.config.query_id = q.id;
  query.active = true;
  ++in_flight_;

  const sim::SimTime now = net_.scheduler().now();
  records_[q.id - 1].launched = now;  // the rest is filled in by complete()

  net_.metrics().add("service.launched");
  net_.metrics().observe("service.queue_wait_s",
                         (now - q.arrival).seconds());
  net_.tracer().counter(sim::kTraceGlobalNode, sim::TraceCounter::kQueryLaunch,
                        q.id, now);

  auto& bs = net_.node(net_.base_station());
  static_cast<QueryMux*>(bs.app())->launch(bs, query);
  net_.scheduler().after(sim::seconds(nominal_s_ + core::kEpochDrainGraceS),
                         [this, qid = q.id] { complete(qid); });
}

void Dispatcher::drop(const QueryDescriptor& q, QueryStatus status) {
  records_[q.id - 1].status = status;
  net_.metrics().add(status == QueryStatus::kRejectedQueue
                         ? "service.rejected_queue"
                         : "service.dropped_deadline");
  net_.tracer().counter(sim::kTraceGlobalNode, sim::TraceCounter::kQueryDrop,
                        q.id, net_.scheduler().now());
}

void Dispatcher::complete(std::uint32_t query_id) {
  ActiveQuery* query = state_.find(query_id);
  if (query == nullptr || !query->active) return;
  query->active = false;
  --in_flight_;

  CompletionRecord& rec = records_[query_id - 1];
  const core::IcpdaOutcome& out = query->outcome;
  rec.status = QueryStatus::kCompleted;
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
  rec.outcome = out;
  net_.metrics().add("service.completed");
  net_.tracer().counter(sim::kTraceGlobalNode, sim::TraceCounter::kQueryComplete,
                        query_id, net_.scheduler().now());
  pump();
}

void Dispatcher::pump() {
  while (in_flight_ < config_.max_in_flight && !waiting_.empty()) {
    const QueryDescriptor q = waiting_.front();
    waiting_.pop_front();
    if (misses_deadline(q)) {
      drop(q, QueryStatus::kDroppedDeadline);
      continue;
    }
    launch(q);
  }
}

sim::SimTime Dispatcher::run() {
  if (ran_) return net_.scheduler().now();
  ran_ = true;

  net_.attach_apps(
      [this](net::Node&) { return std::make_unique<QueryMux>(&state_); });

  // Poisson-by-seed arrival schedule, generated up front: the whole
  // offered-traffic process is a pure function of (seed, load, count).
  // Ids are dense, so query q's record is records_[q.id - 1], made here
  // and resolved in place by launch/drop/complete.
  sim::Rng arrivals(sim::seed_mix(config_.seed, 0xA221BA15, config_.query_count));
  records_.reserve(config_.query_count);
  double t = 0.0;
  for (std::uint32_t i = 0; i < config_.query_count; ++i) {
    t += arrivals.exponential(std::max(config_.offered_load_qps, 1e-9));
    QueryDescriptor q;
    q.id = i + 1;  // 0 is reserved (peek_query_id's "unreadable")
    q.kind = config_.kind_cycle.empty()
                 ? AggregateKind::kSum
                 : config_.kind_cycle[i % config_.kind_cycle.size()];
    q.arrival = sim::seconds(t);
    CompletionRecord& rec = records_.emplace_back();
    rec.id = q.id;
    rec.kind = q.kind;
    rec.arrival = q.arrival;
    net_.scheduler().at(q.arrival, [this, q] { arrive(q); });
  }

  // Worst-case horizon: even fully serialized (one slot), every query
  // either finishes or is dropped by then. A hard bound keeps any
  // congestion pathology from running the simulation forever.
  double bound = 0.0;
  for (const auto& r : records_) {
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
