#include "service/mux.h"

namespace icpda::service {

namespace {

core::IcpdaConfig with_query_id(core::IcpdaConfig config, std::uint32_t query_id) {
  config.query_id = query_id;
  return config;
}

}  // namespace

const char* aggregate_kind_name(AggregateKind k) {
  switch (k) {
    case AggregateKind::kSum: return "sum";
    case AggregateKind::kAvg: return "avg";
    case AggregateKind::kVar: return "var";
  }
  return "invalid";
}

const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::kCompleted: return "completed";
    case QueryStatus::kDroppedDeadline: return "dropped_deadline";
    case QueryStatus::kRejectedQueue: return "rejected_queue";
    case QueryStatus::kPending: return "pending";
    case QueryStatus::kRunning: return "running";
  }
  return "invalid";
}

double finish_aggregate(AggregateKind kind, const proto::Aggregate& a) {
  switch (kind) {
    case AggregateKind::kSum: return a.sum;
    case AggregateKind::kAvg: return a.mean();
    case AggregateKind::kVar: return a.variance();
  }
  return 0.0;
}

core::IcpdaApp* QueryMux::instance_for(std::uint32_t query_id) {
  for (const Entry& e : live_) {
    if (e.query_id == query_id) return &e.instance->app;
  }
  return nullptr;
}

QueryMux::Instance::Instance(ServiceState& state, std::uint32_t query_id, std::uint64_t seed)
    : rng(seed),
      app(with_query_id(state.protocol, query_id), state.readings, state.keys,
          &state.no_attack, &state.records[query_id - 1].outcome, /*adversary=*/nullptr,
          /*adv=*/nullptr, &rng) {}

core::IcpdaApp& QueryMux::instance(net::Node& node, std::uint32_t query_id) {
  if (core::IcpdaApp* app = instance_for(query_id)) return *app;
  std::erase_if(live_, [this](const Entry& e) {
    return state_->records[e.query_id - 1].status != QueryStatus::kRunning &&
           e.instance->app.timers_pending() == 0;
  });
  live_.push_back({query_id, std::make_unique<Instance>(
                                 *state_, query_id,
                                 query_rng_seed(state_->seed, node.id(), query_id))});
  ++instance_count_;
  node.metrics().add("service.instance_created");
  return live_.back().instance->app;
}

core::IcpdaApp* QueryMux::route(net::Node& node, const net::Frame& frame) {
  const std::uint32_t qid = proto::peek_query_id(frame.payload);
  if (qid == 0) {
    node.metrics().add("service.frame_unreadable");
    return nullptr;
  }
  const CompletionRecord* record = state_->record(qid);
  if (record != nullptr && record->status == QueryStatus::kRunning) {
    return &instance(node, qid);
  }
  node.metrics().add(record != nullptr && record->status == QueryStatus::kCompleted
                         ? "service.frame_retired_query"
                         : "service.frame_unknown_query");
  return nullptr;
}

void QueryMux::on_receive(net::Node& node, const net::Frame& frame) {
  if (auto* app = route(node, frame)) app->on_receive(node, frame);
}

void QueryMux::on_overhear(net::Node& node, const net::Frame& frame) {
  if (auto* app = route(node, frame)) app->on_overhear(node, frame);
}

void QueryMux::on_send_failed(net::Node& node, const net::Frame& frame) {
  if (auto* app = route(node, frame)) app->on_send_failed(node, frame);
}

void QueryMux::launch(net::Node& node, std::uint32_t query_id) {
  instance(node, query_id).start(node);
}

}  // namespace icpda::service
