#include "service/mux.h"

namespace icpda::service {

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

core::IcpdaApp& QueryMux::instance(net::Node& node, ActiveQuery& query) {
  const std::uint32_t qid = query.config.query_id;
  if (core::IcpdaApp* app = instance_for(qid)) return *app;
  std::erase_if(live_, [this](const Entry& e) {
    const ActiveQuery* q = state_->find(e.query_id);
    return (q == nullptr || !q->active) && e.instance->app.timers_pending() == 0;
  });
  live_.push_back({qid, std::make_unique<Instance>(
                            *state_, query, query_rng_seed(state_->seed, node.id(), qid))});
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
  ActiveQuery* query = state_->find(qid);
  if (query == nullptr) {
    node.metrics().add("service.frame_unknown_query");
    return nullptr;
  }
  if (!query->active) {
    node.metrics().add("service.frame_retired_query");
    return nullptr;
  }
  return &instance(node, *query);
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

void QueryMux::launch(net::Node& node, ActiveQuery& query) {
  instance(node, query).start(node);
}

}  // namespace icpda::service
