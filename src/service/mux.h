// Per-node query multiplexer: routes frames to per-query protocol
// instances.
//
// Under the continuous-query service a node participates in several
// overlapping epochs at once — Phase I of query k+1 on the air while
// Phase III of query k is still ascending the tree. The QueryMux is
// the one net::App attached per node; it peeks the QueryId prefix
// every payload carries (proto::peek_query_id, the wire invariant) and
// dispatches the frame to that query's core::IcpdaApp instance,
// created lazily on first contact. Frames naming unknown or retired
// queries are dropped before any decoder runs. The IcpdaApp handlers'
// own query_id filter stays in place beneath this as defense in depth.
// The mux sees only what the channel delivers: a copy of an alarm
// flood this node already holds (Channel::hold_flood) never reaches
// it, so `service.frame_retired_query` does not count those copies.
//
// Lifetime: protocol code schedules timers capturing raw `this`, so a
// per-query instance is NEVER destroyed while the simulation can still
// fire events — retired queries merely stop receiving frames (their
// stray timers fire into silence) and the instances are reclaimed when
// the dispatcher goes away after the run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/icpda.h"
#include "service/query.h"
#include "sim/rng.h"

namespace icpda::service {

/// One in-flight (or retired) query as the mux sees it: the per-query
/// protocol configuration and the shared outcome every node's instance
/// writes into. Entries live in a std::map so their addresses are
/// stable for the lifetime of the run.
struct ActiveQuery {
  core::IcpdaConfig config;  ///< protocol config with query_id stamped
  core::IcpdaOutcome outcome;
  bool active = false;  ///< routing gate: retired queries drop frames
};

/// State shared by every node's mux, owned by the Dispatcher.
struct ServiceState {
  std::map<std::uint32_t, ActiveQuery> queries;
  proto::ReadingProvider readings;
  const crypto::KeyScheme* keys = nullptr;
  /// Seed salt for per-(node, query) protocol randomness.
  std::uint64_t seed = 1;
  /// Benign service runs mount no attack; one shared empty plan.
  core::AttackPlan no_attack;

  [[nodiscard]] ActiveQuery* find(std::uint32_t query_id) {
    const auto it = queries.find(query_id);
    return it == queries.end() ? nullptr : &it->second;
  }
};

/// Deterministic per-(node, query) protocol RNG seed. Derived from
/// (service seed, node, query) alone — NOT from the node's live RNG
/// stream — so a query's coin flips, jitters and share coefficients do
/// not depend on what other queries happen to be in flight. That
/// independence is the pipelined-vs-serial determinism contract.
[[nodiscard]] inline std::uint64_t query_rng_seed(std::uint64_t service_seed,
                                                 std::uint32_t node_id,
                                                 std::uint32_t query_id) {
  return sim::seed_mix(sim::seed_mix(service_seed, 0x53525643 /*'SRVC'*/, query_id),
                       node_id, 0x9E3779B97F4A7C15ULL);
}

class QueryMux final : public net::App {
 public:
  explicit QueryMux(ServiceState* state) : state_(state) {}

  /// Nothing to do at simulation start: epochs are opened per query by
  /// the Dispatcher calling launch() on the base station's mux.
  void start(net::Node&) override {}

  void on_receive(net::Node& node, const net::Frame& frame) override;
  void on_overhear(net::Node& node, const net::Frame& frame) override;
  void on_send_failed(net::Node& node, const net::Frame& frame) override;

  /// Base station only: create this query's instance and open its
  /// epoch (the flood is scheduled start_delay_s from now).
  void launch(net::Node& node, ActiveQuery& query);

  /// Instances created on this node so far (introspection for tests).
  [[nodiscard]] std::size_t instance_count() const { return instance_count_; }
  [[nodiscard]] core::IcpdaApp* instance_for(std::uint32_t query_id) {
    return query_id < instances_.size() ? instances_[query_id].app.get() : nullptr;
  }

 private:
  struct Instance {
    std::unique_ptr<sim::Rng> rng;  ///< outlives the app (app holds a ptr)
    std::unique_ptr<core::IcpdaApp> app;
  };

  /// Get-or-create the per-query protocol instance on this node.
  core::IcpdaApp& instance(net::Node& node, ActiveQuery& query);
  /// Route one frame; returns the target app or nullptr (dropped).
  core::IcpdaApp* route(net::Node& node, const net::Frame& frame);

  ServiceState* state_;
  /// Indexed by query id (the Dispatcher numbers queries densely from
  /// 1); an empty slot has no app. Only ids route() has found in the
  /// service state ever size it, never an id peeked off the wire.
  std::vector<Instance> instances_;
  std::size_t instance_count_ = 0;
};

}  // namespace icpda::service
