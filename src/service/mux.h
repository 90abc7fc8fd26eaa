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
// Lifetime: protocol code schedules timers capturing raw `this`, so an
// instance lives while its query is active or any timer it set is still
// pending (core::IcpdaApp::timers_pending). A retired query's instance
// receives no frames, but its stray timers still fire, and may send.
// Each time the mux creates an instance it first frees every
// instance whose query has retired and whose timers have all fired, so
// a node holds the in-flight queries' instances plus the few retired
// ones still waiting on a timer — however many queries it has served.
// The reclaim lives here, not in the Dispatcher, because node.app() need
// not be the mux itself (a wrapper may own it). A timer that never fires
// (its node was down at fire time) pins its instance until the mux goes.
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

  /// Instances created on this node so far, reclaimed ones included.
  [[nodiscard]] std::size_t instance_count() const { return instance_count_; }
  /// Instances this node holds now (not yet reclaimed).
  [[nodiscard]] std::size_t live_instances() const { return live_.size(); }
  /// The query's instance on this node; nullptr if never created or
  /// already reclaimed.
  [[nodiscard]] core::IcpdaApp* instance_for(std::uint32_t query_id);

 private:
  /// One query's protocol instance on this node, allocated as one cell.
  struct Instance {
    Instance(const ServiceState& state, ActiveQuery& query, std::uint64_t seed)
        : rng(seed),
          app(query.config, state.readings, state.keys, &state.no_attack,
              &query.outcome, /*adversary=*/nullptr, /*adv=*/nullptr, &rng) {}
    sim::Rng rng;  ///< declared first: the app draws through a pointer to it
    core::IcpdaApp app;
  };
  struct Entry {
    std::uint32_t query_id;
    std::unique_ptr<Instance> instance;
  };

  /// Get-or-create the per-query protocol instance on this node.
  core::IcpdaApp& instance(net::Node& node, ActiveQuery& query);
  /// Route one frame; returns the target app or nullptr (dropped).
  core::IcpdaApp* route(net::Node& node, const net::Frame& frame);

  ServiceState* state_;
  /// The instances not yet reclaimed, in creation order. Only queries
  /// route() has found active in the service state ever get an entry,
  /// never an id peeked off the wire.
  std::vector<Entry> live_;
  std::size_t instance_count_ = 0;
};

}  // namespace icpda::service
