// Per-node query multiplexer: routes frames to per-query protocol
// instances.
//
// Under the continuous-query service a node participates in several
// overlapping epochs at once — Phase I of query k+1 on the air while
// Phase III of query k is still ascending the tree. The QueryMux is
// the one net::App attached per node; it peeks the QueryId prefix
// every payload carries (proto::peek_query_id, the wire invariant) and
// dispatches the frame to that query's core::IcpdaApp instance,
// created lazily on first contact. The routing gate is the query's own
// record (ServiceState::records): only a running query's frames reach
// an instance. An id out of range or naming a query never launched
// counts as unknown, one whose query completed as retired; both are
// dropped before any decoder runs. The IcpdaApp handlers'
// own query_id filter stays in place beneath this as defense in depth.
// The mux sees only what the channel delivers: a copy of an alarm
// flood this node already holds (Channel::hold_flood) never reaches
// it, so `service.frame_retired_query` does not count those copies.
// Nor does the node hand it an overheard frame of a type no instance
// reads: the mux declares its instances' overhear mask, so the
// `service.frame_*` counters see every received frame but, of the
// overheard ones, only cluster reports (and the epoch-tag-gated types
// when hardened).
//
// Lifetime: protocol code schedules timers capturing raw `this`, so an
// instance lives while its query is running or any timer it set is
// still pending (core::IcpdaApp::timers_pending). A retired query's
// instance receives no frames, but its stray timers still fire, may
// send, and may add to the per-node tallies of the record's outcome.
// Each time the mux creates an instance it first frees every
// instance whose query has retired and whose timers have all fired, so
// a node holds the in-flight queries' instances plus the few retired
// ones still waiting on a timer — however many queries it has served.
// The reclaim lives here, not in the Dispatcher, because node.app() need
// not be the mux itself (a wrapper may own it). A timer that never fires
// (its node was down at fire time) pins its instance until the mux goes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/icpda.h"
#include "service/query.h"
#include "sim/rng.h"

namespace icpda::service {

/// State shared by every node's mux, owned by the Dispatcher.
struct ServiceState {
  /// One record per query, in id order: query q's is records[q - 1].
  /// Built once from the arrival schedule and never resized after, so
  /// the address of a record's outcome, which every instance of that
  /// query writes into, is stable for the run.
  std::vector<CompletionRecord> records;
  /// Protocol config of every query; each instance gets a copy with
  /// its query_id stamped in.
  core::IcpdaConfig protocol;
  proto::ReadingProvider readings;
  const crypto::KeyScheme* keys = nullptr;
  /// Seed salt for per-(node, query) protocol randomness.
  std::uint64_t seed = 1;
  /// Benign service runs mount no attack; one shared empty plan.
  core::AttackPlan no_attack;

  /// Query `query_id`'s record; nullptr when no query has that id. The
  /// id is checked before it indexes: the mux peeks it off the wire.
  [[nodiscard]] CompletionRecord* record(std::uint32_t query_id) {
    return query_id >= 1 && query_id <= records.size() ? &records[query_id - 1] : nullptr;
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
  /// What every instance overhears: the service mounts no adversary.
  [[nodiscard]] std::uint64_t overheard_types() const override {
    return core::IcpdaApp::overheard_types_for(state_->protocol, /*adversary=*/false);
  }

  /// Base station only: create the instance of running query
  /// `query_id` and open its epoch (the flood is scheduled
  /// start_delay_s from now).
  void launch(net::Node& node, std::uint32_t query_id);

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
    Instance(ServiceState& state, std::uint32_t query_id, std::uint64_t seed);
    sim::Rng rng;  ///< declared first: the app draws through a pointer to it
    core::IcpdaApp app;
  };
  struct Entry {
    std::uint32_t query_id;
    std::unique_ptr<Instance> instance;
  };

  /// Get-or-create running query `query_id`'s instance on this node.
  core::IcpdaApp& instance(net::Node& node, std::uint32_t query_id);
  /// Route one frame; returns the target app or nullptr (dropped).
  core::IcpdaApp* route(net::Node& node, const net::Frame& frame);

  ServiceState* state_;
  /// The instances not yet reclaimed, in creation order. Only queries
  /// whose record is running ever get an entry, never an id peeked off
  /// the wire unchecked.
  std::vector<Entry> live_;
  std::size_t instance_count_ = 0;
};

}  // namespace icpda::service
