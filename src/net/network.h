// The Network: one simulated WSN deployment.
//
// Owns the scheduler, topology, channel, per-node MACs and Nodes, and
// wires the delivery path channel -> MAC -> node -> app. Experiments
// construct a Network from a NetworkConfig (or a pre-built Topology),
// attach protocol Apps, call start(), and run the scheduler.
//
// A Network is a self-contained world: no globals, fully deterministic
// in (config, seed), cheap enough to build thousands per benchmark.
//
// Sharded execution (NetworkConfig::shards > 1): the field is cut into
// event-load-balanced 2-D tiles (sim/shard.h), each tile gets its own
// sim::Scheduler and sim::MetricRegistry, and run() drives them through
// the conservative-PDES ShardEngine on an owned worker pool instead of
// the single scheduler. The partition is invisible to protocol code —
// nodes schedule through scheduler_for()/metrics_for(), which collapse
// to the single scheduler/registry when unsharded — and the engine's
// canonical event order reproduces the single-shard run bit-for-bit
// (DESIGN.md §5j). The service layer drives the scheduler directly and
// is not shard-aware: keep shards == 1 there.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "net/mac.h"
#include "net/node.h"
#include "net/shard_engine.h"
#include "net/topology.h"
#include "runner/thread_pool.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/shard.h"
#include "sim/trace.h"

namespace icpda::net {

struct NetworkConfig {
  std::size_t node_count = 400;
  double field_width_m = 400.0;
  double field_height_m = 400.0;
  double range_m = 50.0;
  std::uint64_t seed = 1;
  /// Spatial shards for parallel execution (1 = classic single-engine
  /// run). Clamped to the node count; results are byte-identical for
  /// every value. Above sim::kMaxShards the Network refuses to build.
  std::size_t shards = 1;
  ChannelConfig channel;
  MacConfig mac;
};

class Network {
 public:
  /// Random uniform deployment per `config`.
  explicit Network(const NetworkConfig& config);

  /// Explicit topology (tests build hand-crafted graphs).
  Network(Topology topology, const NetworkConfig& config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] NodeId base_station() const { return 0; }

  /// The single-engine scheduler. In a sharded network this is a
  /// detached, empty scheduler — use scheduler_for()/now() instead
  /// (every in-tree caller is either per-node or single-shard-only).
  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
  /// Home-shard scheduler of `id` (the scheduler when unsharded).
  [[nodiscard]] sim::Scheduler& scheduler_for(NodeId id) {
    return engine_ ? *shard_scheds_[plan_.shard_of[id]] : scheduler_;
  }
  /// Home-shard registry of `id` (the main registry when unsharded).
  /// Per-shard registries are drained into metrics() after every run,
  /// so post-run readers never need this.
  [[nodiscard]] sim::MetricRegistry& metrics_for(NodeId id) {
    return engine_ ? *shard_metrics_[plan_.shard_of[id]] : metrics_;
  }
  /// Current simulation time, correct under either engine. All shard
  /// clocks agree outside run() (the engine aligns them on exit).
  [[nodiscard]] sim::SimTime now() const {
    return engine_ ? shard_scheds_[0]->now() : scheduler_.now();
  }

  /// Events executed so far, summed across every engine — the number
  /// the shard-determinism suite reconciles EXACTLY against the
  /// single-shard reference (and against the ShardEngine's own
  /// gate/parallel accounting).
  [[nodiscard]] std::uint64_t executed_events() const {
    std::uint64_t total = scheduler_.executed();
    for (const auto& s : shard_scheds_) total += s->executed();
    return total;
  }

  [[nodiscard]] Channel& channel() { return *channel_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] sim::MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] Mac& mac(NodeId id) { return *macs_.at(id); }

  // ---- Sharded engine -----------------------------------------------

  /// Effective shard count (1 when running the single engine).
  [[nodiscard]] std::size_t shard_count() const {
    return engine_ ? plan_.shard_count : 1;
  }
  /// The spatial partition (empty when unsharded).
  [[nodiscard]] const sim::ShardPlan& shard_plan() const { return plan_; }
  /// Engine of the last/current sharded run; null when unsharded.
  [[nodiscard]] const ShardEngine* shard_engine() const { return engine_.get(); }
  /// Force every event through the engine's serialized gate. run() also
  /// serializes by itself when channel taps (arbitrary cross-shard
  /// observers) are attached; protocol drivers set it for adversary
  /// runs (shared AdversaryState). Sticky.
  void set_serialize_all(bool serialize) { serialize_all_ = serialize; }

  // ---- Structured tracing -------------------------------------------
  // Every Network owns a Tracer (disabled and ring-less by default, so
  // untraced runs pay one branch per instrumented site). Enabling is
  // purely observational: the traced run is event-for-event identical
  // to the untraced one.

  [[nodiscard]] sim::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const sim::Tracer& tracer() const { return tracer_; }

  /// Allocate per-node rings and start recording.
  void enable_trace(sim::Tracer::Config cfg) { tracer_.enable(size(), cfg); }
  void enable_trace() { enable_trace(sim::Tracer::Config{}); }

  // ---- Liveness (fault injection) -----------------------------------
  // A down node neither transmits, receives nor overhears: its MAC
  // queue is flushed, its radio stops decoding (so unicasts to it
  // exhaust the sender's retries) and its application timers are
  // frozen. The base station (node 0) is exempt — it is the epoch
  // driver, and the paper's fault model never crashes the sink.

  /// Take a node down (crash or outage start). No-op for the BS.
  void set_node_down(NodeId id);
  /// Bring a node back up (outage end). Its protocol state survived
  /// (apps are not re-created) but its MAC queue and timers are gone.
  void set_node_up(NodeId id);
  [[nodiscard]] bool node_alive(NodeId id) const { return nodes_.at(id)->alive(); }
  /// Nodes currently up, including the base station.
  [[nodiscard]] std::size_t live_count() const;

  /// Root RNG: fork substreams from here for experiment-level draws so
  /// they do not disturb protocol randomness.
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// Attach an App built per node. Factory receives the Node. Opens a
  /// new flood window (Channel::new_flood_window): the new apps start
  /// with no holds.
  template <typename Factory>
  void attach_apps(Factory&& make_app) {
    channel_->new_flood_window();
    for (auto& n : nodes_) n->attach_app(make_app(*n));
  }

  /// Call App::start on every node, base station first (it initiates
  /// the query), then run nothing — callers drive the scheduler.
  void start();

  /// Convenience: start() then run until quiescent or until `horizon`,
  /// whichever first. Returns simulated end time. Sharded networks run
  /// the ShardEngine here and fold the per-shard registries into
  /// metrics() (in shard order — deterministic) before returning.
  sim::SimTime run(sim::SimTime horizon = sim::SimTime::infinity());

  // ---- Footprint accounting -----------------------------------------

  /// Per-subsystem heap accounting for the memory-diet work
  /// (tools/mem_footprint.py gates bytes-per-node against a checked-in
  /// baseline). Capacity-based high-water numbers; `objects` covers the
  /// fixed sizeof() of every Mac/Node/App-owning allocation, the
  /// category-specific fields count only what those objects point at.
  struct Footprint {
    std::size_t topology = 0;    ///< positions + CSR adjacency
    std::size_t schedulers = 0;  ///< event slabs, all engines
    std::size_t channel = 0;     ///< air state, flood holds, link flags + dedup, frame pools
    std::size_t macs = 0;        ///< queues, callbacks
    std::size_t metrics = 0;     ///< all registries (main + per-shard)
    std::size_t plan = 0;        ///< shard partition arrays
    std::size_t objects = 0;     ///< sizeof of per-node objects + ptr arrays
    [[nodiscard]] std::size_t total() const {
      return topology + schedulers + channel + macs + metrics + plan + objects;
    }
  };
  [[nodiscard]] Footprint footprint() const;

 private:
  void wire();

  NetworkConfig config_;
  sim::Rng rng_;
  sim::Scheduler scheduler_;
  sim::MetricRegistry metrics_;
  sim::Tracer tracer_;
  Topology topology_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Mac>> macs_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Dense raw-pointer mirror of macs_, handed to Channel::set_sink —
  /// the delivery loop indexes it once per receiver per frame.
  std::vector<Mac*> mac_raw_;
  /// Dense mirror of each node's alive flag, maintained by
  /// set_node_down/up: the delivery path checks liveness once per
  /// receiver per frame, and a byte load from this array replaces a
  /// pointer chase into the heap-scattered Node objects.
  std::vector<std::uint8_t> alive_;

  // Sharded engine state; all empty/null when config_.shards == 1.
  sim::ShardPlan plan_;
  std::vector<std::unique_ptr<sim::Scheduler>> shard_scheds_;
  std::vector<std::unique_ptr<sim::MetricRegistry>> shard_metrics_;
  std::unique_ptr<runner::ThreadPool> pool_;
  std::unique_ptr<ShardEngine> engine_;
  bool serialize_all_ = false;
};

}  // namespace icpda::net
