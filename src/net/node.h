// Sensor node and the application interface protocols implement.
//
// A Node is the runtime identity of one sensor: id, position, radio
// (via the Network), its own RNG substream and an attached App. All
// protocol logic in this repository — TAG, SMART, cluster formation,
// CPDA, peer monitoring — is written as App subclasses; the substrate
// below the App line never changes between experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "net/packet.h"
#include "net/topology.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace icpda::net {

class Network;
class Node;

/// Protocol behaviour attached to a node. Handlers receive the Node so
/// one App instance could in principle be shared; in practice each node
/// owns its own App (they hold per-node protocol state).
class App {
 public:
  virtual ~App() = default;

  /// Called once when the simulation starts (base station first).
  virtual void start(Node& node) { (void)node; }

  /// An intact frame addressed to this node (or broadcast) arrived.
  virtual void on_receive(Node& node, const Frame& frame) {
    (void)node;
    (void)frame;
  }

  /// An intact frame addressed to *another* node was overheard
  /// (promiscuous mode). iCPDA peer monitoring lives here.
  virtual void on_overhear(Node& node, const Frame& frame) {
    (void)node;
    (void)frame;
  }

  /// A unicast frame was dropped after exhausting MAC retries.
  virtual void on_send_failed(Node& node, const Frame& frame) {
    (void)node;
    (void)frame;
  }

  /// Frame types on_overhear acts on: bit t set = type t is overheard.
  /// Types 64 and up are always overheard. Read once, when the app is
  /// attached; an app that ignores a type entirely can clear its bit
  /// and the node skips that upcall.
  [[nodiscard]] virtual std::uint64_t overheard_types() const {
    return ~std::uint64_t{0};
  }
};

class Node {
 public:
  Node(NodeId id, Network& network, sim::Rng rng)
      : id_(id), network_(network), rng_(std::move(rng)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  /// Node 0 is the base station by convention.
  [[nodiscard]] bool is_base_station() const { return id_ == 0; }

  /// Liveness (fault injection). A dead node's radio is off and its
  /// application is frozen: sends are discarded, receptions and
  /// overhears are not dispatched, and timers scheduled through the
  /// node fire only if the node is alive at fire time (and its App has
  /// not been replaced since, see attach_app). Toggled by
  /// Network::set_node_down / set_node_up, never directly.
  [[nodiscard]] bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  // Radio / timer facade (implemented in node.cc against Network).
  [[nodiscard]] sim::SimTime now() const;
  /// Application timer: `fn` runs `delay` from now on the node's
  /// home-shard scheduler, owner-tagged and never a border event
  /// (handlers touch only the node's own state and send through its
  /// own MAC). The liveness gate is applied at fire time, not at
  /// schedule time: a node that crashes loses its pending timers (its
  /// program state is gone), and a node that was down when the timer
  /// was set may be back up when it fires. A timer also dies with the
  /// App that set it: once attach_app has replaced that App, the
  /// closure may point into freed memory. The gate holds `fn` itself,
  /// not an EventFn, so with a closure of up to 32 B it stays inside
  /// EventFn's inline buffer and the timer allocates nothing.
  template <typename F>
  sim::EventId schedule(sim::SimTime delay, F&& fn) {
    return home_scheduler().after(
        delay,
        [this, generation = app_generation_, fn = std::forward<F>(fn)]() mutable {
          if (alive_ && generation == app_generation_) fn();
        },
        id_);
  }
  void send(NodeId dst, FrameType type, Bytes payload) {
    enqueue(dst, type, std::move(payload), 0);
  }
  /// `flood` tags the broadcast as a copy of that flood (see below).
  void broadcast(FrameType type, Bytes payload, std::uint16_t flood = 0);
  /// Floods (Channel::open_flood): a new tag for a flood this node
  /// starts (0 when the tag space is spent), and this node's promise
  /// that its app drops every further copy of flood `tag` unread, so
  /// the channel need not deliver them here. Holds end with the app.
  [[nodiscard]] std::uint16_t open_flood();
  void hold_flood(std::uint16_t tag);
  /// Fail (on_send_failed) all queued frames to a neighbour this node
  /// has concluded is dead; see Mac::fail_queued_to.
  void purge_sends_to(NodeId dst);
  [[nodiscard]] sim::MetricRegistry& metrics();
  [[nodiscard]] sim::Tracer& tracer();
  [[nodiscard]] const Point& position() const;

  /// Replaces the App. Timers scheduled through this node before the
  /// call never fire: their closures may point into the old App, and
  /// the node's flood holds are dropped: they were the old App's.
  void attach_app(std::unique_ptr<App> app);
  [[nodiscard]] App* app() { return app_.get(); }

  // Network-internal dispatch.
  void dispatch_receive(const Frame& f) {
    if (app_ && alive_) app_->on_receive(*this, f);
  }
  void dispatch_overhear(const Frame& f) {
    if (app_ && alive_ && (f.type >= 64 || ((overheard_ >> f.type) & 1U) != 0)) {
      app_->on_overhear(*this, f);
    }
  }
  void dispatch_send_failed(const Frame& f) {
    if (app_ && alive_) app_->on_send_failed(*this, f);
  }

 private:
  NodeId id_;
  Network& network_;
  sim::Rng rng_;
  bool alive_ = true;
  /// Bumped by attach_app; a timer fires only in the generation that
  /// scheduled it.
  std::uint32_t app_generation_ = 0;
  /// The App's overheard_types(), cached by attach_app.
  std::uint64_t overheard_ = ~std::uint64_t{0};
  std::unique_ptr<App> app_;

  [[nodiscard]] sim::Scheduler& home_scheduler();
  void enqueue(NodeId dst, FrameType type, Bytes payload, std::uint16_t flood);
};

}  // namespace icpda::net
