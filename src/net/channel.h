// Shared wireless medium with collision and loss modelling.
//
// The channel is broadcast by nature: every frame physically reaches
// every node within transmission range of the sender. That single fact
// powers three different protocol behaviours in this repository:
//   * addressed delivery        (normal reception),
//   * promiscuous overhearing   (iCPDA peer monitoring, Phase III),
//   * eavesdropping             (the attack model).
//
// Collision model: two transmissions overlapping in time at a receiver
// corrupt each other there (no capture effect); a node that is itself
// transmitting cannot receive (half-duplex). On top of collisions, an
// independent Bernoulli(p_loss) models fading/noise losses per
// (frame, receiver) pair. The loss draw is KEYED — a stateless hash of
// (sender, receiver, MAC seq, arrival time) under a seed forked from
// the channel RNG — so the outcome of one delivery never depends on
// how many other deliveries drew before it. That order-independence is
// what lets the sharded engine (DESIGN.md §5j) replay deliveries from
// per-shard schedulers and still produce bit-identical results.
//
// Fan-out is copy-free (DESIGN.md §5f, §5i): transmit() keeps one
// copy of the frame per transmission — a recycled pool slot under the
// production MAC sink, a shared immutable allocation under delivery
// hooks — and every receiver sees that same Frame by reference.
// Per-receiver state is a 24-byte slot in a reusable per-node pool,
// and all of a transmission's deliveries run from a single scheduler
// event (they share the arrival instant, so consolidation is
// observationally invisible).
//
// Sharded operation (set_shards): the physical state (tx_until_,
// receptions_) stays in the single shared per-node arrays, but every
// *acting* resource — scheduler, metric registry, in-flight frame
// pool, tx-id space — is per shard, selected by the transmitting
// node's shard. Events that can touch another shard's per-node state
// (a border node's delivery pass, or a delivery that will solicit an
// ACK from a border receiver) are border-tagged so the engine routes
// them through its serialized gate; everything else runs in the
// parallel drains, where the partition guarantees it only touches its
// own shard's rows of the shared arrays.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace icpda::net {

class Mac;

struct ChannelConfig {
  /// Radio bit rate (paper family: 1 Mbps).
  double bit_rate_bps = 1e6;
  /// Independent per-(frame,receiver) loss probability.
  double loss_probability = 0.0;
  /// Propagation delay per frame (distance-independent; ranges are
  /// <=50 m so real propagation is ~0.2 us — dominated by this slack).
  double propagation_delay_s = 1e-6;
};

/// Outcome of one frame at one receiver, reported to the Network.
enum class ReceptionStatus : std::uint8_t {
  kOk,         ///< delivered intact
  kCollided,   ///< corrupted by an overlapping transmission
  kLost,       ///< random channel loss
  kHalfDuplex  ///< receiver was transmitting at the time
};

class Channel {
 public:
  /// receiver, frame, status. Called once per in-range node per frame
  /// at reception-complete time (ok or not, so MACs can count noise).
  /// The Frame reference is to the transmission's shared copy: valid
  /// for the duration of the callback only.
  using DeliveryFn =
      std::function<void(NodeId receiver, const Frame& frame, ReceptionStatus)>;

  /// Wiretap observer: sees every transmission at start-of-frame with
  /// the sender id. Used by attack instrumentation; taps see ciphertext
  /// bytes exactly as a real antenna would. A tapped channel forces the
  /// sharded engine into full serialization (taps are arbitrary shared
  /// state).
  using TapFn = std::function<void(NodeId sender, const Frame& frame)>;

  Channel(const Topology& topo, sim::Scheduler& sched, sim::Rng rng,
          sim::MetricRegistry& metrics, ChannelConfig config);

  /// Sharded wiring (Network::wire when config.shards > 1): per-shard
  /// schedulers/registries plus the node->shard map and border flags.
  /// The pointed-to arrays must outlive the channel and never move.
  struct ShardWiring {
    std::vector<sim::Scheduler*> scheds;
    std::vector<sim::MetricRegistry*> metrics;
    const std::uint32_t* shard_of = nullptr;  ///< per node
    const std::uint8_t* border = nullptr;     ///< per node
  };
  void set_shards(ShardWiring wiring);

  /// Airtime of a frame at the configured bit rate.
  [[nodiscard]] sim::SimTime airtime(const Frame& frame) const {
    return airtime_bytes(frame.air_bytes());
  }
  [[nodiscard]] sim::SimTime airtime_bytes(std::size_t bytes) const {
    return sim::seconds(static_cast<double>(bytes) * 8.0 / config_.bit_rate_bps);
  }

  /// Carrier sense: is any transmission audible at `node` right now
  /// (including the node's own)? "Now" is the node's own shard clock —
  /// callers are always the node's own MAC, acting inside one of the
  /// node's events.
  [[nodiscard]] bool busy_at(NodeId node) const;

  /// Is `node` itself currently transmitting (on its own shard clock)?
  [[nodiscard]] bool transmitting(NodeId node) const;

  /// Start transmitting `frame` from `sender` now (the channel takes a
  /// copy; under the direct-sink wiring it lands in a slot whose
  /// payload buffer is recycled across transmissions, so steady state
  /// allocates nothing). The MAC must have done its carrier-sense
  /// dance already; the channel will happily create a collision if
  /// told to transmit into a busy medium. `on_tx_done` fires at
  /// end-of-frame at the sender; pass nullptr (ACKs, test rigs) and no
  /// end-of-frame event is scheduled at all — carrier state lives in
  /// tx_until_, so the event exists only to run the callback.
  void transmit(NodeId sender, const Frame& frame, sim::EventFn on_tx_done);

  /// Installing a delivery hook clears any direct MAC sink: the hook
  /// takes over the reception path completely (tests and tools rely on
  /// replacing the Network's wiring this way).
  void set_delivery(DeliveryFn fn) {
    delivery_ = std::move(fn);
    sink_macs_ = nullptr;
    sink_alive_ = nullptr;
  }

  /// Production fast path (Network::wire): deliver intact frames
  /// straight into `macs[r]->handle_reception` when `alive[r]` (ACKs
  /// only when addressed to r), skipping the std::function hop paid
  /// once per in-range node per frame — the hottest indirect call in
  /// the simulator. Both arrays are indexed
  /// by NodeId, must cover every topology node and outlive the
  /// channel's use of them (the Network owns both; neither reallocates
  /// after wiring). Dead receivers count channel.rx_dead, exactly as
  /// the Network's hook did.
  void set_sink(Mac* const* macs, const std::uint8_t* alive) {
    sink_macs_ = macs;
    sink_alive_ = alive;
  }

  void add_tap(TapFn fn) { taps_.push_back(std::move(fn)); }
  [[nodiscard]] bool has_taps() const { return !taps_.empty(); }

  /// Attach a tracer: transmit() records kTxBytes at the sender (same
  /// value and call site as the channel.tx_bytes metric, so per-phase
  /// trace sums reconcile with the registry exactly) and each delivery
  /// records kRxBytes / kCollisionBytes / kLossBytes at the receiver.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] const ChannelConfig& config() const { return config_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// Heap bytes held by the physical state (per-node carrier clocks,
  /// reception pools and per-link dedup slots) and the per-shard acting contexts (in-flight
  /// frame pools). Capacity-based: reports the high-water pool sizes.
  [[nodiscard]] std::size_t footprint_bytes() const {
    std::size_t bytes = tx_until_.capacity() * sizeof(sim::SimTime) +
                        receptions_.capacity() * sizeof(std::vector<Reception>) +
                        link_seen_.capacity() * sizeof(std::uint32_t);
    for (const auto& pool : receptions_) bytes += pool.capacity() * sizeof(Reception);
    for (const ShardCtx& ctx : ctxs_) {
      bytes += ctx.inflight.capacity() * sizeof(Frame) +
               ctx.free_inflight.capacity() * sizeof(std::uint32_t);
      for (const Frame& f : ctx.inflight) bytes += f.payload.capacity();
    }
    return bytes;
  }

 private:
  /// One in-flight frame at one receiver. An entry lives in the
  /// receiver's slot pool from start-of-frame until the transmission's
  /// delivery pass consumes it (the corrupted flag must survive that
  /// whole window); slots are reclaimed by swap-removal, so a pool
  /// never shrinks its capacity — steady state allocates nothing.
  struct Reception {
    std::uint64_t tx_id;
    sim::SimTime end;
    bool corrupted;
    /// Half-duplex latch: the receiver was mid-transmission when this
    /// frame started (checked again against `now` at delivery).
    bool rx_while_tx;
  };

  /// Everything a transmission *acts through*, one instance per shard
  /// (exactly one in single-shard operation, bound to the constructor's
  /// scheduler/registry). The metric cells are per-context because the
  /// delivery hot loop bumps them from concurrent shard drains.
  struct ShardCtx {
    sim::Scheduler* sched = nullptr;
    sim::MetricRegistry* metrics = nullptr;
    /// In-flight frame pool for the sink path: one slot per
    /// transmission from start-of-frame until its delivery pass
    /// finishes, recycled with payload capacity retained. Safe because
    /// under the MAC sink no code transmits from inside deliver() —
    /// every MAC send goes through a scheduled backoff/SIFS event — so
    /// the pool cannot reallocate while a slot is being read.
    std::vector<Frame> inflight;
    std::vector<std::uint32_t> free_inflight;
    /// Low 48 bits of this shard's next transmission id.
    std::uint64_t next_tx_id = 0;

    /// Pre-bound counter handles (sim::MetricRegistry::Cell): deliver()
    /// touches one per receiver per frame, the single hottest metric
    /// path in the simulator.
    sim::MetricRegistry::Cell tx_frames{"channel.tx_frames"};
    sim::MetricRegistry::Cell tx_bytes{"channel.tx_bytes"};
    sim::MetricRegistry::Cell rx_ok{"channel.rx_ok"};
    sim::MetricRegistry::Cell rx_collided{"channel.rx_collided"};
    sim::MetricRegistry::Cell dst_collided{"channel.dst_collided"};
    sim::MetricRegistry::Cell rx_lost{"channel.rx_lost"};
    sim::MetricRegistry::Cell rx_halfduplex{"channel.rx_halfduplex"};
    sim::MetricRegistry::Cell dst_halfduplex{"channel.dst_halfduplex"};
    sim::MetricRegistry::Cell rx_dead{"channel.rx_dead"};
  };

  [[nodiscard]] ShardCtx& ctx_of(NodeId node) {
    return shard_of_ == nullptr ? ctxs_[0] : ctxs_[shard_of_[node]];
  }
  [[nodiscard]] const ShardCtx& ctx_of(NodeId node) const {
    return shard_of_ == nullptr ? ctxs_[0] : ctxs_[shard_of_[node]];
  }

  /// Is `node` transmitting at `now`? Internal paths pass the ACTING
  /// event's time explicitly: under the sharded gate another shard's
  /// clock may lag the acting event, so reading the remote scheduler
  /// would mis-evaluate carrier state.
  [[nodiscard]] bool transmitting_at(NodeId node, sim::SimTime now) const {
    return tx_until_[node] > now;
  }

  /// Stateless per-(frame, receiver) loss draw; see the header comment.
  [[nodiscard]] bool keyed_loss(NodeId sender, NodeId receiver,
                                const Frame& frame, sim::SimTime now) const;

  /// Deliver one transmission to every in-range receiver, in neighbour
  /// (= ascending id) order — the same order the per-receiver events
  /// used to fire in, since they shared (arrival time, schedule order).
  void deliver(NodeId sender, std::uint64_t tx_id, const Frame& frame,
               ShardCtx& ctx);

  const Topology& topo_;
  sim::MetricRegistry& metrics_;
  ChannelConfig config_;
  sim::Tracer* tracer_ = nullptr;
  DeliveryFn delivery_;
  /// Direct-dispatch sink (set_sink); non-null only under the
  /// production Network wiring, where it replaces `delivery_`.
  Mac* const* sink_macs_ = nullptr;
  const std::uint8_t* sink_alive_ = nullptr;
  std::vector<TapFn> taps_;

  /// Acting contexts: one per shard (one total when unsharded).
  std::vector<ShardCtx> ctxs_;
  const std::uint32_t* shard_of_ = nullptr;  ///< per node; null = unsharded
  const std::uint8_t* border_ = nullptr;     ///< per node; null = unsharded

  /// Seed of the keyed loss draw (forked once from the channel RNG, so
  /// it is a pure function of the network seed — identical across
  /// engines and shard counts).
  std::uint64_t loss_seed_;

  /// Per-node time until which the node is transmitting.
  std::vector<sim::SimTime> tx_until_;
  /// Per-node slot pools of in-flight receptions.
  std::vector<std::vector<Reception>> receptions_;
  /// Unicast dedup state, one slot per directed link in topology CSR
  /// order (Topology::first_link): the highest data-frame sequence the
  /// receiver has taken from that sender, 0 = none. deliver() hands the
  /// slot to the receiving MAC (Mac::handle_reception), so a reception
  /// costs O(1) however many neighbours the receiver hears. It outlives
  /// power cycles, as MAC sequence numbers do.
  std::vector<std::uint32_t> link_seen_;
};

}  // namespace icpda::net
