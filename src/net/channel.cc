#include "net/channel.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "net/mac.h"

namespace icpda::net {

Channel::Channel(const Topology& topo, sim::Scheduler& sched, sim::Rng rng,
                 sim::MetricRegistry& metrics, ChannelConfig config)
    : topo_(topo),
      metrics_(metrics),
      config_(config),
      ctxs_(1),
      loss_seed_(rng.fork("loss")()),
      tx_until_(topo.size(), sim::SimTime::zero()),
      receptions_(topo.size()),
      link_seen_(topo.link_count(), 0) {
  ctxs_[0].sched = &sched;
  ctxs_[0].metrics = &metrics;
}

void Channel::set_shards(ShardWiring wiring) {
  const std::size_t shards = wiring.scheds.size();
  if (shards == 0 || wiring.metrics.size() != shards) {
    throw std::invalid_argument("Channel::set_shards: scheds/metrics mismatch");
  }
  if (shards > 1 && (wiring.shard_of == nullptr || wiring.border == nullptr)) {
    throw std::invalid_argument("Channel::set_shards: missing node maps");
  }
  ctxs_.assign(shards, ShardCtx{});
  for (std::size_t s = 0; s < shards; ++s) {
    ctxs_[s].sched = wiring.scheds[s];
    ctxs_[s].metrics = wiring.metrics[s];
  }
  shard_of_ = shards > 1 ? wiring.shard_of : nullptr;
  border_ = shards > 1 ? wiring.border : nullptr;
}

bool Channel::transmitting(NodeId node) const {
  return transmitting_at(node, ctx_of(node).sched->now());
}

bool Channel::busy_at(NodeId node) const {
  const sim::SimTime now = ctx_of(node).sched->now();
  if (transmitting_at(node, now)) return true;
  for (const auto& r : receptions_[node]) {
    if (r.end > now) return true;
  }
  return false;
}

bool Channel::keyed_loss(NodeId sender, NodeId receiver, const Frame& frame,
                         sim::SimTime now) const {
  const double p = config_.loss_probability;
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  // Key on physically-unique coordinates of the (transmission, receiver)
  // pair: a sender cannot start two frames arriving at one receiver at
  // the same instant, so (sender, receiver, arrival time) never repeats
  // — and both engines compute identical arrival times, so the draw is
  // engine- and order-independent. The MAC seq decorrelates nothing by
  // itself (ACKs all carry seq of the acked frame) but adds margin.
  std::uint64_t tbits = 0;
  const double t = now.seconds();
  std::memcpy(&tbits, &t, sizeof(tbits));
  const std::uint64_t h = sim::seed_mix(
      loss_seed_, (static_cast<std::uint64_t>(sender) << 32) | receiver,
      tbits ^ (static_cast<std::uint64_t>(frame.seq) << 1));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

void Channel::transmit(NodeId sender, const Frame& frame, sim::EventFn on_tx_done) {
  ShardCtx& ctx = ctx_of(sender);
  const sim::SimTime now = ctx.sched->now();
  const sim::SimTime dur = airtime(frame);
  const sim::SimTime end = now + dur;
  const sim::SimTime arrive = end + sim::SimTime{config_.propagation_delay_s};
  // Transmission ids are per-shard (high 16 bits tag the shard) so
  // concurrent drains never contend on a shared counter; ids only need
  // to be unique among in-flight transmissions, never dense.
  const std::uint64_t tx_id =
      (shard_of_ == nullptr
           ? std::uint64_t{0}
           : static_cast<std::uint64_t>(shard_of_[sender]) << 48) |
      ctx.next_tx_id++;

  ctx.tx_frames.add(*ctx.metrics);
  ctx.tx_bytes.add(*ctx.metrics, frame.air_bytes());
  if (tracer_ && tracer_->enabled()) {
    // Same value as the channel.tx_bytes metric, attributed to the
    // sender's current protocol phase — conservation by construction.
    tracer_->counter(sender, sim::TraceCounter::kTxBytes, frame.air_bytes(), now);
  }

  tx_until_[sender] = std::max(tx_until_[sender], end);

  // Taps see the caller's frame directly at start-of-frame.
  for (const auto& tap : taps_) tap(sender, frame);

  // Register the reception at every in-range node and detect overlap.
  const auto receivers = topo_.neighbors(sender);
  for (const NodeId r : receivers) {
    auto& rs = receptions_[r];
    bool corrupted = false;
    for (auto& other : rs) {
      if (other.end > now) {
        // Temporal overlap with a frame still on the air corrupts both
        // at this receiver (no capture effect).
        other.corrupted = true;
        corrupted = true;
      }
    }
    // Half-duplex: a receiver mid-transmission cannot decode.
    rs.push_back(Reception{tx_id, end, corrupted, transmitting_at(r, now)});
  }

  // Border classification of the delivery pass (inert when unsharded):
  //  * a border sender's neighbours may live in another shard, so the
  //    pass itself touches foreign per-node state;
  //  * a unicast data frame to a border destination will make that
  //    receiver schedule its MAC ACK — a border event — only one SIFS
  //    (< lookahead) after delivery, so the spawn must happen inside
  //    the serialized gate to keep the lookahead contract honest.
  // Everything the pass can spawn otherwise sits at least one lookahead
  // ahead: attempts are >= one backoff slot out, and nested deliveries
  // are >= min frame airtime + propagation out.
  bool border = false;
  if (border_ != nullptr) {
    border = border_[sender] != 0;
    if (!border && !frame.is_broadcast() && frame.type != kMacAck &&
        frame.dst < topo_.size()) {
      border = border_[frame.dst] != 0;
    }
  }

  // One delivery event per transmission: every receiver shares the
  // arrival instant, and per-receiver status is resolved at fire time
  // because a *later* transmission can still corrupt the frame. The
  // frame copy the receivers will read lives in a recycled pool slot
  // on the sink path (no allocation once pools warm up) and in a
  // shared_ptr on the hook path (hooks may keep the channel busy in
  // ways the pool's no-transmit-during-deliver invariant forbids).
  if (!receivers.empty()) {
    if (sink_macs_ != nullptr) {
      std::uint32_t slot;
      if (!ctx.free_inflight.empty()) {
        slot = ctx.free_inflight.back();
        ctx.free_inflight.pop_back();
      } else {
        slot = static_cast<std::uint32_t>(ctx.inflight.size());
        ctx.inflight.emplace_back();
      }
      ctx.inflight[slot] = frame;  // payload buffer capacity is reused
      ShardCtx* cp = &ctx;         // ctxs_ never reallocates after wiring
      ctx.sched->at(
          arrive,
          [this, sender, tx_id, slot, cp] {
            deliver(sender, tx_id, cp->inflight[slot], *cp);
            cp->free_inflight.push_back(slot);
          },
          sender, border);
    } else {
      auto shared = std::make_shared<const Frame>(frame);
      ShardCtx* cp = &ctx;
      ctx.sched->at(
          arrive,
          [this, sender, tx_id, shared, cp] {
            deliver(sender, tx_id, *shared, *cp);
          },
          sender, border);
    }
  }

  // Notify the sender's MAC when the air is clear again. With no
  // callback (ACKs, taps) there is nothing to notify: the former no-op
  // event drew no RNG and touched no trace counter, so eliding it is
  // observationally invisible — the relative EventKey order of every
  // remaining event is unchanged. Never a border event: the callback
  // acts on the sender's own MAC only.
  if (on_tx_done) ctx.sched->at(end, std::move(on_tx_done), sender);
}

void Channel::deliver(NodeId sender, std::uint64_t tx_id, const Frame& frame,
                      ShardCtx& ctx) {
  const sim::SimTime now = ctx.sched->now();
  const bool traced = tracer_ && tracer_->enabled() && tracer_->config().rx_events;
  const auto receivers = topo_.neighbors(sender);
  // The receivers' dedup slots for links from `sender`, in the same
  // CSR order. Only this pass writes them, and it runs on the sender's
  // shard drain (an interior sender's neighbours share its shard) or in
  // the serialized gate (a border sender), so shards never race on one.
  std::uint32_t* const seen = link_seen_.data() + topo_.first_link(sender);
  for (std::size_t k = 0; k < receivers.size(); ++k) {
    const NodeId r = receivers[k];
    auto& rs = receptions_[r];
    ReceptionStatus status = ReceptionStatus::kOk;
    bool rx_while_tx = false;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].tx_id != tx_id) continue;
      if (rs[i].corrupted) status = ReceptionStatus::kCollided;
      rx_while_tx = rs[i].rx_while_tx;
      rs[i] = rs.back();  // swap-remove: the pool keeps its capacity
      rs.pop_back();
      break;
    }
    if (rx_while_tx || transmitting_at(r, now)) status = ReceptionStatus::kHalfDuplex;
    if (status == ReceptionStatus::kOk && keyed_loss(sender, r, frame, now)) {
      status = ReceptionStatus::kLost;
    }
    switch (status) {
      case ReceptionStatus::kOk:
        ctx.rx_ok.add(*ctx.metrics);
        if (traced) {
          tracer_->counter(r, sim::TraceCounter::kRxBytes, frame.air_bytes(), now);
        }
        break;
      case ReceptionStatus::kCollided:
        ctx.rx_collided.add(*ctx.metrics);
        if (frame.dst == r) ctx.dst_collided.add(*ctx.metrics);
        if (traced) {
          tracer_->counter(r, sim::TraceCounter::kCollisionBytes,
                           frame.air_bytes(), now);
        }
        break;
      case ReceptionStatus::kLost:
        ctx.rx_lost.add(*ctx.metrics);
        if (traced) {
          tracer_->counter(r, sim::TraceCounter::kLossBytes, frame.air_bytes(),
                           now);
        }
        break;
      case ReceptionStatus::kHalfDuplex:
        ctx.rx_halfduplex.add(*ctx.metrics);
        if (frame.dst == r) ctx.dst_halfduplex.add(*ctx.metrics);
        break;
    }
    if (sink_macs_ != nullptr) {
      // Direct dispatch into the receiving MAC; a dead receiver's
      // radio is off, so the frame dissipates unheard (the MAC's own
      // down flag backstops this, but filtering here keeps the metric
      // honest — same accounting the Network's hook used to do). Only
      // intact frames reach the MAC, and of the ACKs only those
      // addressed to the receiver: an ACK for another node, counted
      // above like any reception, would only be discarded there. A
      // delivery hook still sees every reception with its status.
      if (!sink_alive_[r]) {
        ctx.rx_dead.add(*ctx.metrics);
      } else if (status == ReceptionStatus::kOk &&
                 (frame.type != kMacAck || frame.dst == r)) {
        if (shard_of_ != nullptr) {
          // Under the serialized gate a foreign receiver's clock may
          // lag this event; catch it up so anything the reception
          // schedules (the SIFS ACK above all) lands relative to the
          // true current time. Safe: gate order is the canonical global
          // order, so no pending event of that shard precedes `now`.
          ctxs_[shard_of_[r]].sched->advance_to(now);
        }
        sink_macs_[r]->handle_reception(frame, seen[k]);
      }
    } else if (delivery_) {
      delivery_(r, frame, status);
    }
  }
}

}  // namespace icpda::net
