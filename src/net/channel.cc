#include "net/channel.h"

#include <algorithm>
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
      air_(topo.size(), Air{sim::SimTime::zero(), sim::SimTime::zero(), kNoClean, 0}),
      link_flags_(topo.link_count(), 0),
      flood_held_(topo.size(), 0),
      link_seen_(topo.link_count(), 0) {
  static_assert(sizeof(Air) == 24);
  if (topo.link_count() >= kNoClean / 2) {
    throw std::invalid_argument("Channel: too many links");
  }
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
  const Air& a = air_[node];
  return std::max(a.tx_until, a.rx_until) > ctx_of(node).sched->now();
}

std::uint16_t Channel::open_flood(NodeId node) {
  ShardCtx& ctx = ctx_of(node);
  const auto shard = static_cast<std::uint32_t>(&ctx - ctxs_.data());
  const std::uint64_t index =
      shard + std::uint64_t{ctxs_.size()} * ctx.floods_opened;
  if (index >= 0xFFFF) return 0;  // tag space spent: floods go untagged
  ++ctx.floods_opened;
  return static_cast<std::uint16_t>(index + 1);
}

void Channel::hold_flood(NodeId node, std::uint16_t tag) {
  const std::uint32_t bit = tag - 1u - flood_base_;
  if (tag != 0 && bit < 64) flood_held_[node] |= std::uint64_t{1} << bit;
}

void Channel::new_flood_window() {
  // Align every shard's counter past the highest tag any shard issued,
  // so the window's 64 bits cover the next tags of every shard and no
  // tag is ever issued twice.
  std::uint32_t opened = 0;
  for (const ShardCtx& ctx : ctxs_) opened = std::max(opened, ctx.floods_opened);
  for (ShardCtx& ctx : ctxs_) ctx.floods_opened = opened;
  flood_base_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::uint64_t{ctxs_.size()} * opened, 0xFFFF));
  std::fill(flood_held_.begin(), flood_held_.end(), 0);
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
  if (ctx.delivering) {
    // The pass is reading one of this shard's in-flight slots, which a
    // pool growth below would move.
    throw std::logic_error("Channel::transmit: called from inside a delivery pass");
  }
  const sim::SimTime now = ctx.sched->now();
  Air& self = air_[sender];
  // Take a slot of the sender's link bytes that no undelivered frame
  // of it holds: slot 0 if free, else slot 1.
  const auto slot = static_cast<std::uint8_t>(self.pending & 1U);
  if (((self.pending >> slot) & 1U) != 0) {
    throw std::logic_error(
        "Channel::transmit: sender's frame before last not yet delivered");
  }
  const sim::SimTime dur = airtime(frame);
  const sim::SimTime end = now + dur;
  const sim::SimTime arrive = end + sim::SimTime{config_.propagation_delay_s};

  ctx.tx_frames.add(*ctx.metrics);
  ctx.tx_bytes.add(*ctx.metrics, frame.air_bytes());
  if (tracer_ && tracer_->enabled()) {
    // Same value as the channel.tx_bytes metric, attributed to the
    // sender's current protocol phase — conservation by construction.
    tracer_->counter(sender, sim::TraceCounter::kTxBytes, frame.air_bytes(), now);
  }

  self.tx_until = std::max(self.tx_until, end);

  // Taps see the caller's frame directly at start-of-frame.
  for (const auto& tap : taps_) tap(sender, frame);

  // Register the reception at every in-range node and detect overlap.
  const auto receivers = topo_.neighbors(sender);
  const auto first = static_cast<std::uint32_t>(topo_.first_link(sender));
  const auto shift = static_cast<std::uint8_t>(2 * slot);
  for (std::size_t k = 0; k < receivers.size(); ++k) {
    Air& a = air_[receivers[k]];
    const std::uint32_t link = first + static_cast<std::uint32_t>(k);
    // Half-duplex: a receiver mid-transmission cannot decode.
    std::uint8_t flags = a.tx_until > now ? kRxWhileTx : 0;
    if (a.rx_until > now) {
      // Temporal overlap with a frame still on the air corrupts both
      // at this receiver (no capture effect). Every other frame on the
      // air there is corrupted already; only the clean one changes.
      if (a.clean != kNoClean) {
        link_flags_[a.clean >> 1] |= static_cast<std::uint8_t>(kCorrupted << 2 * (a.clean & 1));
      }
      a.clean = kNoClean;
      flags |= kCorrupted;
    } else {
      a.clean = link << 1 | slot;
    }
    std::uint8_t& byte = link_flags_[link];
    byte = static_cast<std::uint8_t>((byte & ~(kSlotMask << shift)) | flags << shift);
    a.rx_until = std::max(a.rx_until, end);
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
  // (no allocation once pools warm up).
  if (!receivers.empty()) {
    std::uint32_t pool_slot;
    if (!ctx.free_inflight.empty()) {
      pool_slot = ctx.free_inflight.back();
      ctx.free_inflight.pop_back();
    } else {
      pool_slot = static_cast<std::uint32_t>(ctx.inflight.size());
      ctx.inflight.emplace_back();
    }
    ctx.inflight[pool_slot] = frame;  // payload buffer capacity is reused
    ShardCtx* cp = &ctx;         // ctxs_ never reallocates after wiring
    self.pending |= static_cast<std::uint8_t>(1U << slot);
    ctx.sched->at(
        arrive,
        [this, sender, pool_slot, cp, slot] {
          cp->delivering = true;
          deliver(sender, cp->inflight[pool_slot], slot, *cp);
          cp->delivering = false;
          cp->free_inflight.push_back(pool_slot);
          air_[sender].pending &= static_cast<std::uint8_t>(~(1U << slot));
        },
        sender, border);
  }

  // Notify the sender's MAC when the air is clear again. With no
  // callback (ACKs, taps) there is nothing to notify: the former no-op
  // event drew no RNG and touched no trace counter, so eliding it is
  // observationally invisible — the relative EventKey order of every
  // remaining event is unchanged. Never a border event: the callback
  // acts on the sender's own MAC only.
  if (on_tx_done) ctx.sched->at(end, std::move(on_tx_done), sender);
}

void Channel::deliver(NodeId sender, const Frame& frame, std::uint8_t slot,
                      ShardCtx& ctx) {
  const sim::SimTime now = ctx.sched->now();
  const bool traced = tracer_ && tracer_->enabled() && tracer_->config().rx_events;
  const auto receivers = topo_.neighbors(sender);
  // The receivers' dedup slots for links from `sender`, in the same
  // CSR order. Only this pass writes them, and it runs on the sender's
  // shard drain (an interior sender's neighbours share its shard) or in
  // the serialized gate (a border sender), so shards never race on one.
  // The same argument covers the link flag bytes read here: besides
  // the sender, only the receiver's other neighbours write them (when
  // their frame corrupts this one), and an interior neighbour of an
  // interior receiver drains on this same shard.
  std::uint32_t* const seen = link_seen_.data() + topo_.first_link(sender);
  const std::uint8_t* const flags = link_flags_.data() + topo_.first_link(sender);
  for (std::size_t k = 0; k < receivers.size(); ++k) {
    const NodeId r = receivers[k];
    const unsigned f = flags[k] >> 2 * slot;
    ReceptionStatus status =
        (f & kCorrupted) != 0 ? ReceptionStatus::kCollided : ReceptionStatus::kOk;
    if ((f & kRxWhileTx) != 0 || transmitting_at(r, now)) {
      status = ReceptionStatus::kHalfDuplex;
    }
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
      // above like any reception, would only be discarded there. Nor
      // does a copy of a flood the receiver holds: its MAC would pass
      // the broadcast straight up, and its app would drop it unread. A
      // delivery hook still sees every reception with its status.
      if (!sink_alive_[r]) {
        ctx.rx_dead.add(*ctx.metrics);
      } else if (status == ReceptionStatus::kOk &&
                 (frame.type != kMacAck || frame.dst == r) &&
                 !holds_flood(r, frame)) {
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
