#include "net/mac.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/node.h"
#include "net/wire.h"

namespace icpda::net {

Mac::Mac(NodeId self, Channel& channel, sim::Scheduler& sched, sim::Rng rng,
         sim::MetricRegistry& metrics, MacConfig config)
    : self_(self),
      channel_(channel),
      sched_(sched),
      rng_(rng),
      metrics_(metrics),
      config_(config),
      cw_(config.cw_min) {}

void Mac::power_off() {
  down_ = true;
  if (!queue_.empty()) metrics_.add("mac.flushed", queue_.size());
  queue_.clear();
  state_ = State::kIdle;
  retries_ = 0;
  cw_ = config_.cw_min;
  if (ack_timer_armed_) {
    sched_.cancel(ack_timer_);
    ack_timer_armed_ = false;
  }
}

void Mac::power_on() { down_ = false; }

void Mac::trace_drop(const Frame& frame) {
  if (tracer_ && tracer_->enabled()) {
    tracer_->counter(self_, sim::TraceCounter::kDropBytes, frame.air_bytes(),
                     sched_.now());
  }
}

void Mac::fail_queued_to(NodeId dst) {
  if (queue_.empty()) return;
  // The front frame is in service whenever the MAC is not idle; its
  // ladder is left to finish. Collect first, then notify: callbacks
  // re-enter send() and must see a consistent queue.
  std::vector<Frame> doomed;
  const std::size_t first = state_ == State::kIdle ? 0 : 1;
  for (std::size_t i = first; i < queue_.size();) {
    if (queue_[i].dst == dst) {
      doomed.push_back(std::move(queue_[i]));
      queue_.erase(i);
    } else {
      ++i;
    }
  }
  if (doomed.empty()) return;
  metrics_.add("mac.purged", doomed.size());
  for (const Frame& f : doomed) {
    trace_drop(f);
    if (sink_ != nullptr) sink_->dispatch_send_failed(f);
  }
}

void Mac::send(Frame frame) {
  if (down_) {
    metrics_.add("mac.down_drop");
    trace_drop(frame);
    return;
  }
  frame.src = self_;
  frame.seq = next_seq_++;
  if (queue_.size() >= config_.queue_limit) {
    metrics_.add("mac.queue_drop");
    trace_drop(frame);
    if (sink_ != nullptr) sink_->dispatch_send_failed(frame);
    return;
  }
  queue_.push_back(std::move(frame));
  enqueued_.add(metrics_);
  if (state_ == State::kIdle) try_start();
}

sim::SimTime Mac::random_backoff() {
  const std::uint64_t slots = rng_.below(cw_) + 1;
  if (tracer_ && tracer_->enabled() && tracer_->config().mac_events) {
    tracer_->counter(self_, sim::TraceCounter::kBackoffSlots, slots, sched_.now());
  }
  return sim::seconds(static_cast<double>(slots) * config_.slot_time_s);
}

void Mac::try_start() {
  if (queue_.empty()) {
    state_ = State::kIdle;
    return;
  }
  // Always take an initial backoff: it desynchronises flood responses,
  // which otherwise all fire on the same scheduler tick and collide.
  defer();
}

void Mac::defer() {
  state_ = State::kDeferring;
  const sim::SimTime wait = random_backoff();
  // Owner-tagged so canonical event order is engine-independent;
  // border-tagged on boundary nodes because the attempt transmits (and
  // a boundary node's frames reach foreign shards). The wait is always
  // >= one contention slot >= the engine lookahead, so the tag never
  // trips the lookahead contract.
  sched_.after(
      wait,
      [this] {
        if (state_ != State::kDeferring) return;
        if (channel_.busy_at(self_)) {
          cs_busy_.add(metrics_);
          cw_ = std::min(cw_ * 2, config_.cw_max);
          defer();
        } else {
          begin_transmission();
        }
      },
      self_, border_);
}

void Mac::begin_transmission() {
  state_ = State::kTransmitting;
  tx_attempts_.add(metrics_);
  channel_.transmit(self_, queue_.front(), [this] { on_tx_done(); });
}

void Mac::on_tx_done() {
  if (state_ != State::kTransmitting) return;
  const Frame& cur = queue_.front();
  if (cur.is_broadcast() || cur.type == kMacAck) {
    finish_current(true);
    return;
  }
  state_ = State::kAwaitingAck;
  ack_timer_ = sched_.after(
      sim::seconds(config_.ack_timeout_s),
      [this] {
        ack_timer_armed_ = false;
        on_ack_timeout();
      },
      self_);
  ack_timer_armed_ = true;
}

void Mac::on_ack_timeout() {
  if (state_ != State::kAwaitingAck) return;
  ack_timeout_count_.add(metrics_);
  ++retries_;
  if (retries_ > config_.max_retries) {
    finish_current(false);
    return;
  }
  cw_ = std::min(cw_ * 2, config_.cw_max);
  defer();
}

void Mac::finish_current(bool success) {
  Frame done = std::move(queue_.front());
  queue_.pop_front();
  state_ = State::kIdle;
  retries_ = 0;
  cw_ = config_.cw_min;
  if (ack_timer_armed_) {
    sched_.cancel(ack_timer_);
    ack_timer_armed_ = false;
  }
  if (success) {
    tx_ok_.add(metrics_);
  } else {
    metrics_.add("mac.tx_failed");
    trace_drop(done);
    if (sink_ != nullptr) sink_->dispatch_send_failed(done);
  }
  if (!queue_.empty()) try_start();
}

void Mac::send_ack(const Frame& data_frame) {
  WireWriter w;
  w.u32(data_frame.seq);
  Frame ack;
  ack.src = self_;
  ack.dst = data_frame.src;
  ack.seq = 0;  // ACKs are identified by the payload's echoed sequence.
  ack.type = kMacAck;
  ack.payload = std::move(w).take();
  // ACKs bypass contention: fire after a short inter-frame space, like
  // 802.11/802.15.4. They can still collide — that is physics. The SIFS
  // is shorter than the engine lookahead, which is exactly why a border
  // node's ACK send must be border-tagged — and why the delivery that
  // solicits it runs inside the gate (see Channel::transmit).
  sched_.after(
      sim::seconds(config_.sifs_s),
      [this, ack = std::move(ack)] {
        ack_sent_.add(metrics_);
        channel_.transmit(self_, ack, nullptr);
      },
      self_, border_);
}

void Mac::handle_reception(const Frame& frame, std::uint32_t& last_seen) {
  if (down_) return;  // radio off: cannot decode, cannot ACK

  if (frame.type == kMacAck) {
    if (state_ != State::kAwaitingAck || queue_.empty()) return;
    try {
      WireReader r(frame.payload);
      const std::uint32_t acked_seq = r.u32();
      if (acked_seq == queue_.front().seq && frame.src == queue_.front().dst) {
        ack_received_.add(metrics_);
        finish_current(true);
      }
    } catch (const WireError&) {
      metrics_.add("mac.malformed_ack");
    }
    return;
  }

  // Broadcasts are transmitted exactly once (no ACK, hence no
  // retransmission) and MAC sequence numbers are strictly monotone per
  // sender for the lifetime of the run (send() stamps src and seq;
  // power cycles reuse the Mac, so next_seq_ never resets), so a
  // broadcast can never repeat a previously seen sequence: skip the
  // per-link dedup-slot touch — a likely cache miss on the hottest
  // reception path (floods are broadcast).
  if (frame.is_broadcast()) {
    if (sink_ != nullptr) sink_->dispatch_receive(frame);
    return;
  }

  // Duplicate suppression (unicast): sequence numbers are monotone per
  // sender (one frame in flight at a time), so a repeat means the
  // sender missed our ACK and retransmitted. Re-ACK but do not
  // re-deliver.
  const bool duplicate = last_seen != 0 && frame.seq <= last_seen;
  if (!duplicate) last_seen = frame.seq;

  if (frame.dst == self_) {
    send_ack(frame);
    if (duplicate) {
      dup_suppressed_.add(metrics_);
      return;
    }
    if (sink_ != nullptr) sink_->dispatch_receive(frame);
  } else {
    // Addressed elsewhere: promiscuous overhearing path.
    if (duplicate) {
      dup_suppressed_.add(metrics_);
      return;
    }
    if (sink_ != nullptr) sink_->dispatch_overhear(frame);
  }
}

std::size_t Mac::footprint_bytes() const {
  return queue_.footprint_bytes();
}

}  // namespace icpda::net
