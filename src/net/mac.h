// CSMA/CA-lite medium access control.
//
// One Mac instance per node. Upper layers enqueue frames; the MAC
// carrier-senses, backs off with binary-exponential contention windows,
// transmits, and for unicast frames waits for a link-level ACK and
// retransmits a bounded number of times. Broadcast frames are sent once
// after a mandatory desynchronising backoff (floods would otherwise
// collide en masse — exactly the behaviour the paper's loss numbers
// come from, so we keep it physical rather than idealised).
#pragma once

#include <cstdint>

#include "net/channel.h"
#include "net/frame_queue.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace icpda::net {

class Node;

/// The contention parameters are fixed (`static constexpr`, read like
/// fields); only the queue bound is set per network.
struct MacConfig {
  /// Contention slot. Deliberately on the order of a frame airtime
  /// (~0.6 ms at 1 Mbps for a typical protocol frame): with slots much
  /// shorter than a frame, two stations picking nearby slots still
  /// overlap and backoff stops resolving contention.
  static constexpr double slot_time_s = 400e-6;
  static constexpr double sifs_s = 10e-6;          ///< gap before an ACK
  static constexpr std::uint32_t cw_min = 32;      ///< initial contention window (slots)
  static constexpr std::uint32_t cw_max = 1024;    ///< max contention window
  static constexpr std::uint32_t max_retries = 7;  ///< unicast retransmissions before giving up
  static constexpr double ack_timeout_s = 1.2e-3;  ///< unicast ACK wait
  std::size_t queue_limit = 256;                   ///< tail-drop beyond this depth
};

class Mac {
 public:
  Mac(NodeId self, Channel& channel, sim::Scheduler& sched, sim::Rng rng,
      sim::MetricRegistry& metrics, MacConfig config);

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  /// Upper-layer sink (Network::wire): intact frames addressed to this
  /// node or broadcast go to Node::dispatch_receive, intact frames
  /// addressed elsewhere to dispatch_overhear, and frames the MAC gives
  /// up on (retries exhausted, queue overflow, purge) to
  /// dispatch_send_failed. Without a sink those upcalls are dropped.
  void set_sink(Node* node) { sink_ = node; }

  /// Attach a tracer: backoff draws record kBackoffSlots and every
  /// frame the MAC gives up on (queue overflow, retry exhaustion,
  /// radio-off send, purge) records kDropBytes.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }

  /// Sharded engine: this node sits on a shard boundary, so its backoff
  /// attempts and ACK sends — events whose transmissions reach foreign
  /// shards — are border-tagged for the serialized gate. The ACK
  /// *timer* stays interior: it only mutates this MAC (a retry attempt
  /// it triggers is a fresh, properly tagged backoff event).
  void set_border(bool border) { border_ = border; }

  /// Enqueue a frame for transmission. The MAC stamps the sequence
  /// number and source address.
  void send(Frame frame);

  /// Fault injection: the node's radio died. Flushes every queued
  /// frame (without a send-failed upcall — the application is dead
  /// too), cancels the ACK timer and freezes the MAC; subsequent
  /// send()s are discarded until power_on(). A frame already on the
  /// air completes physically (receivers may still decode it) but is
  /// not retried.
  void power_off();

  /// Fault injection: the node rebooted. The MAC comes back idle with
  /// an empty queue and fresh contention state.
  void power_on();

  /// Fail every *queued* unicast frame addressed to `dst` immediately
  /// (one send-failed upcall per frame), without burning a retry
  /// ladder on each. Upper layers call this once they learn a
  /// neighbour is dead: a FIFO queue would otherwise serialise full
  /// ACK-retry ladders for every doomed frame, head-of-line-blocking
  /// live traffic for seconds. A frame already in service completes
  /// its ladder (its failure is the evidence the caller acted on).
  void fail_queued_to(NodeId dst);

  /// Channel entry point for an intact reception (the Channel filters
  /// out damaged frames and ACKs addressed to other nodes).
  /// `last_seen` is the dedup slot of the link frame.src -> this node:
  /// the highest data-frame sequence taken from that sender, 0 = none
  /// (valid because send() stamps sequences from 1).
  void handle_reception(const Frame& frame, std::uint32_t& last_seen);

  /// Heap bytes held by this MAC beyond sizeof(Mac): queued frames and
  /// their payloads, and the ACK frame's payload buffer.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  enum class State : std::uint8_t { kIdle, kDeferring, kTransmitting, kAwaitingAck };

  NodeId self_;
  Channel& channel_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  sim::MetricRegistry& metrics_;
  MacConfig config_;
  sim::Tracer* tracer_ = nullptr;
  Node* sink_ = nullptr;
  bool border_ = false;

  void trace_drop(const Frame& frame);

  /// Pre-bound handles for the per-frame counters (the rare paths —
  /// drops, purges, malformed ACKs — stay on the string-keyed add()).
  sim::MetricRegistry::Cell enqueued_{"mac.enqueued"};
  sim::MetricRegistry::Cell tx_attempts_{"mac.tx_attempts"};
  sim::MetricRegistry::Cell tx_ok_{"mac.tx_ok"};
  sim::MetricRegistry::Cell ack_sent_{"mac.ack_sent"};
  sim::MetricRegistry::Cell ack_received_{"mac.ack_received"};
  sim::MetricRegistry::Cell dup_suppressed_{"mac.duplicate_suppressed"};
  sim::MetricRegistry::Cell cs_busy_{"mac.cs_busy"};
  sim::MetricRegistry::Cell ack_timeout_count_{"mac.ack_timeout"};

  FrameQueue queue_;
  State state_ = State::kIdle;
  bool down_ = false;
  std::uint32_t retries_ = 0;
  std::uint32_t cw_ = 0;
  std::uint32_t next_seq_ = 1;
  sim::EventId ack_timer_{~0ULL};
  bool ack_timer_armed_ = false;
  /// Every ACK this MAC sends is written here (see send_ack).
  Frame ack_;

  void try_start();
  void defer();
  void begin_transmission();
  void on_tx_done();
  void on_ack_timeout();
  void finish_current(bool success);
  /// ACK `dst`'s data frame `seq` after the SIFS.
  void send_ack(NodeId dst, std::uint32_t seq);
  [[nodiscard]] sim::SimTime random_backoff();
};

}  // namespace icpda::net
