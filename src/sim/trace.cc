#include "sim/trace.h"

#include <algorithm>

namespace icpda::sim {

const char* trace_phase_name(TracePhase p) {
  switch (p) {
    case TracePhase::kNone: return "none";
    case TracePhase::kClusterFormation: return "cluster_formation";
    case TracePhase::kShareExchange: return "share_exchange";
    case TracePhase::kHeadAggregation: return "head_aggregation";
    case TracePhase::kPeerMonitoring: return "peer_monitoring";
    case TracePhase::kReport: return "report";
    case TracePhase::kRecovery: return "recovery";
    case TracePhase::kMaxPhase: break;
  }
  return "invalid";
}

const char* trace_counter_name(TraceCounter c) {
  switch (c) {
    case TraceCounter::kTxBytes: return "tx_bytes";
    case TraceCounter::kRxBytes: return "rx_bytes";
    case TraceCounter::kCollisionBytes: return "collision_bytes";
    case TraceCounter::kLossBytes: return "loss_bytes";
    case TraceCounter::kBackoffSlots: return "backoff_slots";
    case TraceCounter::kDropBytes: return "drop_bytes";
    case TraceCounter::kReroute: return "reroute";
    case TraceCounter::kBackupReport: return "backup_report";
    case TraceCounter::kAdversaryAction: return "adversary_action";
    case TraceCounter::kAdversaryDetect: return "adversary_detect";
    case TraceCounter::kQueryLaunch: return "query_launch";
    case TraceCounter::kQueryComplete: return "query_complete";
    case TraceCounter::kQueryDrop: return "query_drop";
    case TraceCounter::kMaxCounter: break;
  }
  return "invalid";
}

const char* trace_kind_name(TraceEvent::Kind k) {
  switch (k) {
    case TraceEvent::Kind::kBegin: return "B";
    case TraceEvent::Kind::kEnd: return "E";
    case TraceEvent::Kind::kCounter: return "C";
    case TraceEvent::Kind::kMarker: return "M";
  }
  return "?";
}

void Tracer::enable(std::size_t node_count, Config config) {
  config_ = config;
  rings_.assign(node_count + 1, Ring{});
  for (Ring& ring : rings_) {
    ring.slots.resize(std::max<std::size_t>(1, config.capacity));
  }
  stacks_.assign(node_count, SpanStack{});
  next_seq_ = 0;
  dropped_ = 0;
  epoch_ = 0;
  enabled_ = true;
}

Tracer::Ring& Tracer::ring_for(std::uint32_t node) {
  const std::size_t last = rings_.size() - 1;
  return rings_[node < last ? node : last];
}

void Tracer::record(std::uint32_t node, TraceEvent ev) {
  Ring& ring = ring_for(node);
  // Sharded mode: per-ring counters. A ring has exactly one writer at
  // any moment (the node's home shard, or the serialized gate), so no
  // shared counter is ever touched from two shards concurrently.
  ev.seq = sharded_ ? ring.next_seq++ : next_seq_++;
  ev.epoch = epoch_;
  ring.slots[ring.head] = ev;
  ring.head = (ring.head + 1) % ring.slots.size();
  if (ring.count < ring.slots.size()) {
    ++ring.count;
  } else {
    // Overwrote the oldest event in this ring.
    if (sharded_) {
      ++ring.dropped;
    } else {
      ++dropped_;
    }
  }
}

std::uint64_t Tracer::recorded() const {
  if (!sharded_) return next_seq_;
  std::uint64_t total = next_seq_;
  for (const Ring& r : rings_) total += r.next_seq;
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = dropped_;
  for (const Ring& r : rings_) total += r.dropped;
  return total;
}

void Tracer::begin_span(std::uint32_t node, TracePhase phase, SimTime t,
                        std::uint64_t value) {
  if (!enabled()) return;
  if (node < stacks_.size()) {
    SpanStack& st = stacks_[node];
    if (st.depth == SpanStack::kDepth) {
      // Depth clamp: retire the deepest frame (with an end event) before
      // replacing it, so begins and ends stay balanced.
      record(node, TraceEvent{t.seconds(), 0, kSpanEndNormal, node,
                              TraceEvent::Kind::kEnd,
                              static_cast<std::uint8_t>(st.frames[st.depth - 1]), 0});
    } else {
      ++st.depth;
    }
    st.frames[st.depth - 1] = phase;
  }
  record(node, TraceEvent{t.seconds(), 0, value, node, TraceEvent::Kind::kBegin,
                          static_cast<std::uint8_t>(phase), 0});
}

void Tracer::end_span(std::uint32_t node, TracePhase phase, SimTime t,
                      std::uint64_t reason) {
  if (!enabled()) return;
  if (node < stacks_.size()) {
    SpanStack& st = stacks_[node];
    // Find the innermost matching frame; unwind (and emit ends for)
    // everything above it so begins and ends always balance.
    std::size_t match = st.depth;
    for (std::size_t i = st.depth; i-- > 0;) {
      if (st.frames[i] == phase) {
        match = i;
        break;
      }
    }
    if (match == st.depth) return;  // stray end: no matching begin
    while (st.depth > match) {
      --st.depth;
      record(node, TraceEvent{t.seconds(), 0, reason, node, TraceEvent::Kind::kEnd,
                              static_cast<std::uint8_t>(st.frames[st.depth]), 0});
    }
    return;
  }
  // Global pseudo-node: no span stack; the end is recorded as given.
  record(node, TraceEvent{t.seconds(), 0, reason, node, TraceEvent::Kind::kEnd,
                          static_cast<std::uint8_t>(phase), 0});
}

void Tracer::switch_phase(std::uint32_t node, TracePhase phase, SimTime t,
                          std::uint64_t value) {
  if (!enabled() || node >= stacks_.size()) return;
  if (current_phase(node) == phase) return;
  SpanStack& st = stacks_[node];
  while (st.depth > 0) {
    --st.depth;
    record(node, TraceEvent{t.seconds(), 0, kSpanEndNormal, node,
                            TraceEvent::Kind::kEnd,
                            static_cast<std::uint8_t>(st.frames[st.depth]), 0});
  }
  begin_span(node, phase, t, value);
}

void Tracer::counter(std::uint32_t node, TraceCounter c, std::uint64_t value,
                     SimTime t) {
  if (!enabled()) return;
  record(node, TraceEvent{t.seconds(), 0, value, node, TraceEvent::Kind::kCounter,
                          static_cast<std::uint8_t>(c), 0});
}

void Tracer::interrupt(std::uint32_t node, SimTime t) {
  if (!enabled() || node >= stacks_.size()) return;
  SpanStack& st = stacks_[node];
  while (st.depth > 0) {
    --st.depth;
    record(node, TraceEvent{t.seconds(), 0, kSpanEndInterrupted, node,
                            TraceEvent::Kind::kEnd,
                            static_cast<std::uint8_t>(st.frames[st.depth]), 0});
  }
}

void Tracer::finalize_epoch(SimTime t) {
  if (!enabled()) return;
  for (std::uint32_t node = 0; node < stacks_.size(); ++node) {
    SpanStack& st = stacks_[node];
    while (st.depth > 0) {
      --st.depth;
      record(node, TraceEvent{t.seconds(), 0, kSpanEndFinalized, node,
                              TraceEvent::Kind::kEnd,
                              static_cast<std::uint8_t>(st.frames[st.depth]), 0});
    }
  }
  record(kTraceGlobalNode,
         TraceEvent{t.seconds(), 0, epoch_, kTraceGlobalNode,
                    TraceEvent::Kind::kMarker, 0, 0});
  ++epoch_;
}

TracePhase Tracer::current_phase(std::uint32_t node) const {
  if (!enabled() || node >= stacks_.size()) return TracePhase::kNone;
  const SpanStack& st = stacks_[node];
  return st.depth > 0 ? st.frames[st.depth - 1] : TracePhase::kNone;
}

std::vector<TraceEvent> Tracer::merged() const {
  std::vector<TraceEvent> out;
  if (rings_.empty()) return out;
  std::size_t total = 0;
  for (const Ring& r : rings_) total += r.count;
  out.reserve(total);
  for (const Ring& r : rings_) {
    const std::size_t cap = r.slots.size();
    const std::size_t start = (r.head + cap - r.count) % cap;
    for (std::size_t i = 0; i < r.count; ++i) {
      out.push_back(r.slots[(start + i) % cap]);
    }
  }
  // Per-ring slices are already seq-sorted; a global sort on the unique
  // seq restores the canonical interleaving. In sharded mode seqs are
  // per-ring (not unique), so the node id breaks ties — the result is
  // stable but the cross-node interleaving is no longer the execution
  // order; compare sharded traces per-node (canonical_trace_digest).
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.node < b.node;
  });
  return out;
}

}  // namespace icpda::sim
