// Structured event tracing: per-node ring buffers of typed events.
//
// The MetricRegistry answers "how much, over the whole run"; the Tracer
// answers "where inside the epoch did it go". Every event is a fixed
// 24-byte record written into a preallocated per-node ring buffer —
// zero heap allocation on the hot path, no locks (one simulation is one
// thread; campaign parallelism is across Networks, each with its own
// Tracer). A disabled tracer costs one predictable branch per call
// site, and the whole subsystem compiles to no-ops under
// -DICPDA_TRACE_DISABLED.
//
// Event model (see DESIGN.md §5e):
//  * span begin/end  — a node enters/leaves a protocol phase
//    (TracePhase). Spans on one node form a stack; the innermost open
//    span is the node's *current phase*, and counter events are
//    attributed to it at record time.
//  * counter         — a typed quantity (TraceCounter) with a value
//    (byte counts for tx/rx/drop events, slot counts for backoff).
//  * marker          — epoch boundaries written by the epoch driver.
//
// Determinism contract: recording is purely observational — it draws no
// randomness and schedules nothing, so an instrumented run is event-
// for-event identical to an uninstrumented one, and the trace itself is
// a deterministic function of (configuration, seed). A strictly
// monotone global sequence number stamps every event, so the merged
// trace has one canonical order and a stable digest. That is what makes
// golden-trace tests and --threads invariance checks possible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace icpda::sim {

#ifdef ICPDA_TRACE_DISABLED
inline constexpr bool kTraceCompiled = false;
#else
inline constexpr bool kTraceCompiled = true;
#endif

/// Protocol phase of a span. Phases mirror the per-phase accounting of
/// the iCPDA/iPDA papers: overhead is attributed to cluster formation
/// vs share exchange vs aggregation vs monitoring vs the up-tree
/// report, with the PR-1 recovery round as its own phase.
enum class TracePhase : std::uint8_t {
  kNone = 0,          ///< no open span (substrate traffic, TAG/SMART)
  kClusterFormation,  ///< iCPDA I: flood, join, roster
  kShareExchange,     ///< iCPDA II: encrypted shares + F announcements
  kHeadAggregation,   ///< iCPDA II/III: head solves, digests, merges
  kPeerMonitoring,    ///< iCPDA III: armed witness overhearing its head
  kReport,            ///< iCPDA III: up-tree report / forwarding duty
  kRecovery,          ///< PR-1: Phase II crash-recovery round
  kMaxPhase,          ///< sentinel: number of phases
};

/// Typed counter events. Values are byte counts unless noted.
enum class TraceCounter : std::uint8_t {
  kTxBytes = 0,     ///< frame put on the air (sender side, incl. ACKs)
  kRxBytes,         ///< frame decoded intact (receiver side)
  kCollisionBytes,  ///< frame corrupted by overlap at this receiver
  kLossBytes,       ///< frame lost to channel noise at this receiver
  kBackoffSlots,    ///< MAC backoff drawn (value = contention slots)
  kDropBytes,       ///< frame dropped: queue overflow / retries / radio off
  kReroute,         ///< Phase III parent failover (value = new parent)
  kBackupReport,    ///< backup reporter takeover (value = dead head)
  kAdversaryAction, ///< compromised node deviated (value = attack class)
  kAdversaryDetect, ///< hardening flagged an attack (value = accused id)
  kQueryLaunch,     ///< service dispatcher launched a query (value = query id)
  kQueryComplete,   ///< service query closed at the BS (value = query id)
  kQueryDrop,       ///< service admission dropped a query (value = query id)
  kMaxCounter,      ///< sentinel: number of counters
};

/// How a span ended; rides in the `value` field of end events.
enum : std::uint64_t {
  kSpanEndNormal = 0,       ///< explicit protocol transition
  kSpanEndInterrupted = 1,  ///< node crashed mid-phase (fault injection)
  kSpanEndFinalized = 2,    ///< epoch driver closed it at epoch end
};

/// The node id used for events with no single owner (epoch markers,
/// service query counters).
inline constexpr std::uint32_t kTraceGlobalNode = 0xFFFFFFFFu;

/// One trace record. Fixed-size POD; `seq` is the global record order.
struct TraceEvent {
  enum class Kind : std::uint8_t { kBegin = 0, kEnd, kCounter, kMarker };

  double t = 0.0;            ///< simulation time, seconds
  std::uint64_t seq = 0;     ///< global monotone sequence number
  std::uint64_t value = 0;   ///< counter value / span-end reason / marker arg
  std::uint32_t node = 0;    ///< owning node (kTraceGlobalNode for global)
  Kind kind = Kind::kCounter;
  std::uint8_t tag = 0;      ///< TracePhase for spans, TraceCounter for counters
  std::uint16_t epoch = 0;   ///< epoch index at record time

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

[[nodiscard]] const char* trace_phase_name(TracePhase p);
[[nodiscard]] const char* trace_counter_name(TraceCounter c);
[[nodiscard]] const char* trace_kind_name(TraceEvent::Kind k);

class Tracer {
 public:
  struct Config {
    /// Ring capacity per node, in events. When a ring fills, the OLDEST
    /// events are overwritten and `dropped()` counts them — truncation
    /// is explicit, never silent.
    std::size_t node_capacity = 4096;
    /// Ring capacity of the global pseudo-node (markers, query counters).
    std::size_t global_capacity = 4096;
    /// Record receiver-side channel events (kRxBytes, kCollisionBytes,
    /// kLossBytes). One event per in-range receiver per frame — the
    /// dominant volume in dense networks. Disable for sender-side byte
    /// accounting, where only kTxBytes must survive ring wrap.
    bool rx_events = true;
    /// Record MAC backoff draws (kBackoffSlots).
    bool mac_events = true;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Allocate rings for `node_count` nodes and start recording. All
  /// heap allocation happens here, none on the record path.
  void enable(std::size_t node_count, Config config);
  void enable(std::size_t node_count) { enable(node_count, Config{}); }

  /// Sharded recording mode (set by the Network when it runs the
  /// parallel engine): sequence numbers and drop counts become
  /// per-ring, so concurrent shards never touch a shared counter — a
  /// node's events are recorded only by its home shard (or inside the
  /// serialized gate), so each ring stays single-writer. Per-ring seq
  /// still orders one node's events totally; the cross-node
  /// interleaving is no longer meaningful, which is why sharded
  /// equivalence is judged on the per-node canonical digest
  /// (analysis::canonical_trace_digest) rather than merged() order.
  void set_sharded(bool sharded) { sharded_ = sharded; }
  [[nodiscard]] bool sharded() const { return sharded_; }

  [[nodiscard]] bool enabled() const { return kTraceCompiled && enabled_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const {
    return rings_.empty() ? 0 : rings_.size() - 1;
  }

  // ---- hot path -----------------------------------------------------
  // Every recorder is a no-op unless enabled(); callers may also guard
  // with enabled() themselves to skip argument computation.

  /// Open a phase span on `node` (pushes onto the node's span stack).
  /// `value` is free-form span metadata (e.g. the service layer's
  /// query id); protocol phases leave it zero.
  void begin_span(std::uint32_t node, TracePhase phase, SimTime t,
                  std::uint64_t value = 0);

  /// Close the innermost span matching `phase` (and any spans opened
  /// inside it — a phase transition implies its sub-work is over).
  /// A stray end with no matching begin is dropped.
  void end_span(std::uint32_t node, TracePhase phase, SimTime t,
                std::uint64_t reason = kSpanEndNormal);

  /// End the current phase (if any) and begin `phase`: the one-liner
  /// protocol code uses for sequential phase transitions. No-op if the
  /// node is already in `phase`. `value` tags the opened span (the
  /// service layer stamps the query id so per-query latency decomposes
  /// by phase); single-query runs leave it zero, keeping their digests
  /// unchanged.
  void switch_phase(std::uint32_t node, TracePhase phase, SimTime t,
                    std::uint64_t value = 0);

  /// Record a typed counter event, attributed to the node's current
  /// phase at record time.
  void counter(std::uint32_t node, TraceCounter c, std::uint64_t value, SimTime t);

  /// Fault injection: the node crashed — close every open span with
  /// kSpanEndInterrupted so traces balance even on crash paths.
  void interrupt(std::uint32_t node, SimTime t);

  /// Epoch driver: close every open span on every node (reason
  /// kSpanEndFinalized), write an epoch-end marker, and advance the
  /// epoch index stamped on subsequent events.
  void finalize_epoch(SimTime t);

  /// Current innermost phase of `node` (kNone when no span is open).
  [[nodiscard]] TracePhase current_phase(std::uint32_t node) const;

  // ---- inspection ---------------------------------------------------

  /// Events recorded (including any later overwritten by ring wrap).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Events lost to ring-buffer overwrite.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Epochs finalized so far.
  [[nodiscard]] std::uint16_t epoch() const { return epoch_; }

  /// All surviving events merged into the canonical global order
  /// (ascending seq). O(total events log node_count).
  [[nodiscard]] std::vector<TraceEvent> merged() const;

  /// Surviving events of one node ring, oldest first. `node` may be
  /// kTraceGlobalNode.
  [[nodiscard]] std::vector<TraceEvent> node_events(std::uint32_t node) const;

 private:
  struct Ring {
    std::vector<TraceEvent> slots;
    std::size_t head = 0;   ///< next write position
    std::size_t count = 0;  ///< live events (<= slots.size())
    /// Sharded mode only: per-ring sequence and overwrite counters, so
    /// concurrent shards share no mutable tracer state.
    std::uint64_t next_seq = 0;
    std::uint64_t dropped = 0;
  };

  /// Fixed-depth span stack; deeper nesting is clamped (deepest frame
  /// replaced) rather than heap-grown.
  struct SpanStack {
    static constexpr std::size_t kDepth = 8;
    TracePhase frames[kDepth] = {};
    std::size_t depth = 0;
  };

  void record(std::uint32_t node, TraceEvent ev);
  [[nodiscard]] Ring& ring_for(std::uint32_t node);
  [[nodiscard]] const Ring& ring_for(std::uint32_t node) const;

  bool enabled_ = false;
  Config config_;
  std::vector<Ring> rings_;       ///< index node id; last slot = global
  std::vector<SpanStack> stacks_; ///< per real node
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint16_t epoch_ = 0;
  bool sharded_ = false;
};

}  // namespace icpda::sim
