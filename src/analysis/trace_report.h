// Trace folding and digesting.
//
// The Tracer (sim/trace.h) records raw events; what turns them into
// something a bench or a test can consume lives here:
//   * fold_trace     — per-epoch / per-phase tx-byte accounting,
//   * trace_digest   — an order- and bit-exact FNV-1a fingerprint of a
//                      merged trace, the anchor of the golden tests,
//   * canonical_trace_digest — the per-node, engine-independent form,
//   * format_trace_event / trace_excerpt — human-readable excerpts.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace icpda::analysis {

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(sim::TracePhase::kMaxPhase);

/// A folded trace: the merged event stream reduced to tx bytes per
/// epoch and phase.
struct TraceReport {
  /// Per-epoch kTxBytes totals across all nodes, indexed by TracePhase.
  std::map<std::uint16_t, std::array<std::uint64_t, kPhaseCount>> tx_bytes;
  std::uint64_t events = 0;
  std::uint64_t unmatched_ends = 0;  ///< ends with no live begin (ring wrap)

  /// Sum of kTxBytes over every phase of `epoch` (kNone included), i.e.
  /// the traced share of channel.tx_bytes for that epoch.
  [[nodiscard]] std::uint64_t epoch_tx_bytes(std::uint16_t epoch) const;
};

/// Replay a merged (seq-ordered) event stream into per-phase tables.
/// Counters are attributed to the owning node's innermost open span at
/// their position in the stream; counters outside any span land in
/// TracePhase::kNone.
[[nodiscard]] TraceReport fold_trace(const std::vector<sim::TraceEvent>& events);

/// Order- and bit-exact FNV-1a-64 over every event field (doubles by
/// bit pattern, never by decimal formatting).
[[nodiscard]] std::uint64_t trace_digest(const std::vector<sim::TraceEvent>& events);

/// Engine-independent fingerprint: the stream is split into per-node
/// subsequences, each hashed in order with `seq` excluded, and the
/// per-node hashes are combined in ascending node id. A node's own
/// event subsequence is a pure function of (configuration, seed)
/// regardless of how the run was executed, while the cross-node
/// interleaving of same-instant events and the seq numbering are
/// artifacts of the engine (single-heap FIFO vs per-shard rings) —
/// this digest sees the former and not the latter, so it must agree
/// across --shards values.
[[nodiscard]] std::uint64_t canonical_trace_digest(
    const std::vector<sim::TraceEvent>& events);

/// One event as a stable single line, e.g.
/// `seq=12 t=1.234567890 ep=0 node=7 B share_exchange v=0`.
[[nodiscard]] std::string format_trace_event(const sim::TraceEvent& ev);

/// The first `max_events` events, one format_trace_event line each.
[[nodiscard]] std::string trace_excerpt(const std::vector<sim::TraceEvent>& events,
                                        std::size_t max_events);

}  // namespace icpda::analysis
