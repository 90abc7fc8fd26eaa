// Trace folding, digesting and export.
//
// The Tracer (sim/trace.h) records raw events; everything that turns
// them into something a human or a test can consume lives here:
//   * fold_trace     — per-epoch / per-phase / per-node accounting
//                      (byte totals, span counts, busy time),
//   * trace_digest   — an order- and bit-exact FNV-1a fingerprint of a
//                      merged trace, the anchor of the golden tests,
//   * format_trace_event / first_divergence — human-readable excerpts
//                      and the "first event that differs" diagnostic,
//   * chrome_trace_json — the Chrome about:tracing / Perfetto format,
//   * write_trace_jsonl / read_trace_jsonl — the campaign JSONL event
//     schema, exact round-trip via bit-pattern timestamps.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/jsonl.h"
#include "sim/trace.h"

namespace icpda::analysis {

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(sim::TracePhase::kMaxPhase);

/// Accumulated totals for one (epoch|node, phase) bucket.
struct PhaseStat {
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t collision_bytes = 0;
  std::uint64_t loss_bytes = 0;
  std::uint64_t drop_bytes = 0;
  std::uint64_t backoff_slots = 0;
  std::uint64_t spans = 0;  ///< completed spans (begin..end pairs)
  double busy_s = 0.0;      ///< summed span durations

  void merge(const PhaseStat& o);
};

/// A folded trace: the merged event stream reduced to tables.
struct TraceReport {
  /// Per-epoch totals across all nodes, indexed by TracePhase.
  std::map<std::uint16_t, std::array<PhaseStat, kPhaseCount>> per_epoch;
  /// Per-node totals across all epochs, indexed by TracePhase.
  std::map<std::uint32_t, std::array<PhaseStat, kPhaseCount>> per_node;
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

/// Index of the first position where the two streams differ (field-wise
/// or one ends early); nullopt when identical.
[[nodiscard]] std::optional<std::size_t> first_divergence(
    const std::vector<sim::TraceEvent>& a, const std::vector<sim::TraceEvent>& b);

/// The first `max_events` events, one format_trace_event line each.
[[nodiscard]] std::string trace_excerpt(const std::vector<sim::TraceEvent>& events,
                                        std::size_t max_events);

/// Chrome trace_event JSON (the array form): load in about:tracing or
/// Perfetto. Spans become B/E duration events (tid = node), counters
/// become C events, markers become instants.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<sim::TraceEvent>& events);

/// One JSONL row per event through the campaign sink. Timestamps ride
/// twice: `t` human-readable and `t_bits` as the exact IEEE-754 bit
/// pattern, so read_trace_jsonl reconstructs events bit-identically.
void write_trace_jsonl(const std::vector<sim::TraceEvent>& events,
                       runner::JsonlSink& sink);

/// Parse the write_trace_jsonl format back (comment lines skipped).
/// Throws std::runtime_error on malformed rows.
[[nodiscard]] std::vector<sim::TraceEvent> read_trace_jsonl(const std::string& text);

/// The per-phase/per-node table the trace_report CLI prints.
[[nodiscard]] std::string render_report(const TraceReport& report);

}  // namespace icpda::analysis
