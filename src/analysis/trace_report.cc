#include "analysis/trace_report.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace icpda::analysis {

using sim::TraceCounter;
using sim::TraceEvent;
using sim::TracePhase;

std::uint64_t TraceReport::epoch_tx_bytes(std::uint16_t epoch) const {
  const auto it = tx_bytes.find(epoch);
  if (it == tx_bytes.end()) return 0;
  std::uint64_t total = 0;
  for (const std::uint64_t b : it->second) total += b;
  return total;
}

TraceReport fold_trace(const std::vector<TraceEvent>& events) {
  TraceReport report;
  std::map<std::uint32_t, std::vector<TracePhase>> stacks;
  for (const TraceEvent& ev : events) {
    ++report.events;
    auto& epoch_row = report.tx_bytes[ev.epoch];
    auto& stack = stacks[ev.node];
    switch (ev.kind) {
      case TraceEvent::Kind::kBegin:
        stack.push_back(static_cast<TracePhase>(ev.tag));
        break;
      case TraceEvent::Kind::kEnd:
        if (stack.empty() || stack.back() != static_cast<TracePhase>(ev.tag)) {
          // The matching begin was overwritten by ring wrap (or the
          // excerpt was truncated): count it, don't guess.
          ++report.unmatched_ends;
          break;
        }
        stack.pop_back();
        break;
      case TraceEvent::Kind::kCounter:
        if (static_cast<TraceCounter>(ev.tag) == TraceCounter::kTxBytes) {
          const TracePhase phase = stack.empty() ? TracePhase::kNone : stack.back();
          epoch_row[static_cast<std::size_t>(phase)] += ev.value;
        }
        break;
      case TraceEvent::Kind::kMarker:
        break;  // epoch boundary: the epoch field already partitions
    }
  }
  return report;
}

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// One FNV-1a-64 step over the eight bytes of `v`, low byte first.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

}  // namespace

std::uint64_t trace_digest(const std::vector<TraceEvent>& events) {
  // FNV-1a-64 over every field, doubles by bit pattern: any decimal
  // formatting here would make the digest depend on printf rounding.
  std::uint64_t h = kFnvBasis;
  for (const TraceEvent& ev : events) {
    fnv_mix(h, std::bit_cast<std::uint64_t>(ev.t));
    fnv_mix(h, ev.seq);
    fnv_mix(h, ev.value);
    fnv_mix(h, ev.node);
    fnv_mix(h, static_cast<std::uint64_t>(ev.kind));
    fnv_mix(h, ev.tag);
    fnv_mix(h, ev.epoch);
  }
  return h;
}

std::uint64_t canonical_trace_digest(const std::vector<TraceEvent>& events) {
  // Per-node FNV-1a-64 folds (seq excluded), combined ascending by
  // node id. map keeps the combine order independent of the order
  // nodes first appear in the stream.
  std::map<std::uint32_t, std::uint64_t> per_node;
  for (const TraceEvent& ev : events) {
    std::uint64_t& h = per_node.try_emplace(ev.node, kFnvBasis).first->second;
    fnv_mix(h, std::bit_cast<std::uint64_t>(ev.t));
    fnv_mix(h, ev.value);
    fnv_mix(h, static_cast<std::uint64_t>(ev.kind));
    fnv_mix(h, ev.tag);
    fnv_mix(h, ev.epoch);
  }
  std::uint64_t h = kFnvBasis;
  for (const auto& [node, fold] : per_node) {
    fnv_mix(h, node);
    fnv_mix(h, fold);
  }
  return h;
}

std::string format_trace_event(const TraceEvent& ev) {
  const char* tag_name = "epoch_mark";
  if (ev.kind == TraceEvent::Kind::kBegin || ev.kind == TraceEvent::Kind::kEnd) {
    tag_name = sim::trace_phase_name(static_cast<TracePhase>(ev.tag));
  } else if (ev.kind == TraceEvent::Kind::kCounter) {
    tag_name = sim::trace_counter_name(static_cast<TraceCounter>(ev.tag));
  }
  char node_buf[16];
  if (ev.node == sim::kTraceGlobalNode) {
    std::snprintf(node_buf, sizeof(node_buf), "global");
  } else {
    std::snprintf(node_buf, sizeof(node_buf), "%" PRIu32, ev.node);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "seq=%" PRIu64 " t=%.9f ep=%u node=%s %s %s v=%" PRIu64,
                ev.seq, ev.t, ev.epoch, node_buf, sim::trace_kind_name(ev.kind),
                tag_name, ev.value);
  return line;
}

std::string trace_excerpt(const std::vector<TraceEvent>& events,
                          std::size_t max_events) {
  std::string out;
  const std::size_t n = std::min(events.size(), max_events);
  for (std::size_t i = 0; i < n; ++i) {
    out += format_trace_event(events[i]);
    out += '\n';
  }
  return out;
}

}  // namespace icpda::analysis
