#include "analysis/trace_report.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace icpda::analysis {

using sim::TraceCounter;
using sim::TraceEvent;
using sim::TracePhase;

void PhaseStat::merge(const PhaseStat& o) {
  tx_bytes += o.tx_bytes;
  rx_bytes += o.rx_bytes;
  collision_bytes += o.collision_bytes;
  loss_bytes += o.loss_bytes;
  drop_bytes += o.drop_bytes;
  backoff_slots += o.backoff_slots;
  spans += o.spans;
  busy_s += o.busy_s;
}

std::uint64_t TraceReport::epoch_tx_bytes(std::uint16_t epoch) const {
  const auto it = per_epoch.find(epoch);
  if (it == per_epoch.end()) return 0;
  std::uint64_t total = 0;
  for (const PhaseStat& s : it->second) total += s.tx_bytes;
  return total;
}

namespace {

struct OpenSpan {
  TracePhase phase;
  double begin_t;
};

void add_counter(PhaseStat& stat, TraceCounter c, std::uint64_t value) {
  switch (c) {
    case TraceCounter::kTxBytes: stat.tx_bytes += value; break;
    case TraceCounter::kRxBytes: stat.rx_bytes += value; break;
    case TraceCounter::kCollisionBytes: stat.collision_bytes += value; break;
    case TraceCounter::kLossBytes: stat.loss_bytes += value; break;
    case TraceCounter::kBackoffSlots: stat.backoff_slots += value; break;
    case TraceCounter::kDropBytes: stat.drop_bytes += value; break;
    case TraceCounter::kReroute:
    case TraceCounter::kBackupReport:
    case TraceCounter::kAdversaryAction:
    case TraceCounter::kAdversaryDetect:
    case TraceCounter::kQueryLaunch:
    case TraceCounter::kQueryComplete:
    case TraceCounter::kQueryDrop:
    case TraceCounter::kMaxCounter:
      break;  // occurrence counters: no byte bucket
  }
}

}  // namespace

TraceReport fold_trace(const std::vector<TraceEvent>& events) {
  TraceReport report;
  std::map<std::uint32_t, std::vector<OpenSpan>> stacks;
  for (const TraceEvent& ev : events) {
    ++report.events;
    auto& epoch_row = report.per_epoch[ev.epoch];
    auto& node_row = report.per_node[ev.node];
    auto& stack = stacks[ev.node];
    switch (ev.kind) {
      case TraceEvent::Kind::kBegin:
        stack.push_back(OpenSpan{static_cast<TracePhase>(ev.tag), ev.t});
        break;
      case TraceEvent::Kind::kEnd: {
        const auto phase = static_cast<TracePhase>(ev.tag);
        if (stack.empty() || stack.back().phase != phase) {
          // The matching begin was overwritten by ring wrap (or the
          // excerpt was truncated): count it, don't guess.
          ++report.unmatched_ends;
          break;
        }
        const std::size_t idx = static_cast<std::size_t>(ev.tag);
        const double dur = ev.t - stack.back().begin_t;
        epoch_row[idx].spans += 1;
        epoch_row[idx].busy_s += dur;
        node_row[idx].spans += 1;
        node_row[idx].busy_s += dur;
        stack.pop_back();
        break;
      }
      case TraceEvent::Kind::kCounter: {
        const TracePhase phase =
            stack.empty() ? TracePhase::kNone : stack.back().phase;
        const std::size_t idx = static_cast<std::size_t>(phase);
        add_counter(epoch_row[idx], static_cast<TraceCounter>(ev.tag), ev.value);
        add_counter(node_row[idx], static_cast<TraceCounter>(ev.tag), ev.value);
        break;
      }
      case TraceEvent::Kind::kMarker:
        break;  // epoch boundary: the epoch field already partitions
    }
  }
  return report;
}

std::uint64_t trace_digest(const std::vector<TraceEvent>& events) {
  // FNV-1a-64 over every field, doubles by bit pattern: any decimal
  // formatting here would make the digest depend on printf rounding.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const TraceEvent& ev : events) {
    mix(std::bit_cast<std::uint64_t>(ev.t));
    mix(ev.seq);
    mix(ev.value);
    mix(ev.node);
    mix(static_cast<std::uint64_t>(ev.kind));
    mix(ev.tag);
    mix(ev.epoch);
  }
  return h;
}

std::uint64_t canonical_trace_digest(const std::vector<TraceEvent>& events) {
  // Per-node FNV-1a-64 folds (seq excluded), combined ascending by
  // node id. map keeps the combine order independent of the order
  // nodes first appear in the stream.
  std::map<std::uint32_t, std::uint64_t> per_node;
  for (const TraceEvent& ev : events) {
    auto [it, inserted] = per_node.try_emplace(ev.node, 1469598103934665603ULL);
    std::uint64_t& h = it->second;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
      }
    };
    mix(std::bit_cast<std::uint64_t>(ev.t));
    mix(ev.value);
    mix(static_cast<std::uint64_t>(ev.kind));
    mix(ev.tag);
    mix(ev.epoch);
  }
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [node, fold] : per_node) {
    mix(node);
    mix(fold);
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

std::optional<std::size_t> first_divergence(const std::vector<TraceEvent>& a,
                                            const std::vector<TraceEvent>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) return i;
  }
  if (a.size() != b.size()) return n;
  return std::nullopt;
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

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  // Durations in chrome://tracing are microseconds.
  std::string out = "[";
  bool first = true;
  char buf[256];
  for (const TraceEvent& ev : events) {
    const double ts_us = ev.t * 1e6;
    const std::uint32_t tid = ev.node;
    switch (ev.kind) {
      case TraceEvent::Kind::kBegin:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":0,"
                      "\"tid\":%" PRIu32 "}",
                      sim::trace_phase_name(static_cast<TracePhase>(ev.tag)),
                      ts_us, tid);
        break;
      case TraceEvent::Kind::kEnd:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":0,"
                      "\"tid\":%" PRIu32 ",\"args\":{\"reason\":%" PRIu64 "}}",
                      sim::trace_phase_name(static_cast<TracePhase>(ev.tag)),
                      ts_us, tid, ev.value);
        break;
      case TraceEvent::Kind::kCounter:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0,"
                      "\"tid\":%" PRIu32 ",\"args\":{\"value\":%" PRIu64 "}}",
                      sim::trace_counter_name(static_cast<TraceCounter>(ev.tag)),
                      ts_us, tid, ev.value);
        break;
      case TraceEvent::Kind::kMarker:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"epoch_%" PRIu64 "\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":0,\"tid\":%" PRIu32 ",\"s\":\"g\"}",
                      ev.value, ts_us, tid);
        break;
    }
    if (!first) out += ',';
    first = false;
    out += buf;
  }
  out += "]";
  return out;
}

void write_trace_jsonl(const std::vector<TraceEvent>& events,
                       runner::JsonlSink& sink) {
  for (const TraceEvent& ev : events) {
    runner::JsonRow row;
    row.num("seq", ev.seq)
        .num("t", ev.t, 9)
        .num("t_bits", std::bit_cast<std::uint64_t>(ev.t))
        .str("kind", sim::trace_kind_name(ev.kind))
        .num("node", static_cast<std::uint64_t>(ev.node))
        .num("tag", static_cast<std::uint64_t>(ev.tag))
        .num("value", ev.value)
        .num("epoch", static_cast<std::uint64_t>(ev.epoch));
    sink.write(row);
  }
}

namespace {

/// Minimal field extractor for the flat, non-nested rows this module
/// itself writes. Returns the raw token after `"key":`.
std::string extract_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    throw std::runtime_error("trace jsonl: missing key '" + key + "'");
  }
  std::size_t start = pos + needle.size();
  while (start < line.size() && line[start] == ' ') ++start;
  std::size_t end = start;
  if (end < line.size() && line[end] == '"') {
    ++end;
    while (end < line.size() && line[end] != '"') ++end;
    return line.substr(start + 1, end - start - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

std::uint64_t extract_u64(const std::string& line, const std::string& key) {
  return std::strtoull(extract_field(line, key).c_str(), nullptr, 10);
}

}  // namespace

std::vector<TraceEvent> read_trace_jsonl(const std::string& text) {
  std::vector<TraceEvent> events;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    TraceEvent ev;
    ev.seq = extract_u64(line, "seq");
    ev.t = std::bit_cast<double>(extract_u64(line, "t_bits"));
    const std::string kind = extract_field(line, "kind");
    if (kind == "B") {
      ev.kind = TraceEvent::Kind::kBegin;
    } else if (kind == "E") {
      ev.kind = TraceEvent::Kind::kEnd;
    } else if (kind == "C") {
      ev.kind = TraceEvent::Kind::kCounter;
    } else if (kind == "M") {
      ev.kind = TraceEvent::Kind::kMarker;
    } else {
      throw std::runtime_error("trace jsonl: bad kind '" + kind + "'");
    }
    ev.node = static_cast<std::uint32_t>(extract_u64(line, "node"));
    ev.tag = static_cast<std::uint8_t>(extract_u64(line, "tag"));
    ev.value = extract_u64(line, "value");
    ev.epoch = static_cast<std::uint16_t>(extract_u64(line, "epoch"));
    events.push_back(ev);
  }
  return events;
}

std::string render_report(const TraceReport& report) {
  std::string out;
  char buf[256];
  const auto emit_row = [&](const char* scope_key, std::uint64_t scope,
                            std::size_t phase_idx, const PhaseStat& s) {
    if (s.tx_bytes == 0 && s.rx_bytes == 0 && s.collision_bytes == 0 &&
        s.loss_bytes == 0 && s.drop_bytes == 0 && s.backoff_slots == 0 &&
        s.spans == 0) {
      return;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s=%-6" PRIu64 " %-17s tx=%-8" PRIu64 " rx=%-8" PRIu64
                  " coll=%-7" PRIu64 " loss=%-7" PRIu64 " drop=%-7" PRIu64
                  " backoff=%-6" PRIu64 " spans=%-5" PRIu64 " busy=%.6fs\n",
                  scope_key, scope,
                  sim::trace_phase_name(static_cast<TracePhase>(phase_idx)),
                  s.tx_bytes, s.rx_bytes, s.collision_bytes, s.loss_bytes,
                  s.drop_bytes, s.backoff_slots, s.spans, s.busy_s);
    out += buf;
  };
  out += "== per-epoch phase totals ==\n";
  for (const auto& [epoch, row] : report.per_epoch) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) emit_row("epoch", epoch, p, row[p]);
  }
  out += "== per-node phase totals ==\n";
  for (const auto& [node, row] : report.per_node) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      emit_row("node", node == sim::kTraceGlobalNode ? 9999999 : node, p, row[p]);
    }
  }
  std::snprintf(buf, sizeof(buf), "events=%" PRIu64 " unmatched_ends=%" PRIu64 "\n",
                report.events, report.unmatched_ends);
  out += buf;
  return out;
}

}  // namespace icpda::analysis
