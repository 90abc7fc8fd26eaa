// T5/T6 [no paper counterpart] — what one iCPDA epoch costs at scale:
// per-subsystem heap bytes, process RSS, wall clock and the sharded
// engine's parallel fraction, at constant paper density (400 nodes
// per 400x400 m^2 field, 50 m range — the field side scales as
// 20*sqrt(N)).
//
//   ICPDA_N_AXIS=20000 bench_footprint --shards=8
//
// N comes from ICPDA_N_AXIS (default 20000), the shard count from
// --shards. Every point deploys seed 1, so a given (N, shards) always
// builds the same network and its byte counts, reporters and verdict
// are fixed. tools/mem_footprint.py gates bytes_per_node against
// tools/footprint_baseline.json, and tools/perf_vs_parent.sh
// footprint:<N>x<S> A/Bs epoch_s.
//
// Not one of ICPDA_CAMPAIGN_BENCHES: its rows carry wall-clock and
// RSS, so no two runs are byte-identical and the row-invariance gates
// do not apply.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"

namespace {

/// VmRSS / VmHWM in kB from /proc/self/status (0 if unavailable).
double proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double out = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      out = static_cast<double>(std::strtoull(line + key_len + 1, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "T6: memory footprint and epoch cost at constant density (seed 1)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kFootprint);
  c.sweep.axis("nodes", bench::size_axis({20000}));

  // Every quantity is observed, and rows report per-point means, so
  // --trials averages the timings and leaves the byte counts as they are.
  c.cell = [&keys](runner::CellContext& ctx) {
    const std::size_t n = ctx.point.count("nodes");
    net::NetworkConfig cfg = bench::paper_network(ctx, n, 1);
    const double side = 20.0 * std::sqrt(static_cast<double>(n));
    cfg.field_width_m = side;
    cfg.field_height_m = side;

    const auto t0 = std::chrono::steady_clock::now();
    net::Network network(cfg);
    const auto t_built = std::chrono::steady_clock::now();
    const core::IcpdaOutcome outcome = core::run_icpda_epoch(
        network, core::IcpdaConfig{}, proto::constant_reading(1.0), keys);
    const auto t_done = std::chrono::steady_clock::now();

    const net::Network::Footprint fp = network.footprint();
    auto& m = ctx.metrics;
    m.observe("shards", static_cast<double>(ctx.shards));
    m.observe("topology_bytes", static_cast<double>(fp.topology));
    m.observe("scheduler_bytes", static_cast<double>(fp.schedulers));
    m.observe("channel_bytes", static_cast<double>(fp.channel));
    m.observe("mac_bytes", static_cast<double>(fp.macs));
    m.observe("metrics_bytes", static_cast<double>(fp.metrics));
    m.observe("plan_bytes", static_cast<double>(fp.plan));
    m.observe("object_bytes", static_cast<double>(fp.objects));
    m.observe("rss_kb", proc_status_kb("VmRSS"));
    m.observe("hwm_kb", proc_status_kb("VmHWM"));
    m.observe("build_s", std::chrono::duration<double>(t_built - t0).count());
    m.observe("epoch_s", std::chrono::duration<double>(t_done - t_built).count());
    // A single-shard Network has no engine: every event ran serially.
    const net::ShardEngine* engine = network.shard_engine();
    m.observe("gate_events",
              engine ? static_cast<double>(engine->stats().gate_events) : 0.0);
    m.observe("parallel_events",
              engine ? static_cast<double>(engine->stats().parallel_events) : 0.0);
    m.observe("reporters", outcome.reporters);
    m.observe("accepted", outcome.accepted() ? 1.0 : 0.0);
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto mean = [&s](const char* key) { return s.metrics.stat(key).mean(); };
    const auto count = [&mean](const char* key) {
      return static_cast<std::uint64_t>(mean(key));
    };
    const double nodes = p.get("nodes");
    std::uint64_t total = 0;
    row.num("nodes", static_cast<std::uint64_t>(nodes)).num("shards", count("shards"));
    for (const char* key : {"topology_bytes", "scheduler_bytes", "channel_bytes", "mac_bytes",
                            "metrics_bytes", "plan_bytes", "object_bytes"}) {
      row.num(key, count(key));
      total += count(key);
    }
    const double gate = mean("gate_events"), parallel = mean("parallel_events");
    row.num("total_bytes", total)
        .num("bytes_per_node", static_cast<double>(total) / nodes, 1)
        .num("rss_kb", count("rss_kb"))
        .num("hwm_kb", count("hwm_kb"))
        .num("build_s", mean("build_s"), 3)
        .num("epoch_s", mean("epoch_s"), 3)
        .num("gate_events", count("gate_events"))
        .num("parallel_events", count("parallel_events"))
        .num("parallel_fraction", gate + parallel > 0 ? parallel / (gate + parallel) : 0.0, 4)
        .num("reporters", count("reporters"))
        .boolean("accepted", mean("accepted") == 1.0);
  };

  return runner::bench_main(c, argc, argv);
}
