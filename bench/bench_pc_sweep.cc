// A1 (ablation) — the pc trade-off: head probability vs coverage,
// accuracy, bandwidth and privacy degradation. Small pc = big clusters
// (cheap, better privacy, more Phase II fragility); large pc = many
// tiny clusters (expensive, degraded privacy).
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "A1: pc sweep (N=400)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kPcSweep);
  c.sweep.axis("pc", {0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    net::Network network(bench::paper_network(ctx, 400));
    core::IcpdaConfig cfg;
    cfg.pc = ctx.point.get("pc");
    const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    auto& m = ctx.metrics;
    if (out.result) m.observe("accuracy", out.result->count / 399.0);
    m.observe("bytes", static_cast<double>(network.metrics().counter("channel.tx_bytes")));
    m.observe("degraded", out.degraded_privacy);
    m.observe("failed", out.clusters_failed);
    m.observe("unclustered", out.unclustered);
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto& m = s.metrics;
    row.num("pc", p.get("pc"), 2)
        .num("accuracy", m.stat("accuracy").mean(), 3)
        .num("bytes", m.stat("bytes").mean(), 0)
        .num("degraded_privacy_nodes", m.stat("degraded").mean(), 1)
        .num("failed_clusters", m.stat("failed").mean(), 1)
        .num("unclustered", m.stat("unclustered").mean(), 1);
  };

  return runner::bench_main(c, argc, argv);
}
