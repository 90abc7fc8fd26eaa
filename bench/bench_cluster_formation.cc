// T2 [reconstructed] — cluster-size distribution vs the head
// probability pc: mean size (model: 1/pc), share of privacy-degraded
// clusters (size < 3) and lone heads.
#include "analysis/models.h"
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "T2: cluster formation vs pc (N=400)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kClusterFormation);
  c.sweep.axis("pc", {0.15, 0.2, 0.3, 0.4, 0.5});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    net::Network network(bench::paper_network(ctx, 400));
    core::IcpdaConfig cfg;
    cfg.pc = ctx.point.get("pc");
    const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    double total = 0;
    double clusters = 0;
    double lone = 0;
    double small = 0;
    for (const auto& [size, count] : out.cluster_sizes) {
      total += static_cast<double>(size) * count;
      clusters += count;
      if (size == 1) lone += count;
      if (size < 3) small += count;
    }
    if (clusters > 0) {
      ctx.metrics.observe("mean_size", total / clusters);
      ctx.metrics.observe("lone", lone / clusters);
      ctx.metrics.observe("small", small / clusters);
    }
    ctx.metrics.observe("unclustered", out.unclustered);
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto& m = s.metrics;
    const double pc = p.get("pc");
    row.num("pc", pc, 2)
        .num("mean_size", m.stat("mean_size").mean(), 2)
        .num("model_inv_pc", analysis::expected_cluster_size(pc), 2)
        .num("clusters", m.stat("mean_size").count())
        .num("lone_frac", m.stat("lone").mean(), 3)
        .num("small_frac", m.stat("small").mean(), 3)
        .num("unclustered", m.stat("unclustered").mean(), 1);
  };

  return runner::bench_main(c, argc, argv);
}
