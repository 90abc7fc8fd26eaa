// F3 — COUNT-aggregation accuracy vs network size: collected count /
// true count, TAG vs iCPDA (the paper's accuracy figure: iCPDA tracks
// TAG closely once the network is dense enough for clustering).
//
// TAG and iCPDA run on the same deployment seed per cell (paired).
#include "baselines/tag.h"
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"
#include "sim/metrics.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "F3: COUNT accuracy vs network size";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kAccuracy);
  c.sweep.axis("n", {200, 300, 400, 500, 600});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    const std::size_t n = ctx.point.count("n");
    const double truth = static_cast<double>(n - 1);  // BS holds no reading
    {
      net::Network network(bench::paper_network(ctx, n));
      baselines::TagConfig cfg;
      const auto out = baselines::run_tag_epoch(network, cfg, proto::constant_reading(1.0));
      if (out.result) ctx.metrics.observe("tag_acc", out.result->count / truth);
    }
    {
      net::Network network(bench::paper_network(ctx, n));
      core::IcpdaConfig cfg;
      const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
      if (out.result) ctx.metrics.observe("icpda_acc", out.result->count / truth);
      ctx.metrics.observe("covered", static_cast<double>(out.heads + out.members) / truth);
      ctx.metrics.observe("failed", out.clusters_failed);
    }
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto& m = s.metrics;
    row.num("n", static_cast<std::uint64_t>(p.count("n")))
        .num("tag_accuracy", m.stat("tag_acc").mean(), 3)
        .num("tag_sem", m.stat("tag_acc").sem(), 3)
        .num("icpda_accuracy", m.stat("icpda_acc").mean(), 3)
        .num("icpda_sem", m.stat("icpda_acc").sem(), 3)
        .num("icpda_covered", m.stat("covered").mean(), 3)
        .num("icpda_failed_clusters", m.stat("failed").mean(), 1);
  };

  return runner::bench_main(c, argc, argv);
}
