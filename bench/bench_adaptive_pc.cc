// A4 (ablation) — fixed vs density-adaptive head election:
// the fixed-pc head count grows linearly with N (so the per-
// neighbourhood head density grows too), while the adaptive rule
// p = min(1, k / hellos_heard) keeps heads-per-neighbourhood roughly
// constant — fewer heads in dense networks, cheaper epochs at equal
// accuracy. This is the iPDA-family adaptation (their Eq. (1)/(2))
// transplanted to cluster election.
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "A4: fixed pc=0.3 vs adaptive k=2 head election";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kAdaptivePc);
  c.sweep.axis("n", {200, 400, 600}).categorical("mode", {"fixed", "adaptive"});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    const std::size_t n = ctx.point.count("n");
    net::Network network(bench::paper_network(ctx, n));
    core::IcpdaConfig cfg;
    cfg.adaptive_pc = ctx.point.count("mode") == 1;
    const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    auto& m = ctx.metrics;
    m.observe("heads", out.heads);
    if (out.result) m.observe("accuracy", out.result->count / static_cast<double>(n - 1));
    m.observe("bytes", static_cast<double>(network.metrics().counter("channel.tx_bytes")));
    double total = 0;
    double clusters = 0;
    for (const auto& [size, count] : out.cluster_sizes) {
      total += static_cast<double>(size) * count;
      clusters += count;
    }
    if (clusters > 0) m.observe("cluster_mean", total / clusters);
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto& m = s.metrics;
    row.num("n", static_cast<std::uint64_t>(p.count("n")))
        .str("mode", p.label("mode"))
        .num("heads", m.stat("heads").mean(), 1)
        .num("mean_cluster", m.stat("cluster_mean").mean(), 2)
        .num("accuracy", m.stat("accuracy").mean(), 3)
        .num("bytes", m.stat("bytes").mean(), 0);
  };

  return runner::bench_main(c, argc, argv);
}
