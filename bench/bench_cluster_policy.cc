// A3 (ablation) — small-cluster policy: what a lone head does with its
// reading. kClearReport preserves accuracy at a privacy cost;
// kDrop preserves privacy at an accuracy cost. The trade shifts with
// density (sparser networks mint more lone heads).
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "A3: small-cluster policy (accuracy vs privacy degradation)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kClusterPolicy);
  c.sweep.axis("n", {200, 400, 600}).categorical("policy", {"clear", "drop"});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    const std::size_t n = ctx.point.count("n");
    net::Network network(bench::paper_network(ctx, n));
    core::IcpdaConfig cfg;
    cfg.small_cluster_policy = ctx.point.count("policy") == 0
                                   ? core::SmallClusterPolicy::kClearReport
                                   : core::SmallClusterPolicy::kDrop;
    const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    if (out.result) {
      ctx.metrics.observe("accuracy", out.result->count / static_cast<double>(n - 1));
    }
    ctx.metrics.observe("degraded", out.degraded_privacy);
    const auto lone = out.cluster_sizes.find(1);
    ctx.metrics.observe("lone", lone == out.cluster_sizes.end() ? 0.0 : lone->second);
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto& m = s.metrics;
    row.num("n", static_cast<std::uint64_t>(p.count("n")))
        .str("policy", p.label("policy"))
        .num("accuracy", m.stat("accuracy").mean(), 3)
        .num("degraded_privacy_nodes", m.stat("degraded").mean(), 1)
        .num("lone_heads", m.stat("lone").mean(), 1);
  };

  return runner::bench_main(c, argc, argv);
}
