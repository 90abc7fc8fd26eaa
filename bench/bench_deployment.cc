// T1 — Network size vs network density (the paper family's Table I).
// Columns: measured average degree over random deployments, the
// unclipped-disc model, and the border-corrected model.
#include "analysis/models.h"
#include "bench/bench_util.h"
#include "net/topology.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const double paper[] = {8.8, 13.7, 18.6, 23.5, 28.4};
  const net::Field field(400, 400);

  runner::Campaign c;
  c.name = "T1: network size vs average node degree (400x400 m, r=50 m)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kDeployment);
  c.sweep.axis("n", {200, 300, 400, 500, 600});
  c.trials = 4 * bench::trials();

  c.cell = [&field](runner::CellContext& ctx) {
    sim::Rng rng(ctx.seed);
    const auto topology =
        net::make_random_topology(field, ctx.point.count("n"), 50.0, rng, false);
    ctx.metrics.observe("degree", topology.average_degree());
  };

  c.row = [&field, &paper](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const std::size_t n = p.count("n");
    const auto& degree = s.metrics.stat("degree");
    row.num("n", static_cast<std::uint64_t>(n))
        .num("degree_sim", degree.mean(), 2)
        .num("sem", degree.sem(), 2)
        .num("model_unclipped", analysis::expected_degree(field, n, 50.0), 2)
        .num("model_border", analysis::expected_degree_border_corrected(field, n, 50.0), 2)
        .num("paper", paper[p.index()], 1);
  };

  return runner::bench_main(c, argc, argv);
}
