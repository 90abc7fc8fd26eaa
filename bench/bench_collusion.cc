// F5 [reconstructed] — privacy under collusion: probability an honest
// member's reading is exposed when k cluster members collude, by
// cluster size. The paper's claim: privacy survives anything short of
// m-1 colluders.
//
// One cell per (m, k) row draws 40 x ICPDA_TRIALS rank-test samples
// sequentially from that row's stream.
#include <string>
#include <utility>
#include <vector>

#include "analysis/models.h"
#include "attacks/eavesdropper.h"
#include "bench/bench_util.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const std::size_t samples = static_cast<std::size_t>(bench::trials()) * 40;
  // Rows are the (m, k < m) pairs, so the axis is categorical.
  std::vector<std::pair<std::size_t, std::size_t>> rows;
  std::vector<std::string> labels;
  for (std::size_t m = 3; m <= 6; ++m) {
    for (std::size_t k = 0; k < m; ++k) {
      rows.emplace_back(m, k);
      labels.push_back("m=" + std::to_string(m) + ",k=" + std::to_string(k));
    }
  }

  runner::Campaign c;
  c.name = "F5: P_disclose of an honest member vs colluders (rank test)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kCollusion);
  c.sweep.categorical("m_k", labels);
  c.trials = 1;

  c.cell = [&rows, samples](runner::CellContext& ctx) {
    const auto [m, k] = rows[ctx.point.count("m_k")];
    sim::Rng rng(ctx.seed);
    ctx.metrics.observe("p", attacks::estimate_collusion_disclosure(m, k, samples, rng));
  };

  c.row = [&rows](const runner::Point& p, const runner::PointSummary& s,
                  runner::JsonRow& row) {
    const auto [m, k] = rows[p.count("m_k")];
    row.num("m", static_cast<std::uint64_t>(m))
        .num("colluders", static_cast<std::uint64_t>(k))
        .num("sim", s.metrics.stat("p").mean(), 3)
        .num("model", analysis::cpda_collusion_disclosure(m, k), 3);
  };

  return runner::bench_main(c, argc, argv);
}
