// F4 [reconstructed] — capacity of privacy preservation: P_disclose
// vs the link-compromise probability px, for several cluster sizes,
// measured by the exact rank-test auditor and compared with the
// leading-order closed form px^(2(m-1)). SMART(l=2) rides along as the
// family comparator.
//
// Each Monte-Carlo cell runs a fixed-size chunk of rank-test samples;
// the per-point estimate is the mean over chunks (equal-sized, so the
// reduction is exactly the pooled estimate).
#include "analysis/models.h"
#include "attacks/eavesdropper.h"
#include "bench/bench_util.h"
#include "runner/campaign.h"
#include "sim/rng.h"

namespace {
constexpr std::size_t kSamplesPerCell = 400;
}

int main(int argc, char** argv) {
  using namespace icpda;

  runner::Campaign c;
  c.name = "F4: P_disclose vs px (rank-test Monte Carlo vs closed form)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kPrivacy);
  c.sweep.axis("px", {0.05, 0.1, 0.2, 0.3, 0.4, 0.5});
  c.trials = bench::trials();

  c.cell = [](runner::CellContext& ctx) {
    const double px = ctx.point.get("px");
    sim::Rng root(ctx.seed);
    auto rng2 = root.fork("m2");
    auto rng3 = root.fork("m3");
    auto rng5 = root.fork("m5");
    auto rng_smart = root.fork("smart");
    ctx.metrics.observe(
        "m2", attacks::estimate_disclosure_probability(2, px, kSamplesPerCell, rng2));
    ctx.metrics.observe(
        "m3", attacks::estimate_disclosure_probability(3, px, kSamplesPerCell, rng3));
    ctx.metrics.observe(
        "m5", attacks::estimate_disclosure_probability(5, px, kSamplesPerCell / 2, rng5));
    attacks::SmartView smart;
    smart.l = 2;
    smart.incoming = 1;
    smart.px = px;
    ctx.metrics.observe("smart_l2", smart.estimate(kSamplesPerCell, rng_smart));
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const double px = p.get("px");
    const auto& m = s.metrics;
    row.num("px", px, 2)
        .num("m2_sim", m.stat("m2").mean(), 4)
        .num("m2_model", analysis::cpda_disclosure_probability(2, px), 4)
        .num("m3_sim", m.stat("m3").mean(), 5)
        .num("m3_model", analysis::cpda_disclosure_probability(3, px), 5)
        .num("m5_sim", m.stat("m5").mean(), 6)
        .num("m5_model", analysis::cpda_disclosure_probability(5, px), 6)
        .num("smart_l2_sim", m.stat("smart_l2").mean(), 4)
        .num("smart_l2_model", analysis::smart_disclosure_probability(2, 1, px), 4);
  };

  return runner::bench_main(c, argc, argv);
}
