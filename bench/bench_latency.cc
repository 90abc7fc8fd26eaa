// F8 [reconstructed] — aggregation latency (query issue to epoch
// close at the base station) vs network size, TAG vs iCPDA. iCPDA
// pays the fixed Phase I/II budget on top of the depth-scheduled
// ascent.
//
// TAG and iCPDA run on the same deployment seed per cell (paired).
#include "baselines/tag.h"
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "F8: aggregation latency vs network size (seconds, simulated)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kLatency);
  c.sweep.axis("n", {200, 300, 400, 500, 600});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    const std::size_t n = ctx.point.count("n");
    {
      net::Network network(bench::paper_network(ctx, n));
      baselines::TagConfig cfg;
      const auto out = baselines::run_tag_epoch(network, cfg, proto::constant_reading(1.0));
      ctx.metrics.observe("tag", out.closed_at.seconds());
    }
    {
      net::Network network(bench::paper_network(ctx, n));
      core::IcpdaConfig cfg;
      const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
      ctx.metrics.observe("icpda", out.closed_at.seconds());
    }
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const double tag = s.metrics.stat("tag").mean();
    const double icpda_lat = s.metrics.stat("icpda").mean();
    row.num("n", static_cast<std::uint64_t>(p.count("n")))
        .num("tag_latency", tag, 2)
        .num("icpda_latency", icpda_lat, 2)
        .num("icpda_extra", icpda_lat - tag, 2);
  };

  return runner::bench_main(c, argc, argv);
}
