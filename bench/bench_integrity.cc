// F6 [reconstructed] — capacity of detecting data pollution:
// (a) detection rate vs pollution magnitude (one compromised
//     aggregator grabbing a head role per epoch),
// (b) honest-run false-rejection rate (the Th trade-off),
// at N = 400, across Monte-Carlo epochs. Two tables, one campaign each.
#include <array>

#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  std::array<runner::Campaign, 2> tables;
  runner::Campaign& a = tables[0];
  a.name = "F6a: pollution detection vs injected delta (N=400, single polluter-head)";
  a.experiment = static_cast<std::uint64_t>(bench::Experiment::kIntegrityDetection);
  a.sweep.axis("delta", {2.0, 10.0, 50.0, 200.0, 1000.0});
  a.trials = 3 * bench::trials();

  a.cell = [&keys](runner::CellContext& ctx) {
    net::Network network(bench::paper_network(ctx, 400));
    core::IcpdaConfig cfg;
    core::AttackPlan attack;
    attack.polluters.insert(50 + static_cast<net::NodeId>(ctx.trial * 13 % 300));
    attack.delta = ctx.point.get("delta");
    const auto out =
        core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys, attack);
    if (out.pollution_events > 0) {
      ctx.metrics.add("polluted");
      if (!out.accepted()) ctx.metrics.add("detected");
    }
    ctx.metrics.observe("drops", out.drop_suspicions);
  };

  a.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const std::uint64_t polluted = s.metrics.counter("polluted");
    const std::uint64_t detected = s.metrics.counter("detected");
    row.num("delta", p.get("delta"), 0)
        .num("epochs", s.trials)
        .num("polluted", polluted)
        .num("detected", detected)
        .num("detection_rate",
             polluted ? static_cast<double>(detected) / static_cast<double>(polluted) : 0.0,
             2)
        .num("drop_suspicions", s.metrics.stat("drops").mean(), 2);
  };

  runner::Campaign& b = tables[1];
  b.name = "F6b: honest-run epoch outcomes (false-rejection rate)";
  b.experiment = static_cast<std::uint64_t>(bench::Experiment::kIntegrityFalseAlarm);
  b.sweep.axis("n", {300, 400, 500});
  b.trials = 3 * bench::trials();

  // Streams key on N itself, not the point index.
  b.cell = [&keys](runner::CellContext& ctx) {
    const std::size_t n = ctx.point.count("n");
    net::Network network(bench::paper_network(
        ctx, n,
        bench::run_seed(bench::Experiment::kIntegrityFalseAlarm, n,
                        static_cast<std::uint64_t>(ctx.trial))));
    core::IcpdaConfig cfg;
    const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    if (!out.accepted()) ctx.metrics.add("rejected");
    ctx.metrics.observe("drops", out.drop_suspicions);
  };

  b.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const std::uint64_t rejected = s.metrics.counter("rejected");
    row.num("n", static_cast<std::uint64_t>(p.count("n")))
        .num("epochs", s.trials)
        .num("rejected", rejected)
        .num("false_rejection_rate", static_cast<double>(rejected) / s.trials, 3)
        .num("drop_suspicions", s.metrics.stat("drops").mean(), 2);
  };

  return runner::bench_main(tables, argc, argv);
}
