// F7 [reconstructed] — polluter localization: rounds needed to isolate
// a DoS-ing polluter by participation bisection, vs network size.
// Oracle = full simulated epochs (accept/reject at the base station).
// Expectation: rounds ~ 1.5*log2(N) (accepts are double-checked) +
// confirmation overhead.
#include <algorithm>
#include <cmath>

#include "bench/bench_util.h"
#include "core/icpda.h"
#include "core/localization.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "F7: polluter localization rounds vs N (simulated epochs)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kLocalization);
  c.sweep.axis("n", {200, 400});
  c.trials = std::max(2, bench::trials() / 2);

  // Each trial runs many oracle epochs; epoch e of trial t draws the
  // stream (point, t*1000 + e).
  c.cell = [&keys](runner::CellContext& ctx) {
    const std::size_t n = ctx.point.count("n");
    const auto t = static_cast<std::uint64_t>(ctx.trial);
    const net::NodeId polluter = static_cast<net::NodeId>(1 + (ctx.trial * 97) % (n - 1));
    std::uint64_t epoch_counter = 0;
    const core::EpochRunner oracle = [&](const net::Bytes& mask) {
      net::Network network(bench::paper_network(
          ctx, n,
          bench::run_seed(bench::Experiment::kLocalization, ctx.point.index(),
                          t * 1000 + epoch_counter++)));
      core::IcpdaConfig cfg;
      cfg.allowed_mask = mask;
      core::AttackPlan attack;
      attack.polluters.insert(polluter);
      attack.delta = 400.0;
      const auto out =
          core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys, attack);
      return out.accepted();
    };
    const auto result = core::localize_polluter(n, oracle, 80);
    if (result.isolated && *result.isolated == polluter) ctx.metrics.add("isolated");
    ctx.metrics.observe("rounds", result.rounds);
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const std::size_t n = p.count("n");
    row.num("n", static_cast<std::uint64_t>(n))
        .num("trials", s.trials)
        .num("isolated", s.metrics.counter("isolated"))
        .num("rounds_mean", s.metrics.stat("rounds").mean(), 1)
        .num("model_rounds", 1.5 * std::log2(static_cast<double>(n)) + 8.0, 1);
  };

  return runner::bench_main(c, argc, argv);
}
