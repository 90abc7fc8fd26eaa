// F9 [reconstructed] — graceful degradation under node crashes:
// coverage, aggregate accuracy, false-rejection rate and healing
// overhead as the per-epoch crash probability sweeps 0..30%, at
// N in {200, 400, 600}. No attackers: every rejection is a false
// positive caused by crash-induced loss, and the protocol's job is to
// keep that rate at zero while salvaging as much of the surviving
// population as the failover/reroute machinery allows.
//
// Output is one JSON line per (N, crash_rate) point so downstream
// plotting can stream-parse the sweep.
#include <cmath>

#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"
#include "sim/metrics.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "F9: crash-rate sweep (coverage / accuracy / false rejections / overhead)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kFault);
  c.sweep.axis("n", {200, 400, 600})
      .axis("crash_rate", {0.0, 0.05, 0.10, 0.20, 0.30});
  c.trials = 2 * bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    net::Network network(
        bench::paper_network(ctx, ctx.point.count("n")));
    core::IcpdaConfig cfg;
    // Healing budget: an exhausted MAC retry ladder plus reroute
    // backoff and a watchdog rehand need ~2.5 s beyond the default
    // close slack (see DESIGN.md, fault model).
    cfg.timing.close_slack_s = 2.5;
    core::FaultPlan faults;
    faults.crash_probability = ctx.point.get("crash_rate");
    const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                           keys, {}, faults);
    auto& m = ctx.metrics;
    if (!out.accepted()) m.add("rejected");
    m.observe("crashed", out.nodes_crashed);
    m.observe("coverage", out.coverage);
    m.observe("reroutes", out.reroutes);
    m.observe("failovers", static_cast<double>(
                               network.metrics().counter("icpda.head_failover") +
                               network.metrics().counter("icpda.backup_report")));
    m.observe("recoveries", static_cast<double>(
                                network.metrics().counter("icpda.phase2_recovery")));
    // Readings are the constant 1.0, so the recovered mean should be
    // 1.0 whatever subset of the network survives.
    if (out.result && out.result->count > 0.0) {
      m.observe("mean_err", std::abs(out.result->sum / out.result->count - 1.0));
    }
    m.observe("tx_attempts",
              static_cast<double>(network.metrics().counter("mac.tx_attempts")));
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto& m = s.metrics;
    row.num("n", static_cast<std::uint64_t>(p.count("n")))
        .num("crash_rate", p.get("crash_rate"), 2)
        .num("epochs", s.trials)
        .num("crashed_mean", m.stat("crashed").mean(), 1)
        .num("coverage_mean", m.stat("coverage").mean(), 3)
        .num("coverage_min", m.stat("coverage").min(), 3)
        .num("mean_abs_err", m.stat("mean_err").mean(), 4)
        .num("false_rejection_rate",
             static_cast<double>(m.counter("rejected")) / s.trials, 3)
        .num("reroutes_mean", m.stat("reroutes").mean(), 1)
        .num("head_failovers_mean", m.stat("failovers").mean(), 1)
        .num("recovery_rounds_mean", m.stat("recoveries").mean(), 1)
        .num("mac_tx_attempts_mean", m.stat("tx_attempts").mean(), 0);
  };

  return runner::bench_main(c, argc, argv);
}
