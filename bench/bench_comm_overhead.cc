// F2 — communication overhead (total on-air bytes, including MAC ACKs
// and retransmissions) vs network size, for TAG / SMART / iCPDA —
// the paper's bandwidth-consumption figure.
//
// Each cell runs all three protocols on the *same* deployment seed, so
// the per-N comparison is paired.
//
// With --trace, the iCPDA leg runs under the structured tracer and the
// rows gain per-phase byte columns (phase_*_bytes). Tracing is purely
// observational, so the base columns are byte-identical with and
// without --trace, at any --threads value; each traced cell
// hard-asserts that the per-phase byte sum equals the network's
// channel.tx_bytes counter exactly (conservation), failing the whole
// campaign on any mismatch.
#include <stdexcept>
#include <string>

#include "analysis/trace_report.h"
#include "baselines/smart.h"
#include "baselines/tag.h"
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"
#include "sim/metrics.h"

namespace {

/// Protocol phases reported as row columns, in column order. kDispatch
/// never holds bytes here (scheduler spans stay off).
constexpr icpda::sim::TracePhase kReportedPhases[] = {
    icpda::sim::TracePhase::kNone,
    icpda::sim::TracePhase::kClusterFormation,
    icpda::sim::TracePhase::kShareExchange,
    icpda::sim::TracePhase::kHeadAggregation,
    icpda::sim::TracePhase::kPeerMonitoring,
    icpda::sim::TracePhase::kReport,
    icpda::sim::TracePhase::kRecovery,
};

}  // namespace

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "F2: total on-air bytes vs network size";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kCommOverhead);
  // Default axis is the paper's; ICPDA_N_AXIS=2000,3000,4000,5000
  // turns this binary into the T3 scaling sweep (EXPERIMENTS.md).
  c.sweep.axis("n", bench::size_axis({200, 300, 400, 500, 600}));
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    const std::size_t n = ctx.point.count("n");
    {
      net::Network network(bench::paper_network(ctx, n));
      baselines::TagConfig cfg;
      baselines::run_tag_epoch(network, cfg, proto::constant_reading(1.0));
      ctx.metrics.observe("tag_bytes", static_cast<double>(
                                           network.metrics().counter("channel.tx_bytes")));
    }
    {
      net::Network network(bench::paper_network(ctx, n));
      baselines::SmartConfig cfg;
      baselines::run_smart_epoch(network, cfg, proto::constant_reading(1.0), keys);
      ctx.metrics.observe("smart_bytes", static_cast<double>(
                                             network.metrics().counter("channel.tx_bytes")));
    }
    {
      net::Network network(bench::paper_network(ctx, n));
      if (ctx.trace) {
        // Sender-side byte accounting only: every kTxBytes event must
        // survive ring wrap for the conservation check to be meaningful.
        sim::Tracer::Config tcfg;
        tcfg.rx_events = false;
        tcfg.mac_events = false;
        network.enable_trace(tcfg);
      }
      core::IcpdaConfig cfg;
      core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
      const std::uint64_t total = network.metrics().counter("channel.tx_bytes");
      ctx.metrics.observe("icpda_bytes", static_cast<double>(total));
      if (ctx.trace) {
        if (network.tracer().dropped() != 0) {
          throw std::runtime_error(
              "bench_comm_overhead: trace ring overflow (" +
              std::to_string(network.tracer().dropped()) +
              " events dropped) — conservation unverifiable");
        }
        const auto report = analysis::fold_trace(network.tracer().merged());
        const std::uint64_t phase_sum = report.epoch_tx_bytes(0);
        if (phase_sum != total) {
          throw std::runtime_error(
              "bench_comm_overhead: traced per-phase byte sum " +
              std::to_string(phase_sum) + " != channel.tx_bytes " +
              std::to_string(total) + " (n=" + std::to_string(n) + ")");
        }
        const auto& epoch0 = report.per_epoch.at(0);
        for (const sim::TracePhase phase : kReportedPhases) {
          ctx.metrics.observe(
              std::string("icpda_phase.") + sim::trace_phase_name(phase),
              static_cast<double>(
                  epoch0[static_cast<std::size_t>(phase)].tx_bytes));
        }
      }
    }
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const double tag = s.metrics.stat("tag_bytes").mean();
    const double smart = s.metrics.stat("smart_bytes").mean();
    const double icpda_b = s.metrics.stat("icpda_bytes").mean();
    row.num("n", static_cast<std::uint64_t>(p.count("n")))
        .num("tag_bytes", tag, 0)
        .num("smart_bytes", smart, 0)
        .num("icpda_bytes", icpda_b, 0)
        .num("icpda_over_tag", tag > 0 ? icpda_b / tag : 0.0, 2);
    if (s.trace) {
      for (const sim::TracePhase phase : kReportedPhases) {
        const char* name = sim::trace_phase_name(phase);
        row.num(std::string("phase_") + name + "_bytes",
                s.metrics.stat(std::string("icpda_phase.") + name).mean(), 0);
      }
    }
  };

  return runner::bench_main(c, argc, argv);
}
