// F1 [reconstructed] — protocol messages originated per node:
// measured per-protocol counts vs the closed-form models (TAG = 2,
// SMART = 2 + l-1, iCPDA = f(pc)). MAC ACKs/retransmissions excluded
// here (bench_comm_overhead measures total on-air bytes instead).
//
// The three protocols run on the same deployment seeds (paired): every
// row draws trial t from the stream of point 0.
#include "analysis/models.h"
#include "baselines/smart.h"
#include "baselines/tag.h"
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();

  runner::Campaign c;
  c.name = "F1: protocol messages originated per node (N=400)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kMsgOverhead);
  c.sweep.categorical("protocol", {"TAG", "SMART(l=2)", "iCPDA(pc=0.3)"});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    net::Network network(bench::paper_network(
        ctx, 400,
        bench::run_seed(bench::Experiment::kMsgOverhead, 0,
                        static_cast<std::uint64_t>(ctx.trial))));
    switch (ctx.point.count("protocol")) {
      case 0:
        baselines::run_tag_epoch(network, baselines::TagConfig{},
                                 proto::constant_reading(1.0));
        break;
      case 1:
        baselines::run_smart_epoch(network, baselines::SmartConfig{},
                                   proto::constant_reading(1.0), keys);
        break;
      default:
        core::run_icpda_epoch(network, core::IcpdaConfig{}, proto::constant_reading(1.0),
                              keys);
    }
    // Protocol-originated frames = MAC enqueues (app sends only; ACKs
    // and retransmissions happen below the enqueue point).
    ctx.metrics.observe("msgs", static_cast<double>(network.metrics().counter("mac.enqueued")) /
                                    static_cast<double>(network.size()));
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const double models[] = {analysis::tag_messages_per_node(),
                             analysis::smart_messages_per_node(2),
                             analysis::icpda_messages_per_node(0.3, 2)};
    const auto& msgs = s.metrics.stat("msgs");
    row.str("protocol", p.label("protocol"))
        .num("msgs_per_node", msgs.mean(), 2)
        .num("sem", msgs.sem(), 2)
        .num("model", models[p.count("protocol")], 2);
  };

  return runner::bench_main(c, argc, argv);
}
