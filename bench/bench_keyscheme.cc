// A2 (ablation) — key management vs privacy: the effective link-
// compromise probability px induced by Eschenauer–Gligor key rings
// (pool size sweep, fixed captured-node budget) compared to ideal
// pairwise keys, and the resulting CPDA disclosure probability.
#include <memory>
#include <string>
#include <vector>

#include "analysis/models.h"
#include "attacks/wiretap.h"
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "runner/campaign.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const std::vector<net::NodeId> captured{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  const std::size_t ring = 60;
  const std::vector<std::size_t> pools{500, 1000, 2000, 5000, 10000};

  // Rows (a categorical axis): ideal pairwise keys, then EG rings per pool size.
  std::vector<std::unique_ptr<const crypto::KeyScheme>> schemes;
  std::vector<std::string> labels{"pairwise"};
  schemes.push_back(std::make_unique<crypto::MasterPairwiseScheme>(bench::default_keys()));
  for (const std::size_t pool : pools) {
    sim::Rng rng(bench::run_seed(bench::Experiment::kKeyschemeRing, pool, 0));
    schemes.push_back(std::make_unique<crypto::EgPredistribution>(300, pool, ring, rng));
    labels.push_back("EG(P=" + std::to_string(pool) + ",k=" + std::to_string(ring) + ")");
  }
  // Every scheme's px is measured on one shared probe deployment.
  const net::Network probe(
      bench::paper_network(300, bench::run_seed(bench::Experiment::kKeyschemeProbe, 0, 0)));

  runner::Campaign c;
  c.name = "A2: key scheme vs effective px (N=300, 10 captured nodes)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kKeyschemeEpoch);
  c.sweep.categorical("scheme", labels);
  c.trials = bench::trials();

  // Epoch seeds are deliberately shared across key schemes (same
  // deployments, paired comparison): every row draws trial t from the
  // kKeyschemeEpoch stream of point 0.
  c.cell = [&schemes](runner::CellContext& ctx) {
    net::Network network(bench::paper_network(
        ctx, 300,
        bench::run_seed(bench::Experiment::kKeyschemeEpoch, 0,
                        static_cast<std::uint64_t>(ctx.trial))));
    core::IcpdaConfig cfg;
    const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                           *schemes[ctx.point.count("scheme")]);
    ctx.metrics.observe("accuracy", out.result ? out.result->count / 299.0 : 0.0);
  };

  c.row = [&](const runner::Point& p, const runner::PointSummary& s, runner::JsonRow& row) {
    const std::size_t i = p.count("scheme");
    const double px = attacks::Wiretap(*schemes[i], captured).effective_px(probe.topology());
    row.str("scheme", p.label("scheme"))
        .num("ring_connect_prob",
             i == 0 ? 1.0 : crypto::EgPredistribution::connect_probability(pools[i - 1], ring),
             3)
        .num("effective_px", px, 4)
        .num("p_disclose_m3", analysis::cpda_disclosure_probability(3, px), 6)
        .num("epoch_accuracy", s.metrics.stat("accuracy").mean(), 3);
  };

  return runner::bench_main(c, argc, argv);
}
