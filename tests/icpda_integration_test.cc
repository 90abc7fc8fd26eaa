// End-to-end iCPDA epochs: honest runs, pollution runs, accuracy.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"

namespace icpda {
namespace {

net::NetworkConfig paper_network(std::size_t n, std::uint64_t seed) {
  net::NetworkConfig cfg;
  cfg.node_count = n;
  cfg.seed = seed;
  return cfg;
}

crypto::MasterPairwiseScheme master_keys() {
  return crypto::MasterPairwiseScheme{crypto::Key::from_seed(0xFEEDFACE)};
}

TEST(IcpdaIntegrationTest, HonestCountEpochIsAccurateAndAccepted) {
  net::Network network(paper_network(400, 42));
  ASSERT_TRUE(network.topology().connected());
  core::IcpdaConfig cfg;
  const auto keys = master_keys();
  const auto outcome =
      core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
  ASSERT_TRUE(outcome.result.has_value());
  EXPECT_TRUE(outcome.accepted());
  // The paper: iCPDA is accurate in reasonably dense networks.
  EXPECT_GT(outcome.result->count, 0.85 * 399) << "count=" << outcome.result->count;
  EXPECT_LE(outcome.result->count, 399.5);
  EXPECT_GT(outcome.heads, 0u);
  EXPECT_GT(outcome.members, 0u);
}

TEST(IcpdaIntegrationTest, SumQueryTracksReadings) {
  net::Network network(paper_network(400, 7));
  core::IcpdaConfig cfg;
  const auto keys = master_keys();
  // Distinct per-node readings so mis-assembly would show up.
  const auto readings = [](std::uint32_t id) { return 10.0 + 0.25 * id; };
  const auto outcome = core::run_icpda_epoch(network, cfg, readings, keys);
  ASSERT_TRUE(outcome.result.has_value());
  ASSERT_GT(outcome.result->count, 300.0);
  // The collected mean must match the true mean of contributing nodes
  // closely; exact set of contributors varies with losses.
  const double mean = outcome.result->sum / outcome.result->count;
  EXPECT_GT(mean, 10.0);
  EXPECT_LT(mean, 10.0 + 0.25 * 400);
  // Per-cluster sums are exact, so sum/count must be a plausible mean
  // of a subset of readings around the middle.
  EXPECT_NEAR(mean, 10.0 + 0.25 * 200, 0.25 * 60);
}

TEST(IcpdaIntegrationTest, PollutingHeadIsDetected) {
  // Try several seeds; detection requires the polluter to have
  // witnesses, which depends on the random cluster draw.
  int detected = 0;
  int attempts = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    net::Network network(paper_network(400, seed));
    core::IcpdaConfig cfg;
    const auto keys = master_keys();
    core::AttackPlan attack;
    // Pollute from a mid-id node; delta large enough to matter.
    attack.polluters.insert(200);
    attack.delta = 500.0;
    const auto outcome =
        core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys, attack);
    ++attempts;
    if (!outcome.accepted()) ++detected;
  }
  // The vast majority of pollution attempts must be caught.
  EXPECT_GE(detected, 4) << "detected " << detected << "/" << attempts;
}

TEST(IcpdaIntegrationTest, NonFinitePollutionIsRejected) {
  // A NaN or +Inf report makes the witness's expected - observed NaN,
  // which a plain `abs(d) > th` significance test lets through. Each
  // must reject the epoch, as a finite delta does.
  for (const double delta : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 300.0}) {
    net::Network network(paper_network(400, 9001));
    core::IcpdaConfig cfg;
    const auto keys = master_keys();
    core::AttackPlan attack;
    attack.polluters.insert(217);
    attack.delta = delta;
    const auto outcome =
        core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys, attack);
    EXPECT_GT(outcome.significant_alarms, 0u) << "delta " << delta;
    EXPECT_FALSE(outcome.accepted()) << "delta " << delta;
  }
}

TEST(IcpdaIntegrationTest, HonestRunRaisesNoSignificantAlarms) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    net::Network network(paper_network(350, seed));
    core::IcpdaConfig cfg;
    const auto keys = master_keys();
    const auto outcome =
        core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    EXPECT_TRUE(outcome.accepted()) << "seed " << seed << " alarms "
                                    << outcome.alarms.size();
  }
}

TEST(IcpdaIntegrationTest, ClusterSizesAverageNearOneOverPc) {
  net::Network network(paper_network(500, 3));
  core::IcpdaConfig cfg;
  cfg.pc = 0.25;
  const auto keys = master_keys();
  const auto outcome =
      core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
  double total = 0.0;
  double clusters = 0.0;
  for (const auto& [size, n] : outcome.cluster_sizes) {
    total += static_cast<double>(size) * n;
    clusters += n;
  }
  ASSERT_GT(clusters, 0.0);
  const double mean = total / clusters;
  EXPECT_GT(mean, 1.6);
  EXPECT_LT(mean, 8.0);
}

}  // namespace
}  // namespace icpda
