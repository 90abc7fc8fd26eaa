// iCPDA protocol mechanics: phase-by-phase behaviour on crafted
// topologies and configuration edges (roster cap, rejoin, policies,
// masks, key-scheme failures, witness arming).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"

namespace icpda::core {
namespace {

crypto::MasterPairwiseScheme master_keys() {
  return crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x7357)};
}

net::NetworkConfig paper_network(std::size_t n, std::uint64_t seed) {
  net::NetworkConfig cfg;
  cfg.node_count = n;
  cfg.seed = seed;
  return cfg;
}

/// Run an epoch while keeping handles to every app for inspection.
struct Rig {
  Rig(net::Network& network, const IcpdaConfig& cfg,
      const proto::ReadingProvider& readings, const crypto::KeyScheme& keys,
      const AttackPlan& attack = {})
      : attack_plan(attack) {
    network.attach_apps([&, this](net::Node&) {
      auto app = std::make_unique<IcpdaApp>(cfg, readings, &keys, &attack_plan,
                                            &outcome);
      apps.push_back(app.get());
      return app;
    });
    // Bounded horizon (mirrors run_icpda_epoch): congested scenarios
    // can drain stragglers for a long simulated time.
    network.run(sim::seconds(cfg.timing.start_delay_s + cfg.phase2_budget_s) +
                cfg.timing.close_delay() + sim::seconds(3.0));
  }
  AttackPlan attack_plan;
  IcpdaOutcome outcome;
  std::vector<IcpdaApp*> apps;
};

TEST(IcpdaProtocolTest, RosterCapIsRespected) {
  net::Network network(paper_network(500, 21));
  IcpdaConfig cfg;
  cfg.max_cluster_size = 5;
  const auto keys = master_keys();
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  for (const auto& [size, count] : rig.outcome.cluster_sizes) {
    EXPECT_LE(size, 5u) << count << " clusters of size " << size;
  }
}

TEST(IcpdaProtocolTest, RejoinRecoversRejectedMembers) {
  net::Network network(paper_network(500, 22));
  IcpdaConfig cfg;
  cfg.max_cluster_size = 4;  // tight cap: many rejections
  const auto keys = master_keys();
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  EXPECT_GT(network.metrics().counter("icpda.join_rejected"), 0u);
  EXPECT_GT(network.metrics().counter("icpda.rejoin"), 0u);
  // Most rejected members find another cluster: coverage stays high.
  EXPECT_LT(rig.outcome.unclustered, 60u);
}

TEST(IcpdaProtocolTest, DropPolicySuppressesLoneHeadReadings) {
  const auto run_with = [](SmallClusterPolicy policy) {
    net::Network network(paper_network(250, 23));
    IcpdaConfig cfg;
    cfg.small_cluster_policy = policy;
    const auto keys = master_keys();
    Rig rig(network, cfg, proto::constant_reading(1.0), keys);
    return rig.outcome.result ? rig.outcome.result->count : 0.0;
  };
  const double clear_count = run_with(SmallClusterPolicy::kClearReport);
  const double drop_count = run_with(SmallClusterPolicy::kDrop);
  EXPECT_GT(clear_count, drop_count);  // drop loses the lone heads' data
}

TEST(IcpdaProtocolTest, ExcludedNodesNeverAggregate) {
  net::Network network(paper_network(300, 24));
  IcpdaConfig cfg;
  // Allow only even ids (plus the BS).
  proto::HelloMsg mask_builder;
  for (net::NodeId id = 0; id < 300; id += 2) mask_builder.set_allowed(id, 300);
  cfg.allowed_mask = mask_builder.allowed_mask;
  const auto keys = master_keys();
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  for (net::NodeId id = 1; id < 300; ++id) {
    if (id % 2 == 1) {
      EXPECT_NE(rig.apps[id]->role(), ClusterRole::kHead) << "node " << id;
    }
  }
  // Roughly half the readings are excluded.
  ASSERT_TRUE(rig.outcome.result.has_value());
  EXPECT_LT(rig.outcome.result->count, 200.0);
  EXPECT_GT(rig.outcome.result->count, 50.0);
}

TEST(IcpdaProtocolTest, MembersAndHeadsAgreeOnClusterValue) {
  net::Network network(paper_network(350, 25));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  // For every member that solved a cluster value, it must equal its
  // head's (same digest, same interpolation).
  int compared = 0;
  for (net::NodeId id = 1; id < 350; ++id) {
    auto* app = rig.apps[id];
    if (app->role() != ClusterRole::kMember || !app->cluster_value()) continue;
    const net::NodeId head = app->cluster().head();
    const auto head_value = rig.apps[head]->cluster_value();
    if (!head_value) continue;
    EXPECT_NEAR(app->cluster_value()->sum, head_value->sum, 1e-9);
    ++compared;
  }
  EXPECT_GT(compared, 50);
}

TEST(IcpdaProtocolTest, ClusterSumsMatchMemberReadings) {
  net::Network network(paper_network(350, 26));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  const auto readings = [](std::uint32_t id) { return 0.5 * id; };
  Rig rig(network, cfg, readings, keys);
  int checked = 0;
  for (net::NodeId id = 1; id < 350; ++id) {
    auto* app = rig.apps[id];
    if (app->role() != ClusterRole::kHead || !app->cluster_value()) continue;
    if (app->cluster().size() < 2) continue;  // clear-report path
    // The solved sum must equal the sum of readings over the common
    // contributor set.
    double expected = 0.0;
    for (const auto member : app->cluster().contributor_set()) {
      expected += readings(member);
    }
    EXPECT_NEAR(app->cluster_value()->sum, expected, 1e-6 * (1.0 + expected))
        << "head " << id;
    ++checked;
  }
  EXPECT_GT(checked, 30);
}

TEST(IcpdaProtocolTest, EgSchemeWithSparsePoolDegradesGracefully) {
  net::Network network(paper_network(300, 27));
  IcpdaConfig cfg;
  sim::Rng rng(5);
  // Pool so large rings rarely intersect: most pairs share no key.
  const crypto::EgPredistribution keys(300, 20000, 30, rng);
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  EXPECT_GT(network.metrics().counter("icpda.no_link_key"), 0u);
  // Epoch still completes and is honest-accepted; data loss is the
  // cost, not crashes or false alarms.
  ASSERT_TRUE(rig.outcome.result.has_value());
  EXPECT_TRUE(rig.outcome.accepted());
}

TEST(IcpdaProtocolTest, WitnessesArmInDenseNetworks) {
  net::Network network(paper_network(400, 28));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  const auto armed = network.metrics().counter("icpda.witness_armed");
  // Most members of solved clusters should be armed as witnesses.
  EXPECT_GT(armed, rig.outcome.members / 2);
}

TEST(IcpdaProtocolTest, PollutingRelayIsCaughtByWatchdog) {
  // Find a seed where some relay actually forwards traffic, make it a
  // polluter that does NOT grab a head role (pure in-transit tamper).
  int caught = 0;
  int active = 0;
  for (std::uint64_t seed = 31; seed < 40 && active < 4; ++seed) {
    net::Network network(paper_network(400, seed));
    IcpdaConfig cfg;
    const auto keys = master_keys();
    AttackPlan attack;
    attack.polluters.insert(123);
    attack.delta = 250.0;
    attack.force_head = false;  // stay a relay if the coin says so
    Rig rig(network, cfg, proto::constant_reading(1.0), keys, attack);
    const bool tampered_in_transit =
        network.metrics().counter("icpda.pollution_injected") > 0 &&
        rig.apps[123]->role() != ClusterRole::kHead;
    if (!tampered_in_transit) continue;
    ++active;
    if (!rig.outcome.accepted() ||
        network.metrics().counter("icpda.watchdog_tamper") > 0) {
      ++caught;
    }
  }
  ASSERT_GT(active, 0) << "no seed produced an in-transit tamper";
  EXPECT_EQ(caught, active);
}

TEST(IcpdaProtocolTest, SumQueryWithNegativeReadings) {
  net::Network network(paper_network(300, 41));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  const auto readings = [](std::uint32_t id) {
    return (id % 2 == 0) ? -1.0 : 2.0;
  };
  Rig rig(network, cfg, readings, keys);
  ASSERT_TRUE(rig.outcome.result.has_value());
  // True sum over all 299 sensors: 150*2 - 149*1 = 151; allow loss.
  EXPECT_GT(rig.outcome.result->sum, 100.0);
  EXPECT_LT(rig.outcome.result->sum, 160.0);
  EXPECT_TRUE(rig.outcome.accepted());
}

TEST(IcpdaProtocolTest, VarianceComputableFromTriple) {
  net::Network network(paper_network(400, 43));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  // Readings alternate 10 and 20: population variance 25, mean 15.
  const auto readings = [](std::uint32_t id) { return id % 2 ? 10.0 : 20.0; };
  Rig rig(network, cfg, readings, keys);
  ASSERT_TRUE(rig.outcome.result.has_value());
  EXPECT_NEAR(rig.outcome.result->mean(), 15.0, 0.5);
  EXPECT_NEAR(rig.outcome.result->variance(), 25.0, 1.5);
}

TEST(IcpdaProtocolTest, DisconnectedTopologyCoversOnlyBsComponent) {
  // Two clumps far apart; the BS sits in clump 1.
  std::vector<net::Point> pts;
  sim::Rng rng(3);
  for (int i = 0; i < 40; ++i) pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  for (int i = 0; i < 40; ++i) pts.push_back({rng.uniform(300, 400), rng.uniform(300, 400)});
  pts[0] = {50, 50};
  net::NetworkConfig ncfg;
  ncfg.seed = 4;
  net::Network network(net::Topology{pts, 50.0}, ncfg);
  IcpdaConfig cfg;
  const auto keys = master_keys();
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  ASSERT_TRUE(rig.outcome.result.has_value());
  EXPECT_LE(rig.outcome.result->count, 39.5);
  EXPECT_GT(rig.outcome.result->count, 20.0);
}

TEST(IcpdaProtocolTest, DeterministicEpochForFixedSeed) {
  const auto run = [] {
    net::Network network(paper_network(300, 77));
    IcpdaConfig cfg;
    const auto keys = master_keys();
    Rig rig(network, cfg, proto::constant_reading(1.0), keys);
    return rig.outcome.result->count;
  };
  EXPECT_EQ(run(), run());
}

/// Parameterized density sweep: coverage (heads+members) must stay
/// high across the paper's size range.
class IcpdaCoverageTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IcpdaCoverageTest, CoverageAboveNinetyFivePercent) {
  const std::size_t n = GetParam();
  net::Network network(paper_network(n, 1000 + n));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  const double covered =
      static_cast<double>(rig.outcome.heads + rig.outcome.members) /
      static_cast<double>(n - 1);
  EXPECT_GT(covered, 0.95) << "N=" << n;
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, IcpdaCoverageTest,
                         ::testing::Values(200, 300, 400, 500, 600));

}  // namespace
}  // namespace icpda::core
