// Fault-injection behaviour: node crashes and transient outages under
// FaultPlan, and the protocol's graceful-degradation machinery —
// silent-head fallback, Phase II recovery re-share, member digest
// deadline, Phase III parent reroute and head backup reporting.
//
// The overarching invariant (the paper's integrity argument demands
// it): benign churn must never convert into value-tamper rejections.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "core/faults.h"
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

/// Rig with a fault plan scheduled before the epoch runs.
struct FaultRig {
  FaultRig(net::Network& network, const IcpdaConfig& cfg,
           const proto::ReadingProvider& readings, const crypto::KeyScheme& keys,
           const FaultPlan& faults, const AttackPlan& attack = {})
      : attack_plan(attack) {
    network.attach_apps([&, this](net::Node&) {
      auto app = std::make_unique<IcpdaApp>(cfg, readings, &keys, &attack_plan,
                                            &outcome);
      apps.push_back(app.get());
      return app;
    });
    outcome.nodes_crashed =
        schedule_fault_plan(network, faults, network.rng().fork("faults"));
    network.run(sim::seconds(cfg.timing.start_delay_s + cfg.phase2_budget_s) +
                cfg.timing.close_delay() + sim::seconds(3.0));
  }
  AttackPlan attack_plan;
  IcpdaOutcome outcome;
  std::vector<IcpdaApp*> apps;
};

/// Pin node 1 as the only self-elected head: pc = 0 keeps everyone
/// else from electing, force_head makes node 1 elect unconditionally.
/// The delta is negligible (force_head only applies to an active
/// plan), far below Th and every assertion tolerance used here.
AttackPlan pin_head(net::NodeId head) {
  AttackPlan attack;
  attack.polluters.insert(head);
  attack.delta = 1e-4;
  attack.force_head = true;
  return attack;
}

// ---------------------------------------------------------------------
// Satellite: a member whose head goes permanently silent must re-enter
// the role decision (and end up a lone head), not give up unclustered.

TEST(FaultInjectionTest, SilentHeadMemberFallsBackToLoneHead) {
  // BS(0,0) -- head 1 at (40,0) -- node 2 at (30,30); every pair in
  // range. Node 1 is the only head and crashes right after node 2's
  // join, before any roster can go out.
  net::Network network(net::Topology{{{0, 0}, {40, 0}, {30, 30}}, 50.0},
                       paper_network(3, 31));
  IcpdaConfig cfg;
  cfg.pc = 0.0;
  cfg.roster_delay_s = 1.0;  // roster cannot beat the crash below
  const auto keys = master_keys();
  FaultPlan faults;
  faults.crash_at_s[1] = 0.45;
  FaultRig rig(network, cfg, proto::constant_reading(1.0), keys, faults,
               pin_head(1));

  // Node 2 re-entered decide_role after its head went silent and, with
  // no other head audible, became a lone head itself.
  EXPECT_GE(network.metrics().counter("icpda.head_failover"), 1u);
  EXPECT_EQ(rig.apps[2]->role(), ClusterRole::kHead);
  EXPECT_EQ(rig.outcome.unclustered, 0u);

  // Its reading still reaches the base station (clear lone-head
  // report), and nothing about the crash looks like tampering.
  ASSERT_TRUE(rig.outcome.result.has_value());
  EXPECT_NEAR(rig.outcome.result->count, 1.0, 1e-9);
  EXPECT_TRUE(rig.outcome.accepted());
  EXPECT_EQ(rig.outcome.nodes_crashed, 1u);
}

// ---------------------------------------------------------------------
// A head dying after the roster but before the digest: members hit the
// digest deadline and write the cluster off instead of hanging.

TEST(FaultInjectionTest, DeadHeadAfterRosterUnclustersItsMembers) {
  // Star around head 1 at (30,0): members 2..4 all within range of the
  // head; node 3 is out of the base station's range on purpose.
  net::Network network(
      net::Topology{{{0, 0}, {30, 0}, {30, 30}, {60, 0}, {30, -30}}, 50.0},
      paper_network(5, 32));
  IcpdaConfig cfg;
  cfg.pc = 0.0;
  const auto keys = master_keys();
  FaultPlan faults;
  faults.crash_at_s[1] = 1.1;  // after the roster, before any digest
  FaultRig rig(network, cfg, proto::constant_reading(1.0), keys, faults,
               pin_head(1));

  EXPECT_GE(network.metrics().counter("icpda.digest_missed"), 1u);
  for (net::NodeId id = 2; id <= 4; ++id) {
    EXPECT_EQ(rig.apps[id]->role(), ClusterRole::kUnclustered)
        << "node " << id;
  }
  // Data is lost (the whole cluster died with its head) but the epoch
  // is not rejected: a crash is not a tamper.
  EXPECT_TRUE(rig.outcome.accepted());
  EXPECT_EQ(rig.outcome.significant_alarms, 0u);
}

// ---------------------------------------------------------------------
// A member dying mid-Phase-II: the head re-fixes the roster to the
// survivors and reruns the exchange at reduced degree.

TEST(FaultInjectionTest, MemberCrashTriggersPhase2RecoveryRound) {
  net::Network network(
      net::Topology{{{0, 0}, {30, 0}, {30, 30}, {60, 0}, {30, -30}}, 50.0},
      paper_network(5, 33));
  IcpdaConfig cfg;
  cfg.pc = 0.0;
  const auto keys = master_keys();
  FaultPlan faults;
  faults.crash_at_s[4] = 1.0;  // after the roster, before its F unicast
  FaultRig rig(network, cfg, proto::constant_reading(1.0), keys, faults,
               pin_head(1));

  EXPECT_GE(network.metrics().counter("icpda.phase2_recovery"), 1u);
  EXPECT_GE(network.metrics().counter("icpda.cluster_recovered"), 1u);

  // The surviving cluster {1,2,3} still solves and reports.
  ASSERT_TRUE(rig.apps[1]->cluster_value().has_value());
  EXPECT_NEAR(rig.apps[1]->cluster_value()->count, 3.0, 1e-6);
  ASSERT_TRUE(rig.outcome.result.has_value());
  EXPECT_NEAR(rig.outcome.result->count, 3.0, 1e-6);
  EXPECT_TRUE(rig.outcome.accepted());
  // The recovery round's stale/fresh round tags kept the algebra clean:
  // no value-tamper alarms from mixing rounds.
  EXPECT_EQ(rig.outcome.significant_alarms, 0u);
}

// ---------------------------------------------------------------------
// Clusters that end up a lone head, at roster time or after a Phase II
// recovery, under both small-cluster policies; and a live member the
// recovery roster leaves out, which stands down. Each case pins the
// outcome tallies and the one metric its branch emits.

enum class Shrink : std::uint8_t {
  kRoundZeroLoneHead,  ///< nobody joins: the roster is the head alone
  kRecoveryLoneHead,   ///< the only member crashes before its F
  kRecoveryExcluded,   ///< a member blinks through its F slot
};

struct ShrinkCase {
  const char* name;
  Shrink shrink;
  SmallClusterPolicy policy;
  const char* metric;
  /// A two-node round-0 cluster is below min_cluster_size: both its
  /// nodes count as degraded before any recovery runs.
  std::uint32_t degraded_privacy;
  std::uint32_t clusters_failed;
  std::uint32_t unclustered;
  std::uint32_t members;
};

// Stable test names: gtest would otherwise print the raw bytes
// (pointers and padding) of each case.
void PrintTo(const ShrinkCase& c, std::ostream* os) { *os << c.name; }

class ClusterShrinkTest : public ::testing::TestWithParam<ShrinkCase> {};

TEST_P(ClusterShrinkTest, TalliesAndMetricMatchTheBranch) {
  const ShrinkCase& c = GetParam();
  IcpdaConfig cfg;
  cfg.pc = 0.0;
  cfg.small_cluster_policy = c.policy;
  FaultPlan faults;
  std::vector<net::Point> points;
  switch (c.shrink) {
    case Shrink::kRoundZeroLoneHead:
      points = {{0, 0}, {30, 0}};
      break;
    case Shrink::kRecoveryLoneHead:
      points = {{0, 0}, {30, 0}, {30, 30}};
      faults.crash_at_s[2] = 1.0;  // after the roster, before its F
      break;
    case Shrink::kRecoveryExcluded:
      // Star around head 1; member 4 is down through its F slot and up
      // again before the head's solve deadline, so it hears the
      // recovery roster that omits it.
      points = {{0, 0}, {30, 0}, {30, 30}, {60, 0}, {30, -30}};
      faults.outages[4].push_back({1.0, 1.5});
      break;
  }
  const std::size_t n = points.size();
  net::Network network(net::Topology{std::move(points), 50.0}, paper_network(n, 35));
  const auto keys = master_keys();
  FaultRig rig(network, cfg, proto::constant_reading(1.0), keys, faults, pin_head(1));

  EXPECT_EQ(rig.apps[1]->role(), ClusterRole::kHead);
  EXPECT_EQ(network.metrics().counter(c.metric), 1u) << c.metric;
  EXPECT_EQ(rig.outcome.degraded_privacy, c.degraded_privacy);
  EXPECT_EQ(rig.outcome.clusters_failed, c.clusters_failed);
  EXPECT_EQ(rig.outcome.unclustered, c.unclustered);
  EXPECT_EQ(rig.outcome.members, c.members);
  EXPECT_TRUE(rig.outcome.accepted());
}

INSTANTIATE_TEST_SUITE_P(
    LoneHeadAndStandDown, ClusterShrinkTest,
    ::testing::Values(
        ShrinkCase{"RoundZeroClear", Shrink::kRoundZeroLoneHead,
                   SmallClusterPolicy::kClearReport, "icpda.lone_head_clear", 1, 0, 0, 0},
        ShrinkCase{"RoundZeroDrop", Shrink::kRoundZeroLoneHead, SmallClusterPolicy::kDrop,
                   "icpda.lone_head_dropped", 0, 1, 0, 0},
        ShrinkCase{"RecoveryClear", Shrink::kRecoveryLoneHead,
                   SmallClusterPolicy::kClearReport, "icpda.recovery_lone_clear", 3, 0, 0, 1},
        ShrinkCase{"RecoveryDrop", Shrink::kRecoveryLoneHead, SmallClusterPolicy::kDrop,
                   "icpda.recovery_lone_dropped", 2, 1, 0, 1},
        ShrinkCase{"RecoveryExcludedClear", Shrink::kRecoveryExcluded,
                   SmallClusterPolicy::kClearReport, "icpda.recovery_excluded", 0, 0, 1, 2},
        ShrinkCase{"RecoveryExcludedDrop", Shrink::kRecoveryExcluded,
                   SmallClusterPolicy::kDrop, "icpda.recovery_excluded", 0, 0, 1, 2}),
    [](const ::testing::TestParamInfo<ShrinkCase>& info) { return info.param.name; });

// ---------------------------------------------------------------------
// Transient outage: the node blinks, the epoch survives, and the node
// is alive again at the end.

TEST(FaultInjectionTest, TransientOutageIsNotACrash) {
  net::Network network(paper_network(300, 34));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  FaultPlan faults;
  faults.outages[17].push_back({0.2, 3.0});
  FaultRig rig(network, cfg, proto::constant_reading(1.0), keys, faults);

  EXPECT_EQ(rig.outcome.nodes_crashed, 0u);  // outages are not crashes
  EXPECT_EQ(network.metrics().counter("net.node_down"), 1u);
  EXPECT_EQ(network.metrics().counter("net.node_up"), 1u);
  EXPECT_TRUE(network.node_alive(17));
  EXPECT_TRUE(rig.outcome.accepted());
}

// ---------------------------------------------------------------------
// The headline acceptance criterion: 10% per-epoch crash probability,
// no attackers, default loss — every epoch accepted (zero false
// rejections), coverage at least 0.85 of the survivors, and both the
// head-failover and the parent-reroute paths actually exercised.

TEST(FaultInjectionTest, TenPercentCrashesDegradeGracefully) {
  const auto keys = master_keys();
  std::uint64_t head_failovers = 0;
  std::uint64_t reroutes = 0;
  for (const std::uint64_t seed : {41u, 42u, 44u}) {
    net::Network network(paper_network(400, seed));
    IcpdaConfig cfg;
    // Fault healing takes wall-clock time the default close slack does
    // not budget for: one exhausted MAC retry ladder (~0.8 s) tells a
    // reporter its parent is dead, the reroute backoff and a watchdog
    // rehand add roughly another ladder each. Give the epoch ~2.5 s of
    // extra slack so healed reports still land before the BS closes.
    cfg.timing.close_slack_s = 2.5;
    FaultPlan faults;
    faults.crash_probability = 0.10;
    const auto out = run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                     keys, {}, faults);
    EXPECT_GT(out.nodes_crashed, 0u) << "seed " << seed;
    EXPECT_TRUE(out.accepted()) << "seed " << seed << ": crash-induced "
                                << out.significant_alarms
                                << " false rejection alarms";
    EXPECT_GE(out.coverage, 0.85) << "seed " << seed;
    ASSERT_TRUE(out.result.has_value());
    // A node that crashes after Phase II may already have contributed,
    // so the count can exceed the survivor population — but never the
    // sensor population (node 0 is the base station).
    EXPECT_LE(out.result->count, 399.0);
    head_failovers += network.metrics().counter("icpda.head_failover") +
                      network.metrics().counter("icpda.backup_report") +
                      network.metrics().counter("icpda.phase2_recovery");
    reroutes += out.reroutes;
  }
  // The degradation machinery was not idle: dead heads were failed
  // over and at least one reporter switched to a backup parent.
  EXPECT_GT(head_failovers, 0u);
  EXPECT_GT(reroutes, 0u);
}

// Zero-fault plans leave the fault counters at zero and coverage at
// the usual near-complete level.
TEST(FaultInjectionTest, InactivePlanChangesNothing) {
  net::Network network(paper_network(300, 44));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  const auto out =
      run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
  EXPECT_EQ(out.nodes_crashed, 0u);
  EXPECT_EQ(network.metrics().counter("net.node_down"), 0u);
  EXPECT_TRUE(out.accepted());
  EXPECT_GT(out.coverage, 0.95);
}

}  // namespace
}  // namespace icpda::core
