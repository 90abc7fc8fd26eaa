// iCPDA protocol mechanics: phase-by-phase behaviour on crafted
// topologies and configuration edges (roster cap, rejoin, policies,
// masks, key-scheme failures, witness arming).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
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
      const AttackPlan& attack = {},
      const std::function<void(Rig&)>& before_run = {})
      : attack_plan(attack) {
    network.attach_apps([&, this](net::Node&) {
      auto app = std::make_unique<IcpdaApp>(cfg, readings, &keys, &attack_plan,
                                            &outcome);
      apps.push_back(app.get());
      return app;
    });
    if (before_run) before_run(*this);
    // Bounded horizon (mirrors run_icpda_epoch): congested scenarios
    // can drain stragglers for a long simulated time.
    network.run(sim::seconds(nominal_epoch_s(cfg) + kEpochDrainGraceS));
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

TEST(IcpdaProtocolTest, ShareFailingAuthenticationIsNeverMerged) {
  net::Network network(paper_network(200, 27));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  // Take over reception (a delivery hook replaces the channel's MAC
  // sink): route intact frames to their MACs as the sink does, but flip
  // one sealed byte of the first share that reaches its recipient.
  std::map<std::pair<net::NodeId, net::NodeId>, std::uint32_t> last_seen;
  bool corrupted = false;
  network.channel().set_delivery(
      [&](net::NodeId r, const net::Frame& frame, net::ReceptionStatus status) {
        if (status != net::ReceptionStatus::kOk) return;
        if (frame.type == net::kMacAck && frame.dst != r) return;
        std::uint32_t& seen = last_seen[{frame.src, r}];
        auto share = frame.type == proto::kShare && frame.dst == r
                         ? proto::ShareMsg::from_bytes(frame.payload)
                         : std::nullopt;
        if (corrupted || !share || share->recipient != r) {
          network.mac(r).handle_reception(frame, seen);
          return;
        }
        corrupted = true;
        share->sealed[share->sealed.size() / 2] ^= 0x01;
        net::Frame forged = frame;
        forged.payload = share->to_bytes();
        network.mac(r).handle_reception(forged, seen);
      });
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  ASSERT_TRUE(corrupted);
  EXPECT_GE(network.metrics().counter("icpda.share_bad_auth"), 1u);
  // Every reading is 1, so the honest sum is the count. A merged forged
  // share would throw the sum off it; instead the epoch is accepted
  // within th of it, or the cluster is written off.
  ASSERT_TRUE(rig.outcome.result.has_value());
  const bool within_th =
      rig.outcome.accepted() &&
      std::abs(rig.outcome.result->sum - rig.outcome.result->count) <= cfg.th;
  EXPECT_TRUE(within_th || rig.outcome.clusters_failed >= 1)
      << "sum " << rig.outcome.result->sum << ", count " << rig.outcome.result->count;
}

TEST(IcpdaProtocolTest, ReportFromExcludedNodeIsDropped) {
  constexpr net::NodeId kN = 200;
  const auto keys = master_keys();
  // X neighbours the base station, which would be its tree parent; the
  // mask excludes X.
  const net::NodeId x = net::Network(paper_network(kN, 28)).topology().neighbors(0).front();
  IcpdaConfig cfg;
  proto::HelloMsg mask_builder;
  for (net::NodeId id = 0; id < kN; ++id) {
    if (id != x) mask_builder.set_allowed(id, kN);
  }
  cfg.allowed_mask = mask_builder.allowed_mask;

  const auto run = [&](bool inject) {
    net::Network network(paper_network(kN, 28));
    Rig rig(network, cfg, proto::constant_reading(1.0), keys, {}, [&](Rig& r) {
      if (!inject) return;
      network.scheduler().after(sim::seconds(cfg.timing.start_delay_s + 1.0), [&] {
        proto::ReportMsg report;
        report.query_id = cfg.query_id;
        report.reporter = x;
        report.aggregate = proto::Aggregate::of(1000.0);
        report.items.push_back(proto::ReportItem{x, report.aggregate});
        net::Frame frame;
        frame.src = x;
        frame.dst = 0;
        frame.type = proto::kClusterReport;
        frame.payload = report.to_bytes();
        r.apps[0]->on_receive(network.node(0), frame);
      });
    });
    return std::pair{rig.outcome.result,
                     network.metrics().counter("icpda.report_from_excluded")};
  };
  const auto [clean, clean_rejects] = run(false);
  const auto [injected, rejects] = run(true);
  EXPECT_EQ(clean_rejects, 0u);
  EXPECT_EQ(rejects, 1u);
  ASSERT_TRUE(clean.has_value());
  ASSERT_TRUE(injected.has_value());
  EXPECT_EQ(*injected, *clean);  // bit-identical: the report was never merged
}

TEST(IcpdaProtocolTest, HelloPastTheHopBudgetIsDropped) {
  // With a one-hop budget only the base station's own HELLO (hop 0)
  // is joinable; its neighbours forward hop 1, which every node
  // further out must drop — counted, and without joining the tree.
  net::Network network(paper_network(200, 29));
  IcpdaConfig cfg;
  cfg.timing.max_hops = 1;
  const auto keys = master_keys();
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  EXPECT_GT(network.metrics().counter("icpda.hop_budget_exceeded"), 0u);
  const auto bs_neighbors = network.topology().neighbors(0);
  std::size_t beyond = 0;
  for (net::NodeId id = 1; id < network.size(); ++id) {
    if (std::find(bs_neighbors.begin(), bs_neighbors.end(), id) != bs_neighbors.end()) {
      continue;
    }
    ++beyond;
    EXPECT_FALSE(rig.apps[id]->joined_tree()) << "node " << id;
  }
  EXPECT_GT(beyond, 0u);
}

/// A frame from the masked-out node `x`, handed straight to each of its
/// neighbours once `ready` holds for that neighbour (polled every 5 ms
/// through Phase I), for the two receiver-side mask guards. Returns the
/// epoch's result, the frames on the air that `leaked` counts, and the
/// value of `metric`. With `inject` off the same poll runs and delivers
/// nothing, so the two runs differ only by the crafted frames.
struct MaskedFrameRun {
  std::optional<proto::Aggregate> result;
  std::size_t leaked = 0;
  std::uint64_t metric = 0;
};
MaskedFrameRun run_with_masked_frames(
    net::NodeId x, bool inject, const char* metric,
    const std::function<bool(const IcpdaApp&)>& ready,
    const std::function<net::Frame(net::NodeId to)>& craft,
    const std::function<bool(const net::Frame&)>& leaked) {
  constexpr net::NodeId kN = 200;
  const auto keys = master_keys();
  IcpdaConfig cfg;
  proto::HelloMsg mask_builder;
  for (net::NodeId id = 0; id < kN; ++id) {
    if (id != x) mask_builder.set_allowed(id, kN);
  }
  cfg.allowed_mask = mask_builder.allowed_mask;
  net::Network network(paper_network(kN, 31));
  MaskedFrameRun out;
  network.channel().add_tap([&](net::NodeId, const net::Frame& f) { out.leaked += leaked(f); });
  const auto neighbors = network.topology().neighbors(x);
  std::vector<bool> sent(kN, false);
  Rig rig(network, cfg, proto::constant_reading(1.0), keys, {}, [&](Rig& r) {
    for (int tick = 0; tick < 300; ++tick) {
      network.scheduler().after(sim::seconds(cfg.timing.start_delay_s + 0.005 * tick), [&] {
        for (const net::NodeId v : neighbors) {
          if (sent[v] || v == 0 || !ready(*r.apps[v])) continue;
          sent[v] = true;
          if (inject) r.apps[v]->on_receive(network.node(v), craft(v));
        }
      });
    }
  });
  EXPECT_TRUE(std::find(sent.begin(), sent.end(), true) != sent.end()) << "nobody was ready";
  out.result = rig.outcome.result;
  out.metric = network.metrics().counter(metric);
  return out;
}

TEST(IcpdaProtocolTest, ClusterHelloFromExcludedNodeIsNeverJoined) {
  // A masked-out node announces itself as a head to every neighbour:
  // at the query instant, before the flood brings them the mask, or
  // once each has heard the query. The guard drops the late
  // announcements on arrival and the early ones when the mask arrives,
  // so nobody ever sends it a join.
  constexpr net::NodeId x = 5;
  const auto run = [&](bool inject, const std::function<bool(const IcpdaApp&)>& ready) {
    return run_with_masked_frames(
        x, inject, "icpda.head_excluded_ignored", ready,
        [&](net::NodeId to) {
          proto::ClusterHelloMsg hello;
          hello.query_id = IcpdaConfig{}.query_id;
          hello.head = x;
          hello.hop = 1;
          net::Frame frame;
          frame.src = x;
          frame.dst = to;
          frame.type = proto::kClusterHello;
          frame.payload = hello.to_bytes();
          return frame;
        },
        [&](const net::Frame& f) {
          const auto join = f.type == proto::kJoin ? proto::JoinMsg::from_bytes(f.payload)
                                                   : std::nullopt;
          return join && join->head == x;
        });
  };
  const auto at_query_instant = [](const IcpdaApp&) { return true; };
  const auto after_the_query = [](const IcpdaApp& app) { return app.joined_tree(); };
  const MaskedFrameRun clean = run(false, after_the_query);
  EXPECT_EQ(clean.metric, 0u);
  ASSERT_TRUE(clean.result.has_value());
  for (const auto& ready : {std::function<bool(const IcpdaApp&)>(at_query_instant),
                            std::function<bool(const IcpdaApp&)>(after_the_query)}) {
    const MaskedFrameRun injected = run(true, ready);
    EXPECT_GE(injected.metric, 1u);
    EXPECT_EQ(injected.leaked, 0u) << "a node joined the excluded head";
    ASSERT_TRUE(injected.result.has_value());
    EXPECT_EQ(*injected.result, *clean.result);  // bit-identical: never heard
  }
}

TEST(IcpdaProtocolTest, JoinFromExcludedNodeNeverReachesTheRoster) {
  // A masked-out node asks every neighbouring head with an open roster
  // to admit it: the guard drops each join, so no roster lists it.
  constexpr net::NodeId x = 5;
  const auto run = [&](bool inject) {
    return run_with_masked_frames(
        x, inject, "icpda.join_excluded_ignored",
        [](const IcpdaApp& app) { return app.role() == ClusterRole::kHead; },
        [&](net::NodeId to) {
          proto::JoinMsg join;
          join.query_id = IcpdaConfig{}.query_id;
          join.member = x;
          join.head = to;
          net::Frame frame;
          frame.src = x;
          frame.dst = to;
          frame.type = proto::kJoin;
          frame.payload = join.to_bytes();
          return frame;
        },
        [&](const net::Frame& f) {
          const auto roster = f.type == proto::kClusterRoster
                                  ? proto::ClusterRosterMsg::from_bytes(f.payload)
                                  : std::nullopt;
          return roster && std::find(roster->members.begin(), roster->members.end(), x) !=
                               roster->members.end();
        });
  };
  const MaskedFrameRun clean = run(false);
  const MaskedFrameRun injected = run(true);
  EXPECT_EQ(clean.metric, 0u);
  EXPECT_GE(injected.metric, 1u);
  EXPECT_EQ(injected.leaked, 0u) << "a roster admitted the excluded node";
  ASSERT_TRUE(clean.result.has_value());
  ASSERT_TRUE(injected.result.has_value());
  EXPECT_EQ(*injected.result, *clean.result);
}

TEST(IcpdaProtocolTest, AppRequiresAttackPlanAndOutcome) {
  const auto keys = master_keys();
  const AttackPlan attack;
  IcpdaOutcome outcome;
  const auto make = [&](const AttackPlan* a, IcpdaOutcome* o) {
    return IcpdaApp(IcpdaConfig{}, proto::constant_reading(1.0), &keys, a, o);
  };
  EXPECT_THROW(make(nullptr, &outcome), std::invalid_argument);
  EXPECT_THROW(make(&attack, nullptr), std::invalid_argument);
  EXPECT_NO_THROW(make(&attack, &outcome));
}

/// Take over reception as ShareFailingAuthenticationIsNeverMerged
/// does: every intact frame reaches its receiver's MAC through
/// `rewrite`, which may edit the frame or return false to drop it.
void rewrite_deliveries(net::Network& network,
                        std::function<bool(net::NodeId receiver, net::Frame&)> rewrite) {
  auto last_seen =
      std::make_shared<std::map<std::pair<net::NodeId, net::NodeId>, std::uint32_t>>();
  network.channel().set_delivery([&network, last_seen, rewrite = std::move(rewrite)](
                                     net::NodeId r, const net::Frame& frame,
                                     net::ReceptionStatus status) {
    if (status != net::ReceptionStatus::kOk) return;
    if (frame.type == net::kMacAck && frame.dst != r) return;
    net::Frame delivered = frame;
    if (!rewrite(r, delivered)) return;
    network.mac(r).handle_reception(delivered, (*last_seen)[{frame.src, r}]);
  });
}

/// Pass every cluster digest copy that reaches one member — the first
/// non-head member of the first digest heard — through `forge` first.
/// Returns that member (kNoNode before any digest).
std::shared_ptr<net::NodeId> forge_member_digests(
    net::Network& network,
    std::function<void(proto::ClusterDigestMsg&, std::size_t member_idx)> forge) {
  auto target = std::make_shared<net::NodeId>(net::kNoNode);
  rewrite_deliveries(network, [target, forge = std::move(forge)](net::NodeId r,
                                                                  net::Frame& frame) {
    auto digest = frame.type == proto::kClusterDigest
                      ? proto::ClusterDigestMsg::from_bytes(frame.payload)
                      : std::nullopt;
    if (digest && *target == net::kNoNode && digest->members.size() >= 2) {
      *target = digest->members[1];
    }
    if (!digest || r != *target) return true;
    const auto at = std::find(digest->members.begin(), digest->members.end(), r);
    if (at == digest->members.end()) return true;  // a foreign cluster's digest
    forge(*digest, static_cast<std::size_t>(at - digest->members.begin()));
    frame.payload = digest->to_bytes();
    return true;
  });
  return target;
}

TEST(IcpdaProtocolTest, DigestForgingTheMembersOwnFIsCaught) {
  // Endorsement check 1: a digest whose entry for this member differs
  // from the F it sent is provable forgery by the head — counted,
  // alarmed as value tampering, and never endorsed.
  net::Network network(paper_network(200, 30));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  const auto target = forge_member_digests(
      network, [](proto::ClusterDigestMsg& d, std::size_t idx) { d.f_values[idx].sum += 1000.0; });
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  ASSERT_NE(*target, net::kNoNode);
  EXPECT_GE(network.metrics().counter("icpda.digest_forged_f"), 1u);
  const IcpdaApp& member = *rig.apps[*target];
  const auto alarm = std::find_if(
      rig.outcome.alarms.begin(), rig.outcome.alarms.end(),
      [&](const proto::AlarmMsg& a) { return a.witness == *target; });
  ASSERT_NE(alarm, rig.outcome.alarms.end());
  EXPECT_EQ(alarm->kind, proto::AlarmMsg::kValueTamper);
  EXPECT_EQ(alarm->accused, member.cluster().head());
  EXPECT_FALSE(member.cluster_value().has_value()) << "witness armed on a forged digest";
}

TEST(IcpdaProtocolTest, DigestWithAnotherContributorSetIsNotEndorsed) {
  // Endorsement check 2: a member cannot vouch for a solution over a
  // contributor set other than the one it assembled.
  net::Network network(paper_network(200, 30));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  const auto target = forge_member_digests(
      network, [](proto::ClusterDigestMsg& d, std::size_t) { d.contributors.push_back(0xBAD); });
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  ASSERT_NE(*target, net::kNoNode);
  EXPECT_GE(network.metrics().counter("icpda.digest_contributor_mismatch"), 1u);
  EXPECT_EQ(network.metrics().counter("icpda.digest_forged_f"), 0u);
  EXPECT_FALSE(rig.apps[*target]->cluster_value().has_value())
      << "witness armed on a digest it cannot vouch for";
}

TEST(IcpdaProtocolTest, RosterWithADuplicateSeedIsRefused) {
  // Interpolation needs distinct seeds: a member handed a round-0
  // roster that repeats one counts bad_roster, drops out unclustered
  // and never sends an F for it.
  net::Network network(paper_network(200, 30));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  net::NodeId target = net::kNoNode;
  rewrite_deliveries(network, [&](net::NodeId r, net::Frame& frame) {
    if (frame.type != proto::kClusterRoster) return true;
    auto roster = proto::ClusterRosterMsg::from_bytes(frame.payload);
    if (!roster || roster->round != 0 || roster->members.size() < 3) return true;
    if (target == net::kNoNode) target = roster->members[1];
    if (r != target || roster->members[1] != target) return true;
    roster->seeds.back() = roster->seeds.front();
    frame.payload = roster->to_bytes();
    return true;
  });
  std::size_t target_fs = 0;
  network.channel().add_tap([&](net::NodeId sender, const net::Frame& f) {
    target_fs += sender == target && f.type == proto::kFAnnounce;
  });
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  ASSERT_NE(target, net::kNoNode);
  EXPECT_GE(network.metrics().counter("icpda.bad_roster"), 1u);
  EXPECT_EQ(rig.apps[target]->role(), ClusterRole::kUnclustered);
  EXPECT_FALSE(rig.apps[target]->cluster().has_roster());
  EXPECT_EQ(target_fs, 0u) << "the member sent an F for a roster it refused";
  // A refused roster leaves its member out of the outcome's tally.
  const auto rostered = std::count_if(rig.apps.begin(), rig.apps.end(), [](const IcpdaApp* a) {
    return a->role() == ClusterRole::kMember && a->cluster().has_roster();
  });
  EXPECT_EQ(rig.outcome.members, static_cast<std::uint32_t>(rostered));
}

/// Rosters of the first cluster of >= 4 members: round 0 as its head
/// sent it, and the recovery roster (round 1) as it reached members[1].
struct RecoveryRosters {
  std::optional<proto::ClusterRosterMsg> round0, round1;
};

/// Drive that cluster through Phase II recovery: its last member's F
/// never reaches the head, so the head re-fixes its roster to the
/// survivors and reruns the share exchange as round 1. Every other
/// intact delivery then passes through `rewrite`.
void force_recovery(net::Network& network, RecoveryRosters& rosters,
                    std::function<bool(net::NodeId receiver, net::Frame&)> rewrite) {
  rewrite_deliveries(network, [&rosters, rewrite = std::move(rewrite)](net::NodeId r,
                                                                      net::Frame& frame) {
    const auto& round0 = rosters.round0;
    if (frame.type == proto::kFAnnounce && round0 && r == round0->head &&
        frame.src == round0->members.back()) {
      return false;  // the last member's F never reaches the head
    }
    if (frame.type == proto::kClusterRoster) {
      const auto roster = proto::ClusterRosterMsg::from_bytes(frame.payload);
      if (roster && !round0 && roster->round == 0 && roster->members.size() >= 4) {
        rosters.round0 = roster;
      } else if (roster && round0 && !rosters.round1 && roster->round == 1 &&
                 roster->head == round0->head && r == round0->members[1]) {
        rosters.round1 = roster;
      }
    }
    return rewrite(r, frame);
  });
}

/// The recovered cluster's sum is exact (constant reading 1.0: one per
/// survivor) at its head and at members[1], and nobody alarmed.
void expect_exact_recovery(const Rig& rig, const RecoveryRosters& rosters) {
  ASSERT_TRUE(rosters.round1.has_value()) << "the cluster never recovered";
  const double survivors = static_cast<double>(rosters.round1->members.size());
  for (const net::NodeId id : {rosters.round0->head, rosters.round0->members[1]}) {
    SCOPED_TRACE(id);
    const auto value = rig.apps[id]->cluster_value();
    ASSERT_TRUE(value.has_value());
    EXPECT_NEAR(value->count, survivors, 1e-6);
    EXPECT_NEAR(value->sum, survivors, 1e-6);
  }
  EXPECT_TRUE(rig.outcome.alarms.empty());
  EXPECT_TRUE(rig.outcome.accepted());
}

TEST(IcpdaProtocolTest, RecoveryRosterWithAZeroSeedLeavesRoundZeroIntact) {
  // A head whose F from one member never arrives re-fixes its roster
  // to the survivors (Phase II recovery). One surviving member gets
  // that recovery roster with a zero seed: it counts bad_roster and
  // keeps its round-0 roster and round, sending nothing for round 1.
  net::Network network(paper_network(200, 30));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  RecoveryRosters rosters;
  const auto& round0 = rosters.round0;
  force_recovery(network, rosters, [&](net::NodeId r, net::Frame& frame) {
    if (frame.type != proto::kClusterRoster || !round0 || r != round0->members[1]) {
      return true;
    }
    auto roster = proto::ClusterRosterMsg::from_bytes(frame.payload);
    if (!roster || roster->round == 0 || roster->head != round0->head) return true;
    roster->seeds.back() = 0;
    frame.payload = roster->to_bytes();
    return true;
  });
  std::size_t round1_frames = 0;
  network.channel().add_tap([&](net::NodeId sender, const net::Frame& f) {
    if (!round0 || sender != round0->members[1] || f.type != proto::kFAnnounce) return;
    const auto msg = proto::FAnnounceMsg::from_bytes(f.payload);
    round1_frames += msg && msg->round != 0;
  });
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  ASSERT_TRUE(round0.has_value());
  EXPECT_GE(network.metrics().counter("icpda.phase2_recovery"), 1u);
  EXPECT_GE(network.metrics().counter("icpda.bad_roster"), 1u);
  const ClusterContext& ctx = rig.apps[round0->members[1]]->cluster();
  EXPECT_EQ(ctx.members(), round0->members);
  EXPECT_EQ(ctx.seed_ints(), round0->seeds);
  EXPECT_EQ(round1_frames, 0u) << "the member ran the round it refused";
}

TEST(IcpdaProtocolTest, RoundZeroShareAfterRecoveryIsStale) {
  // Once members[1] holds the recovery roster, a survivor's round-0
  // share re-delivered to it belongs to a polynomial of the wrong
  // degree. It counts share_stale_round and leaves the survivor's
  // round-1 share in place, so the recovered sum stays exact.
  net::Network network(paper_network(200, 30));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  RecoveryRosters rosters;
  std::map<net::NodeId, net::Frame> round0_shares;  // to members[1], by sender
  bool replayed = false;
  Rig rig(network, cfg, proto::constant_reading(1.0), keys, {}, [&](Rig& rig) {
    force_recovery(network, rosters, [&](net::NodeId r, net::Frame& frame) {
      if (frame.type != proto::kShare || !rosters.round0 || replayed ||
          r != rosters.round0->members[1] || frame.dst != r) {
        return true;
      }
      const auto msg = proto::ShareMsg::from_bytes(frame.payload);
      if (!msg || msg->recipient != r) return true;
      if (!rosters.round1) {
        round0_shares.try_emplace(msg->sender, frame);
        return true;
      }
      const auto stale = round0_shares.find(msg->sender);
      if (stale == round0_shares.end()) return true;
      // This is the sender's round-1 share: re-deliver its round-0 one
      // right behind it, long before the member assembles its F.
      replayed = true;
      network.scheduler().after(sim::seconds(1e-4), [&, r, f = stale->second] {
        rig.apps[r]->on_receive(network.node(r), f);
      });
      return true;
    });
  });
  ASSERT_TRUE(replayed);
  EXPECT_EQ(network.metrics().counter("icpda.share_stale_round"), 1u);
  expect_exact_recovery(rig, rosters);
}

TEST(IcpdaProtocolTest, RoundZeroFAfterRecoveryIsStale) {
  // Once the head has re-fixed its roster, a survivor's round-0 F
  // re-delivered to it carries a different-degree polynomial and a
  // contributor list naming the lost member. It counts f_stale_round
  // and leaves the survivor's round-1 F in place.
  net::Network network(paper_network(200, 30));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  RecoveryRosters rosters;
  std::map<net::NodeId, net::Frame> round0_fs;  // to the head, by member
  bool replayed = false;
  Rig rig(network, cfg, proto::constant_reading(1.0), keys, {}, [&](Rig& rig) {
    force_recovery(network, rosters, [&](net::NodeId r, net::Frame& frame) {
      if (frame.type != proto::kFAnnounce || !rosters.round0 || replayed ||
          r != rosters.round0->head || frame.dst != r) {
        return true;
      }
      const auto msg = proto::FAnnounceMsg::from_bytes(frame.payload);
      if (!msg || msg->head != r || msg->member == r) return true;
      if (msg->round == 0) {
        round0_fs.try_emplace(msg->member, frame);
        return true;
      }
      const auto stale = round0_fs.find(msg->member);
      if (stale == round0_fs.end()) return true;
      // This is the member's round-1 F: re-deliver its round-0 one
      // right behind it, long before the head solves.
      replayed = true;
      network.scheduler().after(sim::seconds(1e-4), [&, r, f = stale->second] {
        rig.apps[r]->on_receive(network.node(r), f);
      });
      return true;
    });
  });
  ASSERT_TRUE(replayed);
  EXPECT_EQ(network.metrics().counter("icpda.f_stale_round"), 1u);
  expect_exact_recovery(rig, rosters);
}

TEST(IcpdaProtocolTest, HeadReportAuditedBeforeTheDigestIsNoKnowledge) {
  // A witness that has not solved its cluster sum has nothing to check
  // its head's own report against: it counts audit_no_knowledge and
  // raises no alarm. The member overhears a report from its head just
  // after taking its roster, long before any digest can arrive.
  net::Network network(paper_network(200, 30));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  net::NodeId target = net::kNoNode;
  bool armed_when_heard = true;
  Rig rig(network, cfg, proto::constant_reading(1.0), keys, {}, [&](Rig& r) {
    rewrite_deliveries(network, [&](net::NodeId receiver, net::Frame& frame) {
      if (target != net::kNoNode || frame.type != proto::kClusterRoster) return true;
      const auto roster = proto::ClusterRosterMsg::from_bytes(frame.payload);
      // Not members[1]: a head report stands that member down as the
      // cluster's backup reporter.
      if (!roster || roster->round != 0 || roster->members.size() < 3 ||
          receiver != roster->members.back()) {
        return true;
      }
      target = receiver;
      network.scheduler().after(sim::seconds(0.001), [&, head = roster->head] {
        IcpdaApp& member = *r.apps[target];
        armed_when_heard = member.cluster_value().has_value();
        ASSERT_EQ(member.role(), ClusterRole::kMember);
        proto::ReportMsg report;
        report.query_id = cfg.query_id;
        report.reporter = head;
        report.aggregate = proto::Aggregate::of(1.0);
        report.items.push_back(proto::ReportItem{head, report.aggregate});
        net::Frame frame;
        frame.src = head;
        frame.dst = 0;
        frame.type = proto::kClusterReport;
        frame.payload = report.to_bytes();
        member.on_overhear(network.node(target), frame);
      });
      return true;
    });
  });
  ASSERT_NE(target, net::kNoNode);
  EXPECT_FALSE(armed_when_heard) << "the member had solved its cluster sum already";
  EXPECT_EQ(network.metrics().counter("icpda.audit_no_knowledge"), 1u);
  EXPECT_EQ(network.metrics().counter("icpda.alarm_raised"), 0u);
  EXPECT_TRUE(rig.outcome.alarms.empty());
  EXPECT_TRUE(rig.outcome.accepted());
}

TEST(IcpdaProtocolTest, DigestWithAnotherMemberListIsMalformed) {
  // A digest is solved against the member's own roster seeds, so one
  // listing other members cannot be endorsed: the member counts
  // digest_malformed, never learns its cluster sum, and stands down at
  // its digest deadline.
  net::Network network(paper_network(200, 30));
  IcpdaConfig cfg;
  const auto keys = master_keys();
  const auto target = forge_member_digests(
      network, [](proto::ClusterDigestMsg& d, std::size_t idx) {
        d.members[idx == 0 ? 1 : 0] = 0xBAD;  // another member's id, not ours
      });
  Rig rig(network, cfg, proto::constant_reading(1.0), keys);
  ASSERT_NE(*target, net::kNoNode);
  EXPECT_GE(network.metrics().counter("icpda.digest_malformed"), 1u);
  const IcpdaApp& member = *rig.apps[*target];
  EXPECT_FALSE(member.cluster_value().has_value()) << "witness armed on a malformed digest";
  EXPECT_EQ(member.role(), ClusterRole::kUnclustered);
  EXPECT_GE(network.metrics().counter("icpda.digest_missed"), 1u);
}

TEST(IcpdaProtocolTest, ReportHandedTwiceToTheBaseStationIsMergedOnce) {
  // Reporter-level dedupe: the base station is handed the first child
  // report it receives a second time. That copy counts one more
  // report_duplicate than the run that saw one copy (re-hands already
  // cause a few there) and is not merged, so the result is
  // bit-identical to that run's; merged, it would count twice.
  const auto keys = master_keys();
  IcpdaConfig cfg;
  const auto run = [&](bool replay) {
    net::Network network(paper_network(200, 28));
    bool replayed = false;
    Rig rig(network, cfg, proto::constant_reading(1.0), keys, {}, [&](Rig& r) {
      rewrite_deliveries(network, [&](net::NodeId receiver, net::Frame& frame) {
        if (!replay || replayed || receiver != 0 || frame.dst != 0 ||
            frame.type != proto::kClusterReport) {
          return true;
        }
        replayed = true;
        network.scheduler().after(sim::seconds(0.001), [&, copy = frame] {
          r.apps[0]->on_receive(network.node(0), copy);
        });
        return true;
      });
    });
    EXPECT_EQ(replayed, replay);
    return std::pair{rig.outcome.result, network.metrics().counter("icpda.report_duplicate")};
  };
  const auto [once, once_duplicates] = run(false);
  const auto [twice, duplicates] = run(true);
  EXPECT_EQ(duplicates, once_duplicates + 1);
  ASSERT_TRUE(once.has_value());
  ASSERT_TRUE(twice.has_value());
  EXPECT_EQ(*twice, *once);
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
