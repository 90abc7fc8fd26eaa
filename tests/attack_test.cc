// Byzantine adversary suite: per-attack-class behaviour of the active
// adversary layer (core::AdversaryPlan) and the hardening that detects
// and survives it (core::HardeningConfig).
//
// The differential test is the anchor: attacks::recover() solves the
// coalition's pooled linear system empirically, and its verdict must
// match the closed-form disclosure_predicate() from the Sen–Maitra
// rank argument on randomized synthetic clusters. The end-to-end tests
// then drive each attack class through real epochs: unhardened runs
// must demonstrably suffer the attack, hardened runs must detect it,
// and benign hardened runs must stay silent (zero false positives).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "attacks/sen_maitra.h"
#include "core/adversary.h"
#include "core/cpda_algebra.h"
#include "core/faults.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "proto/messages.h"
#include "sim/rng.h"

namespace icpda::core {
namespace {

crypto::MasterPairwiseScheme master_keys() {
  return crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x601D)};
}

/// The golden fixture's 30-node dense deployment: every node has
/// several neighbours in range, so clusters of size >= 3 form reliably.
net::NetworkConfig small_net(std::uint64_t seed) {
  net::NetworkConfig cfg;
  cfg.node_count = 30;
  cfg.field_width_m = 120.0;
  cfg.field_height_m = 120.0;
  cfg.range_m = 50.0;
  cfg.seed = seed;
  return cfg;
}

/// Epoch config with the fault-healing slack the recovery paths need.
IcpdaConfig epoch_config() {
  IcpdaConfig cfg;
  cfg.timing.close_slack_s = 2.5;
  return cfg;
}

/// Count this epoch's disclosed values via the coalition ledger, and
/// separately count how many of those are VALUE-verified against the
/// planted constant reading (every honest sensor read `reading`).
struct DisclosureCount {
  std::uint32_t disclosed = 0;
  std::uint32_t value_verified = 0;
};
DisclosureCount count_disclosures(const AdversaryState& st, double reading) {
  DisclosureCount out;
  for (const auto& [key, obs] : st.clusters) {
    if (key.first != st.epoch) continue;
    const auto view = attacks::view_from_observation(obs, st.nodes);
    const auto res = attacks::recover(view);
    out.disclosed += static_cast<std::uint32_t>(res.disclosed.size());
    if (res.disclosed.empty()) continue;
    const std::vector<double> known(view.members.size() - res.honest, reading);
    if (const auto v = attacks::recover_lone_value(view, known);
        v && std::abs(*v - reading) < 1e-6) {
      out.value_verified += static_cast<std::uint32_t>(res.disclosed.size());
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Differential: the empirical rank computation in attacks::recover()
// must agree with the closed-form Sen–Maitra predicate on randomized
// synthetic clusters — every cluster size, every coalition size, with
// and without the digest.

TEST(AttackTest, SenMaitraDifferential) {
  sim::Rng rng(0xA77AC4);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t m = static_cast<std::size_t>(rng.range(3, 6));

    // Public seeds: the protocol uses a shuffled permutation of 1..m.
    std::vector<double> seeds(m);
    for (std::size_t j = 0; j < m; ++j) seeds[j] = static_cast<double>(j + 1);
    rng.shuffle(seeds);

    // Private values and each member's share vector p_i(x_j).
    std::vector<double> values(m);
    std::vector<std::vector<proto::Aggregate>> shares(m);
    for (std::size_t i = 0; i < m; ++i) {
      values[i] = rng.uniform(-50.0, 50.0);
      shares[i] = make_shares(proto::Aggregate::of(values[i]), seeds, rng);
      ASSERT_EQ(shares[i].size(), m);
    }

    // Random coalition: 0..m-1 compromised members.
    const std::size_t coalition = static_cast<std::size_t>(rng.range(0, 3)) % m;
    attacks::CoalitionView view;
    view.seeds = seeds;
    view.compromised.assign(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      view.members.push_back(static_cast<std::uint32_t>(i + 1));
    }
    {
      std::vector<std::size_t> order(m);
      for (std::size_t i = 0; i < m; ++i) order[i] = i;
      rng.shuffle(order);
      for (std::size_t c = 0; c < coalition; ++c) view.compromised[order[c]] = 1;
    }

    // The coalition sees every share delivered to a compromised
    // recipient (the protocol delivers all m*m shares).
    for (std::size_t recipient = 0; recipient < m; ++recipient) {
      if (!view.compromised[recipient]) continue;
      for (std::size_t sender = 0; sender < m; ++sender) {
        view.shares[{recipient, sender}] = shares[sender][recipient].sum;
      }
    }

    // Digest coin: the head's broadcast F_j = sum_i p_i(x_j).
    const bool digest = rng.bernoulli(0.5);
    if (digest) {
      view.f_values.assign(m, 0.0);
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t i = 0; i < m; ++i) view.f_values[j] += shares[i][j].sum;
      }
    }

    const auto res = attacks::recover(view);
    const std::size_t honest = m - coalition;
    ASSERT_EQ(res.honest, honest);
    const bool predicted = attacks::disclosure_predicate(honest, digest);
    ASSERT_EQ(res.disclosed.size(), predicted ? 1u : 0u)
        << "iter " << iter << " m=" << m << " coalition=" << coalition
        << " digest=" << digest << " equations=" << res.equations
        << " nullity=" << res.nullity;

    // In the predicate case the closed-form numeric recovery must hand
    // back the lone honest member's planted value.
    std::vector<double> known;
    for (std::size_t i = 0; i < m; ++i) {
      if (view.compromised[i]) known.push_back(values[i]);
    }
    const auto v = attacks::recover_lone_value(view, known);
    if (predicted) {
      ASSERT_TRUE(v.has_value());
      std::size_t victim = m;
      for (std::size_t i = 0; i < m; ++i) {
        if (!view.compromised[i]) victim = i;
      }
      ASSERT_LT(victim, m);
      EXPECT_NEAR(*v, values[victim], 1e-6) << "iter " << iter;
    } else {
      EXPECT_FALSE(v.has_value()) << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------
// Epoch-freshness tag codec: allocation-free peek, staleness gate and
// the gated frame-type set.

TEST(AttackTest, EpochTagPeekAndStaleness) {
  proto::FAnnounceMsg msg;
  msg.query_id = 7;
  msg.head = 1;
  msg.member = 2;
  msg.epoch_tag = 0xDEADBEEF;
  const auto tagged = msg.to_bytes();
  EXPECT_EQ(proto::peek_epoch_tag(tagged), 0xDEADBEEFu);
  EXPECT_FALSE(proto::epoch_tag_stale(tagged, 0xDEADBEEF));
  EXPECT_TRUE(proto::epoch_tag_stale(tagged, 0xDEADBEEF + 1));
  // Gate off (expected == 0): nothing is ever stale.
  EXPECT_FALSE(proto::epoch_tag_stale(tagged, 0));

  // Untagged payloads are byte-identical to the legacy wire format and
  // fail a non-zero gate (an unhardened frame cannot prove freshness).
  msg.epoch_tag = 0;
  const auto untagged = msg.to_bytes();
  EXPECT_EQ(proto::peek_epoch_tag(untagged), 0u);
  EXPECT_TRUE(proto::epoch_tag_stale(untagged, 1));
  EXPECT_FALSE(proto::epoch_tag_stale(untagged, 0));

  // A round-trip decode must surface the tag.
  const auto decoded = proto::FAnnounceMsg::from_bytes(tagged);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch_tag, 0xDEADBEEFu);

  // The gate covers exactly the Phase II/III traffic.
  EXPECT_TRUE(proto::epoch_tag_gated(proto::kClusterRoster));
  EXPECT_TRUE(proto::epoch_tag_gated(proto::kShare));
  EXPECT_TRUE(proto::epoch_tag_gated(proto::kFAnnounce));
  EXPECT_TRUE(proto::epoch_tag_gated(proto::kClusterDigest));
  EXPECT_TRUE(proto::epoch_tag_gated(proto::kClusterReport));
  EXPECT_TRUE(proto::epoch_tag_gated(proto::kAlarm));
  EXPECT_FALSE(proto::epoch_tag_gated(proto::kHello));
  EXPECT_FALSE(proto::epoch_tag_gated(proto::kJoin));
}

// ---------------------------------------------------------------------
// Composability: a node that is both crashed and compromised resolves
// to crashed, deterministically (dead nodes run no attack code).

TEST(AttackTest, ResolveCompromisedSubtractsCrashed) {
  net::Network network(small_net(0x601D));
  AdversaryPlan plan;
  plan.attack = AttackClass::kPollution;
  plan.compromised = {3, 5};

  AdversaryState st;
  const std::vector<net::NodeId> crashed{5};
  const auto n = resolve_compromised(network, plan, crashed,
                                     network.rng().fork("t"), st);
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(st.is_compromised(3));
  EXPECT_FALSE(st.is_compromised(5));

  // The Bernoulli stream is drawn unconditionally, so the random part
  // of the resolved set is independent of the explicit part: same rng,
  // same fraction, different explicit sets -> identical random draw.
  AdversaryPlan a, b;
  a.attack = b.attack = AttackClass::kPollution;
  a.compromise_fraction = b.compromise_fraction = 0.5;
  b.compromised = {3};
  AdversaryState sa, sb;
  resolve_compromised(network, a, {}, network.rng().fork("same"), sa);
  resolve_compromised(network, b, {}, network.rng().fork("same"), sb);
  sa.nodes.insert(3);
  EXPECT_EQ(sa.nodes, sb.nodes);
}

TEST(AttackTest, CrashedAndCompromisedResolvesToCrashed) {
  const auto keys = master_keys();

  // Node 7 is both compromised (polluter) and crashed at t=0: the
  // crashed-first rule keeps it out of the compromised set and no
  // attack behaviour fires anywhere.
  {
    net::Network network(small_net(0x601D));
    AdversaryPlan plan;
    plan.attack = AttackClass::kPollution;
    plan.compromised = {7};
    AdversaryState st;
    FaultPlan faults;
    faults.crash_at_s[7] = 0.0;
    const auto out = run_icpda_epoch(network, epoch_config(),
                                     proto::constant_reading(1.0), keys, plan,
                                     st, faults);
    EXPECT_EQ(out.nodes_crashed, 1u);
    EXPECT_EQ(out.compromised_nodes, 0u);
    EXPECT_EQ(st.digests_forged, 0u);
    EXPECT_TRUE(out.accepted());
  }

  // With a second compromised node the attack survives the crash of
  // the first: only node 9 stays resolved.
  {
    net::Network network(small_net(0x601D));
    AdversaryPlan plan;
    plan.attack = AttackClass::kPollution;
    plan.compromised = {7, 9};
    AdversaryState st;
    FaultPlan faults;
    faults.crash_at_s[7] = 0.0;
    const auto out = run_icpda_epoch(network, epoch_config(),
                                     proto::constant_reading(1.0), keys, plan,
                                     st, faults);
    EXPECT_EQ(out.nodes_crashed, 1u);
    EXPECT_EQ(out.compromised_nodes, 1u);
    EXPECT_FALSE(st.is_compromised(7));
    EXPECT_TRUE(st.is_compromised(9));
  }
}

// ---------------------------------------------------------------------
// Disclosure end-to-end: an unhardened epoch leaks at least one honest
// value (value-verified, not just rank-determined); the anonymity
// floor starves the coalition of small rosters.

TEST(AttackTest, DisclosureLeaksUnhardenedAndAnonymityFloorBlocks) {
  const auto keys = master_keys();
  AdversaryPlan plan;
  plan.attack = AttackClass::kDisclosure;
  plan.compromised = {3, 13, 23};

  // Seed 3: the coalition heads attract multi-honest joiner sets, so
  // roster engineering (not just luck) produces the tiny clusters.
  {
    net::Network network(small_net(3));
    AdversaryState st;
    const auto out = run_icpda_epoch(network, epoch_config(),
                                     proto::constant_reading(1.0), keys, plan, st);
    EXPECT_EQ(out.compromised_nodes, 3u);
    EXPECT_GE(st.rosters_engineered, 1u);
    const auto d = count_disclosures(st, 1.0);
    EXPECT_GE(d.disclosed, 1u);
    // Every rank-determined value must ALSO numerically match the
    // planted reading — disclosure is real, not a solver artifact.
    EXPECT_EQ(d.value_verified, d.disclosed);
  }

  // Hardened: honest members refuse rosters below the anonymity floor,
  // so the engineered tiny clusters never assemble around a victim.
  {
    net::Network network(small_net(3));
    AdversaryState st;
    auto cfg = epoch_config();
    cfg.hardening.epoch_tag = 1;
    cfg.hardening.min_honest_anonymity = 4;
    const auto out = run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                     keys, plan, st);
    EXPECT_GE(out.rosters_refused, 1u);
    const auto d = count_disclosures(st, 1.0);
    EXPECT_EQ(d.disclosed, 0u);
  }
}

// ---------------------------------------------------------------------
// Pollution end-to-end: the calibrated own-entry forgery slides past
// the naive endorsement checks unhardened (accepted epoch, biased by
// exactly delta per forged digest); the on-air F self-commitment
// cross-check catches and attributes it.

TEST(AttackTest, PollutionBiasesUnhardenedAndCrosscheckCatches) {
  const auto keys = master_keys();
  AdversaryPlan plan;
  plan.attack = AttackClass::kPollution;
  plan.compromised = {3};

  {
    net::Network network(small_net(0x601D));
    AdversaryState st;
    const auto out = run_icpda_epoch(network, epoch_config(),
                                     proto::constant_reading(1.0), keys, plan, st);
    ASSERT_TRUE(out.result.has_value());
    EXPECT_GE(st.digests_forged, 1u);
    // No member endorses the head's own digest entry, so the forged
    // epoch is ACCEPTED — that is the vulnerability.
    EXPECT_TRUE(out.accepted());
    // The Lagrange calibration shifts the aggregate by exactly delta
    // per forged digest (all readings are 1.0, so truth is count*1).
    EXPECT_NEAR(std::abs(out.result->sum - out.result->count),
                plan.pollution_delta * st.digests_forged, 1e-6);
  }

  // Hardened: the head's own on-air F announcement pins a commitment
  // every listener can replay against the digest.
  {
    net::Network network(small_net(0x601D));
    AdversaryState st;
    auto cfg = epoch_config();
    cfg.hardening.epoch_tag = 1;
    cfg.hardening.digest_crosscheck = true;
    const auto out = run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                     keys, plan, st);
    EXPECT_GE(st.digests_forged, 1u);
    EXPECT_GE(out.crosscheck_alarms, 1u);
    // The attributable value-tamper alarm rejects the epoch.
    EXPECT_FALSE(out.accepted());
  }
}

// A non-finite forgery must trip the hardened cross-check too: the
// head's digest entry minus its on-air commitment is NaN, and a NaN
// difference exceeds every tolerance.
TEST(AttackTest, NonFinitePollutionTripsCrosscheck) {
  const auto keys = master_keys();
  for (const double delta : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    AdversaryPlan plan;
    plan.attack = AttackClass::kPollution;
    plan.compromised = {3};
    plan.pollution_delta = delta;
    net::Network network(small_net(0x601D));
    AdversaryState st;
    auto cfg = epoch_config();
    cfg.hardening.epoch_tag = 1;
    cfg.hardening.digest_crosscheck = true;
    const auto out =
        run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys, plan, st);
    EXPECT_GE(st.digests_forged, 1u) << "delta " << delta;
    EXPECT_GE(out.crosscheck_alarms, 1u) << "delta " << delta;
    EXPECT_FALSE(out.accepted()) << "delta " << delta;
  }
}

// ---------------------------------------------------------------------
// Replay end-to-end: frames captured in epoch 1 are re-injected in
// epoch 2. Unhardened receivers accept them; the freshness gate drops
// every one, and stays silent across benign hardened epochs.

TEST(AttackTest, ReplayInjectsUnhardenedAndFreshnessGateRejects) {
  const auto keys = master_keys();
  AdversaryPlan plan;
  plan.attack = AttackClass::kReplay;
  plan.compromised = {5, 9};

  {
    net::Network network(small_net(0x601D));
    AdversaryState st;
    for (std::uint32_t e = 1; e <= 2; ++e) {
      const auto out = run_icpda_epoch(network, epoch_config(),
                                       proto::constant_reading(double(e)), keys,
                                       plan, st);
      EXPECT_EQ(out.replay_rejections, 0u);  // nothing gates them
    }
    EXPECT_GT(st.replays_injected, 0u);
  }

  {
    net::Network network(small_net(0x601D));
    AdversaryState st;
    std::uint32_t rejections = 0;
    for (std::uint32_t e = 1; e <= 2; ++e) {
      auto cfg = epoch_config();
      cfg.hardening.epoch_tag = e;
      const auto out = run_icpda_epoch(network, cfg,
                                       proto::constant_reading(double(e)), keys,
                                       plan, st);
      rejections += out.replay_rejections;
    }
    EXPECT_GT(st.replays_injected, 0u);
    EXPECT_GT(rejections, 0u);
  }

  // Benign false-positive control: hardened epochs with no adversary
  // must never trip the gate (every sender stamps the current tag).
  {
    net::Network network(small_net(0x601D));
    AdversaryPlan benign;
    AdversaryState st;
    for (std::uint32_t e = 1; e <= 2; ++e) {
      auto cfg = epoch_config();
      cfg.hardening.epoch_tag = e;
      const auto out = run_icpda_epoch(network, cfg,
                                       proto::constant_reading(double(e)), keys,
                                       benign, st);
      EXPECT_EQ(out.compromised_nodes, 0u);
      EXPECT_EQ(out.replay_rejections, 0u);
      EXPECT_TRUE(out.accepted());
    }
  }
}

// ---------------------------------------------------------------------
// Withholding end-to-end: a compromised member starves the Vandermonde
// solve while announcing F. Unhardened recovery re-admits the starver;
// attribution excludes it and the cluster completes.

TEST(AttackTest, WithholdingStarvesUnhardenedAndAttributionRecovers) {
  const auto keys = master_keys();
  AdversaryPlan plan;
  plan.attack = AttackClass::kWithhold;
  plan.compromised = {3, 13, 23};

  {
    net::Network network(small_net(0x601D));
    AdversaryState st;
    const auto out = run_icpda_epoch(network, epoch_config(),
                                     proto::constant_reading(1.0), keys, plan, st);
    EXPECT_GT(st.shares_withheld, 0u);
    // The naive recovery round re-admits the announcing starver, so
    // starved clusters stay starved (failed) or churn through
    // recovery without completing.
    EXPECT_GT(out.clusters_failed +
                  network.metrics().counter("icpda.phase2_recovery"),
              0u);
    EXPECT_EQ(out.withholders_flagged, 0u);
  }

  {
    net::Network network(small_net(0x601D));
    AdversaryState st;
    auto cfg = epoch_config();
    cfg.hardening.epoch_tag = 1;
    cfg.hardening.attribute_withholders = true;
    const auto out = run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                     keys, plan, st);
    EXPECT_GT(st.shares_withheld, 0u);
    // Attribution: announced, nobody lists it as contributor -> flagged
    // and excluded from the recovery roster, which then completes.
    EXPECT_GE(out.withholders_flagged, 1u);
    EXPECT_GE(network.metrics().counter("icpda.cluster_recovered"), 1u);
    EXPECT_TRUE(out.accepted());
  }
}

}  // namespace
}  // namespace icpda::core
