// End-to-end privacy: take the ACTUAL clusters a live epoch formed and
// audit disclosure with the rank test, under eavesdropping strengths
// derived from the ACTUAL key scheme + captured nodes (wiretap). This
// closes the loop between the protocol implementation and the
// analytical privacy claims.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "attacks/eavesdropper.h"
#include "attacks/wiretap.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"

namespace icpda {
namespace {

struct EpochRig {
  EpochRig(net::Network& network, const core::IcpdaConfig& cfg,
           const crypto::KeyScheme& keys) {
    network.attach_apps([&, this](net::Node&) {
      auto app = std::make_unique<core::IcpdaApp>(
          cfg, proto::constant_reading(1.0), &keys, &attack, &outcome);
      apps.push_back(app.get());
      return app;
    });
    network.run(sim::seconds(core::nominal_epoch_s(cfg) + core::kEpochDrainGraceS));
  }
  core::AttackPlan attack;
  core::IcpdaOutcome outcome;
  std::vector<core::IcpdaApp*> apps;
};

/// Build a ClusterView for the live cluster headed by `head_app`,
/// marking share links readable per the wiretap.
attacks::ClusterView view_of(const core::IcpdaApp& head_app,
                             const attacks::Wiretap& tap) {
  const auto& ctx = head_app.cluster();
  const auto& members = ctx.members();
  auto view = attacks::ClusterView::clean(members.size());
  view.seeds = ctx.seed_values();
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (i == j) continue;
      // A share i->j is observable iff the attacker can read BOTH legs
      // of the star relay (i->head and head->j) — or the direct link
      // when one endpoint is the head. The payload is sealed end to
      // end under k_{ij}, so what actually matters is that one key:
      // the wiretap reads it iff it holds k_{ij}'s link.
      view.broken[i][j] = tap.link_readable(members[i], members[j]);
    }
  }
  return view;
}

TEST(PrivacyEndToEndTest, PairwiseKeysLeakNothingWithoutCaptures) {
  net::NetworkConfig ncfg;
  ncfg.node_count = 350;
  ncfg.seed = 91;
  net::Network network(ncfg);
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(1)};
  const attacks::Wiretap tap(keys, {});
  core::IcpdaConfig cfg;
  EpochRig rig(network, cfg, keys);

  int clusters_checked = 0;
  for (auto* app : rig.apps) {
    if (app->role() != core::ClusterRole::kHead || app->cluster().size() < 3) continue;
    const auto disclosed = view_of(*app, tap).disclosed();
    for (const bool d : disclosed) EXPECT_FALSE(d);
    ++clusters_checked;
  }
  EXPECT_GT(clusters_checked, 20);
}

TEST(PrivacyEndToEndTest, CapturedMembersExposeExactlyTheAlgebraicVictims) {
  net::NetworkConfig ncfg;
  ncfg.node_count = 350;
  ncfg.seed = 92;
  net::Network network(ncfg);
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(2)};
  core::IcpdaConfig cfg;
  EpochRig rig(network, cfg, keys);

  // For each live cluster of size >= 3, capture all members but one:
  // the remaining member's reading must be disclosed (m-1 collusion);
  // capture all but two: nothing is.
  int exposed_checks = 0;
  int safe_checks = 0;
  for (auto* app : rig.apps) {
    if (app->role() != core::ClusterRole::kHead) continue;
    const auto& members = app->cluster().members();
    if (members.size() < 3 || exposed_checks >= 8) continue;

    auto view = attacks::ClusterView::clean(members.size());
    view.seeds = app->cluster().seed_values();
    for (std::size_t c = 1; c < members.size(); ++c) view.colluders[c] = true;
    EXPECT_TRUE(view.disclosed()[0]) << "cluster head " << members[0];
    ++exposed_checks;

    view.colluders[1] = false;  // now only m-2 colluders
    const auto d = view.disclosed();
    EXPECT_FALSE(d[0]);
    EXPECT_FALSE(d[1]);
    ++safe_checks;
  }
  EXPECT_GT(exposed_checks, 3);
  EXPECT_EQ(exposed_checks, safe_checks);
}

TEST(PrivacyEndToEndTest, EgKeyReuseCreatesMeasurableExposure) {
  net::NetworkConfig ncfg;
  ncfg.node_count = 300;
  ncfg.seed = 93;
  net::Network network(ncfg);
  sim::Rng rng(7);
  // Heavy key reuse: small pool.
  const crypto::EgPredistribution keys(300, 400, 50, rng);
  attacks::Wiretap tap(keys, {10, 60, 110, 160, 210, 260});
  core::IcpdaConfig cfg;
  EpochRig rig(network, cfg, keys);

  std::size_t victims = 0;
  std::size_t members_total = 0;
  for (auto* app : rig.apps) {
    if (app->role() != core::ClusterRole::kHead || app->cluster().size() < 2) continue;
    const auto disclosed = view_of(*app, tap).disclosed();
    for (const bool d : disclosed) victims += d ? 1 : 0;
    members_total += disclosed.size();
  }
  ASSERT_GT(members_total, 50u);
  // Reuse this heavy must expose someone, but far from everyone.
  EXPECT_GT(victims, 0u);
  EXPECT_LT(victims, members_total / 2);
}

}  // namespace
}  // namespace icpda
