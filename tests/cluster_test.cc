// ClusterContext: roster validation, share bookkeeping, consistency,
// end-to-end in-memory cluster rounds.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "sim/rng.h"

namespace icpda::core {
namespace {

using proto::Aggregate;

ClusterContext make_cluster(net::NodeId self) {
  ClusterContext ctx;
  EXPECT_TRUE(ctx.set_roster(10, {10, 20, 30}, {1, 2, 3}, self));
  return ctx;
}

TEST(ClusterContextTest, RosterValidation) {
  ClusterContext ctx;
  EXPECT_FALSE(ctx.set_roster(1, {}, {}, 1));                    // empty
  EXPECT_FALSE(ctx.set_roster(1, {1, 2}, {1}, 1));               // size mismatch
  EXPECT_FALSE(ctx.set_roster(1, {1, 2}, {1, 1}, 1));            // dup seeds
  EXPECT_FALSE(ctx.set_roster(1, {1, 2}, {0, 1}, 1));            // zero seed
  EXPECT_FALSE(ctx.set_roster(1, {1, 2}, {1, 2}, 3));            // self missing
  EXPECT_TRUE(ctx.set_roster(1, {1, 2}, {2, 1}, 2));
  EXPECT_TRUE(ctx.has_roster());
  EXPECT_EQ(ctx.head(), 1u);
  EXPECT_EQ(ctx.size(), 2u);
  EXPECT_EQ(ctx.my_index(), 1u);
  EXPECT_DOUBLE_EQ(ctx.my_seed(), 1.0);
}

TEST(ClusterContextTest, SeedLookup) {
  const auto ctx = make_cluster(20);
  EXPECT_DOUBLE_EQ(*ctx.seed_of(10), 1.0);
  EXPECT_DOUBLE_EQ(*ctx.seed_of(30), 3.0);
  EXPECT_FALSE(ctx.seed_of(99).has_value());
  EXPECT_TRUE(ctx.in_roster(20));
  EXPECT_FALSE(ctx.in_roster(21));
  EXPECT_EQ(ctx.seed_values(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(ClusterContextTest, AssembleSumsKeptAndReceived) {
  auto ctx = make_cluster(20);
  ctx.set_kept_share(Aggregate{1, 2, 3});
  ctx.record_share(10, Aggregate{10, 20, 30});
  ctx.record_share(30, Aggregate{100, 200, 300});
  std::vector<std::uint32_t> contributors;
  const auto f = ctx.assemble(contributors);
  EXPECT_EQ(f, (Aggregate{111, 222, 333}));
  EXPECT_EQ(contributors, (std::vector<std::uint32_t>{10, 20, 30}));
}

TEST(ClusterContextTest, RepeatShareOverwrites) {
  auto ctx = make_cluster(20);
  ctx.set_kept_share(Aggregate{});
  ctx.record_share(10, Aggregate{1, 1, 1});
  ctx.record_share(10, Aggregate{2, 2, 2});  // retransmission
  std::vector<std::uint32_t> contributors;
  EXPECT_EQ(ctx.assemble(contributors), (Aggregate{2, 2, 2}));
  EXPECT_EQ(ctx.shares_received(), 1u);
}

TEST(ClusterContextTest, ConsistencyRequiresIdenticalContributorSets) {
  auto ctx = make_cluster(10);
  ctx.record_announce(10, Aggregate{}, {10, 20, 30});
  ctx.record_announce(20, Aggregate{}, {30, 20, 10});  // same set, unsorted
  ctx.record_announce(30, Aggregate{}, {10, 20, 30});
  EXPECT_TRUE(ctx.complete());
  EXPECT_TRUE(ctx.consistent());
  EXPECT_EQ(ctx.contributor_set(), (std::vector<std::uint32_t>{10, 20, 30}));
}

TEST(ClusterContextTest, InconsistentSetsDetected) {
  auto ctx = make_cluster(10);
  ctx.record_announce(10, Aggregate{}, {10, 20, 30});
  ctx.record_announce(20, Aggregate{}, {10, 20});
  ctx.record_announce(30, Aggregate{}, {10, 20, 30});
  EXPECT_TRUE(ctx.complete());
  EXPECT_FALSE(ctx.consistent());
  EXPECT_FALSE(ctx.solve().has_value());
}

TEST(ClusterContextTest, IncompleteAnnouncesBlockSolve) {
  auto ctx = make_cluster(10);
  ctx.record_announce(10, Aggregate{}, {10, 20, 30});
  EXPECT_FALSE(ctx.complete());
  EXPECT_FALSE(ctx.solve().has_value());
}

TEST(ClusterContextTest, AnnouncesFromStrangersIgnored) {
  auto ctx = make_cluster(10);
  ctx.record_announce(99, Aggregate{}, {10, 20, 30});
  EXPECT_EQ(ctx.announces_received(), 0u);
}

TEST(ClusterContextTest, FullRoundSolvesClusterSum) {
  // Simulate the whole Phase II across three in-memory contexts.
  sim::Rng rng(42);
  const std::vector<std::uint32_t> members{10, 20, 30};
  const std::vector<std::uint32_t> seeds{1, 2, 3};
  const std::vector<double> values{4.0, -7.5, 11.25};

  std::vector<ClusterContext> ctxs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ctxs[i].set_roster(10, members, seeds, members[i]));
  }
  // Share exchange.
  const auto seed_vals = ctxs[0].seed_values();
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<Aggregate> shares;
    make_shares_into(Aggregate::of(values[i]), seed_vals, rng, shares);
    for (std::size_t j = 0; j < 3; ++j) {
      if (j == i) {
        ctxs[i].set_kept_share(shares[j]);
      } else {
        ctxs[j].record_share(members[i], shares[j]);
      }
    }
  }
  // Announcements (everyone to everyone through the head's digest in
  // the live protocol; modelled directly here).
  for (std::size_t j = 0; j < 3; ++j) {
    std::vector<std::uint32_t> contributors;
    const auto f = ctxs[j].assemble(contributors);
    for (auto& ctx : ctxs) ctx.record_announce(members[j], f, contributors);
  }
  for (const auto& ctx : ctxs) {
    ASSERT_TRUE(ctx.complete());
    ASSERT_TRUE(ctx.consistent());
    const auto v = ctx.solve();
    ASSERT_TRUE(v.has_value());
    EXPECT_NEAR(v->sum, 4.0 - 7.5 + 11.25, 1e-8);
    EXPECT_NEAR(v->count, 3.0, 1e-8);
  }
}

TEST(ClusterContextTest, ConsistentSubsetStillSolvable) {
  // Member 30 never sent shares; everyone assembled without it — the
  // interpolation then recovers the sum over {10, 20} only.
  sim::Rng rng(43);
  const std::vector<std::uint32_t> members{10, 20, 30};
  const std::vector<std::uint32_t> seeds{1, 2, 3};
  std::vector<ClusterContext> ctxs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ctxs[i].set_roster(10, members, seeds, members[i]));
  }
  const auto seed_vals = ctxs[0].seed_values();
  const std::vector<double> values{5.0, 6.0};
  for (std::size_t i = 0; i < 2; ++i) {  // only members 10, 20 share
    std::vector<Aggregate> shares;
    make_shares_into(Aggregate::of(values[i]), seed_vals, rng, shares);
    for (std::size_t j = 0; j < 3; ++j) {
      if (j == i) {
        ctxs[i].set_kept_share(shares[j]);
      } else {
        ctxs[j].record_share(members[i], shares[j]);
      }
    }
  }
  // Member 30 still assembles (only received shares, kept none).
  for (std::size_t j = 0; j < 3; ++j) {
    std::vector<std::uint32_t> contributors;
    const auto f = ctxs[j].assemble(contributors);
    for (auto& ctx : ctxs) ctx.record_announce(members[j], f, contributors);
  }
  // Contributor sets: {10,20} for member 30 vs {10,20} + self-kept for
  // 10 and 20 — j=0 assembles kept(10) + share from 20 = {10,20}; same
  // for j=1; j=2 assembles shares from 10, 20 = {10,20}. All equal.
  for (const auto& ctx : ctxs) {
    ASSERT_TRUE(ctx.consistent());
    const auto v = ctx.solve();
    ASSERT_TRUE(v.has_value());
    EXPECT_NEAR(v->sum, 11.0, 1e-8);
    EXPECT_NEAR(v->count, 2.0, 1e-8);
  }
}

TEST(ClusterContextTest, AnnouncedFValuesInRosterOrder) {
  auto ctx = make_cluster(10);
  ctx.record_announce(20, Aggregate{2, 2, 2}, {10, 20, 30});
  ctx.record_announce(10, Aggregate{1, 1, 1}, {10, 20, 30});
  const auto fs = ctx.announced_f_values();
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0], (Aggregate{1, 1, 1}));
  EXPECT_EQ(fs[1], (Aggregate{2, 2, 2}));
  EXPECT_EQ(fs[2], Aggregate{});  // missing -> zero slot
}

}  // namespace
}  // namespace icpda::core
