// CPDA share algebra: reconstruction exactness and privacy structure,
// parameterized over cluster sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cpda_algebra.h"
#include "sim/rng.h"

namespace icpda::core {
namespace {

using proto::Aggregate;

TEST(CpdaAlgebraTest, DefaultSeedsAreDistinctNonZero) {
  const auto seeds = default_seeds(6);
  ASSERT_EQ(seeds.size(), 6u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_NE(seeds[i], 0.0);
    for (std::size_t j = i + 1; j < seeds.size(); ++j) EXPECT_NE(seeds[i], seeds[j]);
  }
}

TEST(CpdaAlgebraTest, LagrangeWeightsSumToOne) {
  // P(x) = 1 (constant) interpolates to 1 at zero: weights sum to 1.
  for (std::size_t m = 1; m <= 10; ++m) {
    const auto w = lagrange_weights_at_zero(default_seeds(m));
    ASSERT_EQ(w.size(), m);
    EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9) << "m=" << m;
  }
}

TEST(CpdaAlgebraTest, InvalidSeedsRejected) {
  EXPECT_TRUE(lagrange_weights_at_zero({}).empty());
  EXPECT_TRUE(lagrange_weights_at_zero({0.0, 1.0}).empty());
  EXPECT_TRUE(lagrange_weights_at_zero({1.0, 1.0}).empty());
  EXPECT_FALSE(solve_cluster_sum({1.0, 1.0}, {Aggregate{}, Aggregate{}}).has_value());
  EXPECT_FALSE(solve_cluster_sum({1.0, 2.0}, {Aggregate{}}).has_value());
}

/// Full pipeline property: m members make shares, assemble F_j, the
/// solver recovers the exact cluster sum.
class CpdaPipelineTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CpdaPipelineTest, RecoversClusterSum) {
  const std::size_t m = GetParam();
  sim::Rng rng(1000 + m);
  const auto seeds = default_seeds(m);

  for (int trial = 0; trial < 25; ++trial) {
    std::vector<Aggregate> values(m);
    Aggregate truth;
    for (auto& v : values) {
      v = Aggregate::of(rng.uniform(-100.0, 100.0));
      truth.merge(v);
    }
    // shares[i][j] = member i's share destined for member j.
    std::vector<std::vector<Aggregate>> shares(m);
    for (std::size_t i = 0; i < m; ++i) {
      make_shares_into(values[i], seeds, rng, shares[i]);
      ASSERT_EQ(shares[i].size(), m);
    }
    // F_j = sum_i shares[i][j].
    std::vector<Aggregate> assembled(m);
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t i = 0; i < m; ++i) assembled[j].merge(shares[i][j]);
    }
    const auto solved = solve_cluster_sum(seeds, assembled);
    ASSERT_TRUE(solved.has_value());
    // The Lagrange-at-zero weights grow ~4^m but the degree-scaled
    // coefficients keep shares O(coeff_scale), so the loss is bounded
    // by ~4^m * eps * coeff_scale.
    const double tol =
        std::max(1e-9, 2e-13 * 1000.0 * std::pow(4.0, static_cast<double>(m)));
    EXPECT_NEAR(solved->count, truth.count, tol * m);
    EXPECT_NEAR(solved->sum, truth.sum, tol * std::max(1.0, std::abs(truth.sum)));
    EXPECT_NEAR(solved->sum_sq, truth.sum_sq, 10 * tol * std::max(1.0, truth.sum_sq));
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, CpdaPipelineTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16));

TEST(CpdaAlgebraTest, SharesHideTheValue) {
  // No individual share equals (or obviously reveals) the value; and
  // the same value shared twice yields different shares (fresh
  // randomness).
  sim::Rng rng(77);
  const auto seeds = default_seeds(4);
  const Aggregate v = Aggregate::of(5.0);
  std::vector<Aggregate> s1, s2;
  make_shares_into(v, seeds, rng, s1);
  make_shares_into(v, seeds, rng, s2);
  int equal_count = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    if (std::abs(s1[j].sum - 5.0) < 1e-9) ++equal_count;
    EXPECT_NE(s1[j].sum, s2[j].sum);
  }
  EXPECT_EQ(equal_count, 0);
}

TEST(CpdaAlgebraTest, SingleMemberShareIsTheValue) {
  // m = 1: the polynomial is constant, the share IS the value.
  sim::Rng rng(5);
  const Aggregate v = Aggregate::of(3.5);
  std::vector<Aggregate> s;
  make_shares_into(v, default_seeds(1), rng, s);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], v);
}

TEST(CpdaAlgebraTest, PollutedAssemblyChangesSolution) {
  // Tampering any F_j changes the recovered sum (no silent absorption).
  sim::Rng rng(9);
  const auto seeds = default_seeds(3);
  std::vector<Aggregate> assembled(3);
  std::vector<std::vector<Aggregate>> shares(3);
  Aggregate truth;
  for (std::size_t i = 0; i < 3; ++i) {
    const Aggregate v = Aggregate::of(static_cast<double>(i + 1));
    truth.merge(v);
    make_shares_into(v, seeds, rng, shares[i]);
  }
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 3; ++i) assembled[j].merge(shares[i][j]);
  }
  auto tampered = assembled;
  tampered[1].sum += 10.0;
  const auto clean = solve_cluster_sum(seeds, assembled);
  const auto dirty = solve_cluster_sum(seeds, tampered);
  ASSERT_TRUE(clean && dirty);
  EXPECT_NEAR(clean->sum, truth.sum, 1e-8);
  EXPECT_GT(std::abs(dirty->sum - truth.sum), 1.0);
}

TEST(ShareBodyTest, RoundTrip) {
  ShareBody body;
  body.query_id = 11;
  body.share = {0.5, -1.5, 2.25};
  const auto back = ShareBody::from_bytes(body.to_bytes());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->query_id, 11u);
  EXPECT_EQ(back->share, body.share);
  EXPECT_FALSE(ShareBody::from_bytes(net::Bytes{1, 2}).has_value());
}

}  // namespace
}  // namespace icpda::core
