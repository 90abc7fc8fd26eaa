// RunningStats::merge and MetricRegistry::merge — the reduction
// semantics the parallel campaign runner depends on
// (runner/campaign.h): merging per-cell accumulators in a fixed order
// must reproduce the sequential accumulation to floating-point-identity
// levels of agreement.
#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.h"

namespace icpda::sim {
namespace {

std::vector<double> random_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-50.0, 150.0);
  return v;
}

TEST(RunningStatsMergeTest, EmptyMergeEmptyIsEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_TRUE(std::isnan(a.min()));
  EXPECT_TRUE(std::isnan(a.max()));
}

TEST(RunningStatsMergeTest, EmptyMergeNonemptyAdoptsIt) {
  RunningStats a, b;
  b.add(2.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(RunningStatsMergeTest, NonemptyMergeEmptyIsUnchanged) {
  RunningStats a, b;
  a.add(1.0);
  a.add(5.0);
  const double mean = a.mean();
  const double var = a.variance();
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_DOUBLE_EQ(a.variance(), var);
}

TEST(RunningStatsMergeTest, SplitVersusWholeEquivalence) {
  const auto samples = random_samples(1000, 0xA11CE);
  RunningStats whole;
  for (const double x : samples) whole.add(x);

  for (const std::size_t split : {1u, 137u, 500u, 999u}) {
    RunningStats left, right;
    for (std::size_t i = 0; i < split; ++i) left.add(samples[i]);
    for (std::size_t i = split; i < samples.size(); ++i) right.add(samples[i]);
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.sum(), whole.sum(), 1e-8);
  }
}

TEST(RunningStatsMergeTest, ManyChunksMergedInOrderMatchWhole) {
  // The campaign reduction shape: one accumulator per trial, merged in
  // ascending trial order.
  const auto samples = random_samples(600, 0xBEE);
  RunningStats whole;
  for (const double x : samples) whole.add(x);

  RunningStats reduced;
  for (std::size_t chunk = 0; chunk < 60; ++chunk) {
    RunningStats cell;
    for (std::size_t i = chunk * 10; i < (chunk + 1) * 10; ++i) cell.add(samples[i]);
    reduced.merge(cell);
  }
  EXPECT_EQ(reduced.count(), whole.count());
  EXPECT_NEAR(reduced.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(reduced.variance(), whole.variance(), 1e-9);
  EXPECT_NEAR(reduced.sem(), whole.sem(), 1e-12);
}

TEST(RunningStatsMergeTest, MergeIsDeterministic) {
  // Same chunking, same order -> bitwise-identical accumulator state.
  const auto samples = random_samples(200, 0xD5);
  const auto reduce = [&] {
    RunningStats acc;
    for (std::size_t chunk = 0; chunk < 20; ++chunk) {
      RunningStats cell;
      for (std::size_t i = chunk * 10; i < (chunk + 1) * 10; ++i) cell.add(samples[i]);
      acc.merge(cell);
    }
    return acc;
  };
  const RunningStats a = reduce();
  const RunningStats b = reduce();
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.sum(), b.sum());
}

TEST(MetricRegistryMergeTest, CountersAddAndStatsMerge) {
  MetricRegistry a, b;
  a.add("shared", 2);
  a.add("only_a");
  a.observe("lat", 1.0);
  b.add("shared", 3);
  b.add("only_b", 7);
  b.observe("lat", 3.0);
  b.observe("cov", 0.5);

  a.merge(b);
  EXPECT_EQ(a.counter("shared"), 5u);
  EXPECT_EQ(a.counter("only_a"), 1u);
  EXPECT_EQ(a.counter("only_b"), 7u);
  EXPECT_EQ(a.stat("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(a.stat("lat").mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.stat("cov").mean(), 0.5);
}

TEST(MetricRegistryMergeTest, MergeWithEmptyIsIdentityBothWays) {
  MetricRegistry a, empty;
  a.add("c", 4);
  a.observe("s", 2.5);

  MetricRegistry forward = a;
  forward.merge(empty);
  EXPECT_EQ(forward.counter("c"), 4u);
  EXPECT_EQ(forward.stat("s").count(), 1u);

  MetricRegistry backward = empty;
  backward.merge(a);
  EXPECT_EQ(backward.counter("c"), 4u);
  EXPECT_DOUBLE_EQ(backward.stat("s").mean(), 2.5);
}

}  // namespace
}  // namespace icpda::sim
