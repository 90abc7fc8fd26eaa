// Network substrate: geometry, topology, wire format.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/geometry.h"
#include "net/topology.h"
#include "sim/rng.h"

namespace icpda::net {
namespace {

// ---- geometry -------------------------------------------------------

TEST(GeometryTest, DistanceBasics) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({1, 1}, {1, 1}), 0.0);
}

TEST(FieldTest, SamplingStaysInside) {
  const Field field(400, 400);
  sim::Rng rng(1);
  for (const auto& p : field.sample_n(rng, 1000)) {
    EXPECT_TRUE(field.contains(p));
  }
  EXPECT_EQ(field.center().x, 200);
  EXPECT_THROW(Field(0, 10), std::invalid_argument);
}

TEST(FieldTest, ExpectedDegreeFormula) {
  const Field field(400, 400);
  // (n-1) * pi * 50^2 / 160000
  EXPECT_NEAR(field.expected_degree(400, 50.0), 399 * 3.14159265 * 2500 / 160000, 0.01);
  EXPECT_DOUBLE_EQ(field.expected_degree(0, 50.0), 0.0);
}

// ---- topology -------------------------------------------------------

TEST(TopologyTest, MatchesBruteForceAdjacency) {
  sim::Rng rng(5);
  const Field field(400, 400);
  const auto pts = field.sample_n(rng, 150);
  const double r = 50.0;
  const Topology topo(pts, r);
  for (NodeId a = 0; a < pts.size(); ++a) {
    for (NodeId b = 0; b < pts.size(); ++b) {
      if (a == b) continue;
      const bool expected = distance(pts[a], pts[b]) <= r;
      EXPECT_EQ(topo.adjacent(a, b), expected) << a << "," << b;
    }
  }
}

TEST(TopologyTest, DegreeAndEdgeAccounting) {
  // Three collinear points, spacing 10, range 10: 0-1 and 1-2 adjacent.
  const Topology topo({{0, 0}, {10, 0}, {20, 0}}, 10.0);
  EXPECT_EQ(topo.degree(0), 1u);
  EXPECT_EQ(topo.degree(1), 2u);
  EXPECT_EQ(topo.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(topo.average_degree(), 4.0 / 3.0);
  EXPECT_EQ(topo.min_degree(), 1u);
}

TEST(TopologyTest, ConnectivityAndHops) {
  const Topology line({{0, 0}, {10, 0}, {20, 0}, {100, 0}}, 10.0);
  EXPECT_FALSE(line.connected());
  const auto hops = line.hop_distances(0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 2u);
  EXPECT_EQ(hops[3], Topology::kUnreachable);
  EXPECT_EQ(line.reachable_from(0).size(), 3u);
}

TEST(TopologyTest, RandomTopologyPlacesBaseStationAtCenter) {
  sim::Rng rng(9);
  const Field field(400, 400);
  const auto topo = make_random_topology(field, 100, 50.0, rng, true);
  EXPECT_EQ(topo.position(0).x, 200.0);
  EXPECT_EQ(topo.position(0).y, 200.0);
}

TEST(TopologyTest, PaperDensityTable) {
  // Table I of the paper family: N -> average degree on 400x400, r=50.
  // Our border-corrected uniform-deployment model tracks the published
  // values to within ~10% (the paper's own table rises slightly faster
  // than any uniform-deployment model; see EXPERIMENTS.md), and the
  // simulated deployments must track OUR model tightly.
  const Field field(400, 400);
  const struct {
    std::size_t n;
    double paper_degree;
  } rows[] = {{200, 8.8}, {300, 13.7}, {400, 18.6}, {500, 23.5}, {600, 28.4}};
  sim::Rng rng(123);
  for (const auto& row : rows) {
    double sum = 0.0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
      sum += make_random_topology(field, row.n, 50.0, rng, false).average_degree();
    }
    const double measured = sum / trials;
    EXPECT_NEAR(measured, row.paper_degree, 0.10 * row.paper_degree) << "N=" << row.n;
    // Border-corrected expectation: constant correction factor ~0.903
    // of the unclipped-disc degree on this field/range combination.
    const double model = field.expected_degree(row.n, 50.0) * 0.903;
    EXPECT_NEAR(measured, model, 0.5) << "N=" << row.n;
  }
}

}  // namespace
}  // namespace icpda::net
