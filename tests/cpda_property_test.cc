// Property tests for the CPDA share algebra: thousands of randomized
// cases of the reconstruction laws the protocol's integrity argument
// rests on. Where the existing cpda_algebra_test pins down specific
// behaviours, this suite hammers the *properties*:
//
//   1. exact reconstruction — for random values, cluster sizes and
//      seeds, assemble-and-solve recovers the true sum (within the
//      documented float tolerance),
//   2. permutation invariance — the recovered sum does not depend on
//      the order members are assembled or seeds are listed,
//   3. singular-system rejection — duplicate or zero seeds are refused
//      (nullopt / empty weights), never silently mis-solved.
//
// Labelled `slow` in CTest: 10k cases are cheap (<~1 s) but this suite
// is excluded from the tier-1 `-LE slow` lane by policy so its budget
// can grow freely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/cpda_algebra.h"
#include "sim/rng.h"

namespace icpda::core {
namespace {

using proto::Aggregate;

/// Distinct non-zero random seeds (the x-coordinates members evaluate
/// their polynomials at). Drawn integral in [1, 64] then shuffled, so
/// distinctness is by construction and conditioning stays sane.
std::vector<double> random_seeds(std::size_t m, sim::Rng& rng) {
  std::vector<double> pool(64);
  std::iota(pool.begin(), pool.end(), 1.0);
  for (std::size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[rng.below(i + 1)]);
  }
  pool.resize(m);
  return pool;
}

/// Assemble F_j = sum_i shares[i][j] for the given member order.
std::vector<Aggregate> assemble(const std::vector<std::vector<Aggregate>>& shares,
                                const std::vector<std::size_t>& order) {
  const std::size_t m = shares.size();
  std::vector<Aggregate> out(m);
  for (std::size_t j = 0; j < m; ++j) {
    for (const std::size_t i : order) out[j].merge(shares[i][j]);
  }
  return out;
}

/// Tolerance model from cpda_algebra_test: Lagrange weights grow ~4^m,
/// shares are O(coeff_scale).
double solve_tol(std::size_t m) {
  return std::max(1e-9, 2e-13 * 1000.0 * std::pow(4.0, static_cast<double>(m)));
}

// ---------------------------------------------------------------------
// Property 1: reconstruction. ~10k randomized (value, m, seed) cases.

TEST(CpdaPropertyTest, ReconstructionHoldsOverRandomCases) {
  sim::Rng rng(0xC9DA);
  constexpr int kCases = 2500;  // x4 assertions/case ≈ 10k checks
  for (int c = 0; c < kCases; ++c) {
    const std::size_t m = 1 + rng.below(8);
    const auto seeds = random_seeds(m, rng);

    std::vector<std::vector<Aggregate>> shares(m);
    Aggregate truth;
    for (std::size_t i = 0; i < m; ++i) {
      const Aggregate v = Aggregate::of(rng.uniform(-1000.0, 1000.0));
      truth.merge(v);
      shares[i] = make_shares(v, seeds, rng);
      ASSERT_EQ(shares[i].size(), m);
    }
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto solved = solve_cluster_sum(seeds, assemble(shares, order));
    ASSERT_TRUE(solved.has_value()) << "case " << c << " m=" << m;

    const double tol = solve_tol(m);
    ASSERT_NEAR(solved->count, truth.count, tol * static_cast<double>(m))
        << "case " << c;
    ASSERT_NEAR(solved->sum, truth.sum, tol * std::max(1.0, std::abs(truth.sum)))
        << "case " << c;
    ASSERT_NEAR(solved->sum_sq, truth.sum_sq,
                10 * tol * std::max(1.0, truth.sum_sq))
        << "case " << c;
  }
}

// ---------------------------------------------------------------------
// Property 2: permutation invariance. Assembly order is float-exact
// invariant only up to rounding, so compare against a tolerance far
// below the protocol's tamper threshold; seed-order permutation must
// agree on the recovered value the same way.

TEST(CpdaPropertyTest, RecoveredSumIsPermutationInvariant) {
  sim::Rng rng(0xBEEF);
  constexpr int kCases = 1000;
  for (int c = 0; c < kCases; ++c) {
    const std::size_t m = 2 + rng.below(6);
    const auto seeds = random_seeds(m, rng);
    std::vector<std::vector<Aggregate>> shares(m);
    for (std::size_t i = 0; i < m; ++i) {
      shares[i] = make_shares(Aggregate::of(rng.uniform(-100.0, 100.0)), seeds, rng);
    }

    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto base = solve_cluster_sum(seeds, assemble(shares, order));
    ASSERT_TRUE(base.has_value());

    // Random member permutation: F_j sums commute.
    for (std::size_t i = m - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    const auto permuted = solve_cluster_sum(seeds, assemble(shares, order));
    ASSERT_TRUE(permuted.has_value());
    const double tol = solve_tol(m);
    ASSERT_NEAR(permuted->sum, base->sum, tol * std::max(1.0, std::abs(base->sum)))
        << "case " << c << " m=" << m;
    ASSERT_NEAR(permuted->count, base->count, tol * static_cast<double>(m));

    // Seed permutation: shuffle (seed, F) pairs together — the system
    // is the same set of equations, the solution must agree.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<std::size_t> perm = order;
    for (std::size_t i = m - 1; i > 0; --i) std::swap(perm[i], perm[rng.below(i + 1)]);
    const auto assembled = assemble(shares, order);
    std::vector<double> seeds_p(m);
    std::vector<Aggregate> assembled_p(m);
    for (std::size_t j = 0; j < m; ++j) {
      seeds_p[j] = seeds[perm[j]];
      assembled_p[j] = assembled[perm[j]];
    }
    const auto reseeded = solve_cluster_sum(seeds_p, assembled_p);
    ASSERT_TRUE(reseeded.has_value());
    ASSERT_NEAR(reseeded->sum, base->sum, tol * std::max(1.0, std::abs(base->sum)))
        << "case " << c << " m=" << m;
  }
}

// ---------------------------------------------------------------------
// Property 3: singular systems are rejected, never mis-solved.

TEST(CpdaPropertyTest, SingularSeedSystemsAreRejected) {
  sim::Rng rng(0x5EED);
  constexpr int kCases = 2000;
  for (int c = 0; c < kCases; ++c) {
    const std::size_t m = 2 + rng.below(6);
    auto seeds = random_seeds(m, rng);
    std::vector<Aggregate> assembled(m, Aggregate::of(1.0));

    // Corruption A: duplicate one seed onto another position.
    auto dup = seeds;
    const std::size_t a = rng.below(m);
    std::size_t b = rng.below(m);
    if (b == a) b = (b + 1) % m;
    dup[a] = dup[b];
    ASSERT_FALSE(solve_cluster_sum(dup, assembled).has_value()) << "case " << c;
    ASSERT_TRUE(lagrange_weights_at_zero(dup).empty()) << "case " << c;

    // Corruption B: zero out one seed (evaluating at x=0 leaks V and
    // breaks the weights' derivation; refused outright).
    auto zeroed = seeds;
    zeroed[rng.below(m)] = 0.0;
    ASSERT_FALSE(solve_cluster_sum(zeroed, assembled).has_value()) << "case " << c;
    ASSERT_TRUE(lagrange_weights_at_zero(zeroed).empty()) << "case " << c;

    // Corruption C: size mismatch between seeds and assembled shares.
    std::vector<Aggregate> short_assembled(m - 1, Aggregate::of(1.0));
    ASSERT_FALSE(solve_cluster_sum(seeds, short_assembled).has_value());

    // The uncorrupted system still solves.
    ASSERT_TRUE(solve_cluster_sum(seeds, assembled).has_value()) << "case " << c;
  }
}

}  // namespace
}  // namespace icpda::core
