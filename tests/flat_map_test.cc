// core::FlatMap against std::map, the reference it replaces in the
// protocol's per-neighbour state: seeded random sequences of inserts,
// assignments, lookups and clears must leave both with the same
// contents, iterated in the same (ascending key) order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/flat_set.h"
#include "sim/rng.h"

namespace icpda {
namespace {

using Pairs = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

Pairs contents(const core::FlatMap<std::uint32_t, std::uint64_t>& m) {
  return Pairs(m.begin(), m.end());
}

Pairs contents(const std::map<std::uint32_t, std::uint64_t>& m) {
  return Pairs(m.begin(), m.end());
}

TEST(FlatMapTest, MatchesStdMapOnRandomSequences) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 0xF1A7u}) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    core::FlatMap<std::uint32_t, std::uint64_t> flat;
    std::map<std::uint32_t, std::uint64_t> ref;
    // Keys from a small range, so assignments hit existing keys as
    // often as they insert new ones.
    const auto key = [&rng] { return static_cast<std::uint32_t>(rng.below(48)); };
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 55) {
        const std::uint32_t k = key();
        const std::uint64_t v = rng();
        flat[k] = v;
        ref[k] = v;
      } else if (op < 65) {
        // A read through operator[] inserts a value-initialised entry.
        const std::uint32_t k = key();
        ASSERT_EQ(flat[k], ref[k]);
      } else if (op < 97) {
        const std::uint32_t k = key();
        const auto it = flat.find(k);
        const auto want = ref.find(k);
        ASSERT_EQ(it == flat.end(), want == ref.end()) << k;
        if (want != ref.end()) {
          ASSERT_EQ(it->first, k);
          ASSERT_EQ(it->second, want->second);
        }
      } else if (op < 99) {
        ASSERT_EQ(contents(flat), contents(ref));
      } else {
        flat.clear();
        ref.clear();
      }
      ASSERT_EQ(flat.size(), ref.size());
    }
    EXPECT_EQ(contents(flat), contents(ref));
  }
}

TEST(FlatMapTest, IteratesInAscendingKeyOrder) {
  core::FlatMap<std::uint32_t, std::uint64_t> flat;
  for (const std::uint32_t k : {7u, 3u, 11u, 3u, 0u, 9u}) flat[k] += 1;
  EXPECT_EQ(contents(flat), (Pairs{{0, 1}, {3, 2}, {7, 1}, {9, 1}, {11, 1}}));
  EXPECT_EQ(flat.find(5), flat.end());
}

}  // namespace
}  // namespace icpda
