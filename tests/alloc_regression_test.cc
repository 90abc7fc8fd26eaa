// Allocation-count regression gate for the Phase II per-share hot path.
//
// The batched-crypto / SoA-arena refactor's whole point is that the
// steady-state share loop — derive link keys, cut shares, patch the
// serialized body template, seal, open, record, assemble, interpolate,
// bump metrics — touches NO heap once the arenas are warm. This binary
// replaces global operator new with a counting shim and asserts exactly
// that: zero allocations across many iterations of the loop. Any future
// change that sneaks a per-share allocation back in (a map node, a
// fresh Bytes, a std::string temporary) fails here long before it shows
// up in a profile.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/cpda_algebra.h"
#include "crypto/cipher.h"
#include "crypto/keyring.h"
#include "crypto/prf.h"
#include "sim/metrics.h"
#include "sim/rng.h"

// ---- Global allocation counter --------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs `new` expressions with these replaced operators and then
// flags the malloc/free crossover the replacement is deliberately
// built on — silence just that heuristic here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace icpda {
namespace {

template <typename F>
std::uint64_t allocations_during(F&& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Everything one member does per cluster round, against warm arenas.
/// Returns a checksum so nothing is optimized away.
struct HotLoop {
  static constexpr std::size_t kM = 8;

  crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(0x7357)};
  sim::Rng rng{0xA110C};
  sim::MetricRegistry metrics;
  core::ClusterContext ctx;

  std::vector<std::uint32_t> members;
  std::vector<double> seed_vals;
  std::vector<std::optional<crypto::Key>> link_keys;
  std::vector<proto::Aggregate> shares;
  std::vector<proto::Aggregate> announced;
  std::vector<std::uint32_t> contributors;
  net::Bytes body_bytes;
  crypto::Bytes sealed;
  crypto::Bytes opened;
  std::uint64_t checksum = 0;

  HotLoop() {
    std::vector<std::uint32_t> roster_members;
    std::vector<std::uint32_t> roster_seeds;
    for (std::size_t i = 0; i < kM; ++i) {
      roster_members.push_back(10 + static_cast<std::uint32_t>(i));
      roster_seeds.push_back(static_cast<std::uint32_t>(i) + 1);
    }
    members = roster_members;
    EXPECT_TRUE(ctx.set_roster(members[0], std::move(roster_members),
                               std::move(roster_seeds), members[0]));
    seed_vals = ctx.seed_values();
    announced.resize(kM);
    // Serialize the round's body template once; the loop only patches
    // the 24-byte share triple in place.
    const core::ShareBody body{{}, 7, 0, proto::Aggregate{}, 0xC0FFEE};
    body_bytes = body.to_bytes();
    // Counters pre-registered so the measured adds are pure lookups;
    // names long enough that a std::string round-trip would allocate.
    metrics.add("icpda.alloc_regression_probe_counter", 0);
    metrics.add("icpda.alloc_regression_second_counter", 0);
  }

  void iterate() {
    keys.link_keys(members[0], members, link_keys);
    core::make_shares_into(proto::Aggregate::of(rng.uniform(0.0, 30.0)),
                           seed_vals, rng, shares);
    ctx.set_kept_share(shares[0]);
    for (std::size_t j = 1; j < kM; ++j) {
      const crypto::Key& key = *link_keys[j];
      core::ShareBody::patch_share(body_bytes, shares[j]);
      crypto::seal_into(key, rng(), body_bytes, sealed);
      const bool ok = crypto::open_into(key, sealed, opened);
      checksum += ok ? opened[core::ShareBody::kShareOffset] : 0xFF;
      ctx.record_share(members[j], shares[j]);
    }
    const proto::Aggregate f = ctx.assemble(contributors);
    checksum += contributors.size();
    for (std::size_t j = 0; j < kM; ++j) announced[j] = f;
    const auto solved = core::solve_cluster_sum(seed_vals, announced);
    checksum += solved.has_value() ? 1 : 0;
    const crypto::Key link = crypto::KeyDeriver(keys_master()).derive(3, 17);
    checksum += link.words[0] & 1;
    metrics.add("icpda.alloc_regression_probe_counter");
    metrics.add("icpda.alloc_regression_second_counter", 2);
  }

  [[nodiscard]] static crypto::Key keys_master() {
    return crypto::Key::from_seed(0x7357);
  }
};

TEST(AllocRegressionTest, SteadyStateShareLoopDoesNotAllocate) {
  HotLoop loop;
  // Warm-up: first pass sizes every arena (scratch vectors, seal/open
  // buffers, metric map nodes). Allocations here are expected.
  loop.iterate();
  loop.iterate();

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 200; ++i) loop.iterate();
  });
  EXPECT_EQ(allocs, 0u)
      << "per-share heap allocation crept back into the Phase II hot loop";
  // The work must not have been elided.
  EXPECT_NE(loop.checksum, 0u);
  EXPECT_EQ(loop.metrics.counter("icpda.alloc_regression_probe_counter"), 202u);
}

// Re-rostering a warm context at the same cluster size (the recovery
// path re-installs a roster mid-epoch) reuses arena capacity: with the
// member/seed vectors moved in, the install itself is allocation-free.

TEST(AllocRegressionTest, WarmRerosterDoesNotAllocate) {
  core::ClusterContext ctx;
  std::vector<std::uint32_t> members{10, 20, 30, 40, 50};
  std::vector<std::uint32_t> seeds{1, 2, 3, 4, 5};
  ASSERT_TRUE(ctx.set_roster(10, members, seeds, 20));
  for (const std::uint32_t m : members) ctx.record_share(m, proto::Aggregate::of(1.0));

  // Pre-built next-round vectors (the protocol reuses the decoded
  // roster message's buffers the same way).
  std::vector<std::uint32_t> members2 = members;
  std::vector<std::uint32_t> seeds2 = seeds;
  bool ok = false;
  const std::uint64_t allocs = allocations_during([&] {
    ok = ctx.set_roster(10, std::move(members2), std::move(seeds2), 20);
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocs, 0u) << "same-size re-roster should only assign() into arenas";
  EXPECT_EQ(ctx.shares_received(), 0u);
}

}  // namespace
}  // namespace icpda
