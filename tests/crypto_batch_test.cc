// Pin-before-swap harness for the batched protocol hot path.
//
// The batched crypto entry points (KeyDeriver, KeyScheme::link_keys,
// seal_into/open_into, make_shares_into, ShareBody::patch_share) must
// be *byte-for-byte* equal to the per-share paths they replace — the
// golden trace digests treat wire bytes and RNG draw order as part of
// the determinism contract. Two layers of pinning:
//
//  1. Golden known-answer vectors captured from the pre-batching
//     implementation (commit 770b2b2). If these fail, the primitive
//     itself changed — not just the batching — and every sealed frame
//     in every golden trace is invalid.
//  2. Differential checks of each batched path against an independent
//     reference (KeyDeriver vs a plain Prf, link_keys vs link_key,
//     patch_share vs fresh serialization), and of each arena kernel
//     run on a dirty reused buffer against the same call on a fresh
//     one, over randomized inputs and cluster sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cpda_algebra.h"
#include "crypto/cipher.h"
#include "crypto/keyring.h"
#include "crypto/prf.h"
#include "sim/rng.h"

namespace icpda::crypto {
namespace {

/// KeyDeriver's independent reference: the per-link derivation spelled
/// out on the public Prf, with no cached state.
Key derive_key(const Key& master, std::uint64_t label_a, std::uint64_t label_b) {
  Prf prf(master);
  prf.absorb_u64(label_a);
  prf.absorb_u64(label_b);
  Key k;
  k.words[0] = prf.squeeze64();
  k.words[1] = prf.squeeze64();
  return k;
}

// ---------------------------------------------------------------------
// Golden known-answer vectors (pre-batching implementation).

struct DeriveVector {
  std::uint64_t seed, a, b, w0, w1;
};

TEST(CryptoBatchTest, DeriveKeyGoldenVectors) {
  // clang-format off
  const DeriveVector vecs[] = {
      {0x1,        0, 1,                       0x27fe7dc551acd2a5ULL, 0x918bd2f479c5c7c0ULL},
      {0x1,        3, 17,                      0xf7dc20e77375073bULL, 0x13b64b90d4e95e82ULL},
      {0x1,        0xFFFFFFFF, 0x100000000ULL, 0x94cb2991355e7997ULL, 0x8c339229154bbd0eULL},
      {0xDEADBEEF, 0, 1,                       0xc9cf1efddab3aed4ULL, 0x71d203c81448cc09ULL},
      {0xDEADBEEF, 3, 17,                      0x2e2eba721a3bb194ULL, 0x24a6f0ffcbd09a26ULL},
      {0xDEADBEEF, 0xFFFFFFFF, 0x100000000ULL, 0x717676eb9d37d3ccULL, 0xed301881a95096c5ULL},
      {0x1CDA2009, 0, 1,                       0xb1470d682ff7002bULL, 0xf2042dc65aaa9c69ULL},
      {0x1CDA2009, 3, 17,                      0xce8c8212638b27bfULL, 0xb9a0570252b7c405ULL},
      {0x1CDA2009, 0xFFFFFFFF, 0x100000000ULL, 0x5d7088c91bfba329ULL, 0x42847d6d07fd6fafULL},
  };
  // clang-format on
  for (const auto& v : vecs) {
    const Key master = Key::from_seed(v.seed);
    const Key k = derive_key(master, v.a, v.b);
    EXPECT_EQ(k.words[0], v.w0) << "seed " << v.seed;
    EXPECT_EQ(k.words[1], v.w1) << "seed " << v.seed;
    // The cached-state deriver must reproduce the vectors too.
    const KeyDeriver deriver(master);
    EXPECT_EQ(deriver.derive(v.a, v.b), k) << "seed " << v.seed;
  }
}

TEST(CryptoBatchTest, Prf64GoldenVectors) {
  // Lengths straddle every word boundary the word-wise absorb handles
  // specially: empty, sub-word, exact words, words + tail.
  const std::pair<std::size_t, std::uint64_t> vecs[] = {
      {0, 0x7f9df9e1d92af910ULL},  {1, 0x89eb9e2451c58d17ULL},
      {7, 0xb6522aa52d2bf476ULL},  {8, 0x5627ae074a050b71ULL},
      {9, 0xa5e4d192c10fa8a5ULL},  {15, 0x7430fb233d759df2ULL},
      {16, 0x977ecc273338ced6ULL}, {17, 0xc9ee943443a1c7cfULL},
      {63, 0x9a02dceebc0bbc17ULL}, {64, 0xe20f564e486de6a4ULL},
  };
  const Key key = Key::from_seed(9);
  for (const auto& [len, want] : vecs) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 7 + 1);
    EXPECT_EQ(prf64(key, msg), want) << "len " << len;
  }
}

TEST(CryptoBatchTest, SealGoldenVectors) {
  const std::pair<std::size_t, const char*> vecs[] = {
      {0, "efcdab89674523015d4de235c4f0c08c"},
      {1, "f0cdab89674523019227a18a25bc018d22"},
      {7, "f6cdab8967452301901a62bcc6284547124bc07ab8754d"},
      {8, "f7cdab896745230181ae7752501b95d8f6548cd17657714f"},
      {9, "f8cdab89674523015893dbf31eeb6ace793919d07367aba606"},
      {32,
       "0fceab896745230110d10d741e5ee5d16fddc4f54f23d7d341025d8d551e637f28e9c8"
       "f1b08b9596da63ca131ede00c6"},
      {33,
       "10ceab89674523017d4beec83eb3458f6053d3a8ada810e1a36b01fd5c872275bce44e"
       "69644633a89922ecb54d8658add7"},
  };
  const Key key = Key::from_seed(0x5EA1);
  for (const auto& [len, want_hex] : vecs) {
    Bytes p(len);
    for (std::size_t i = 0; i < len; ++i) p[i] = static_cast<std::uint8_t>(0xA0 + i);
    Bytes sealed;
    seal_into(key, 0x0123456789ABCDEFULL + len, p, sealed);
    std::string got;
    for (const std::uint8_t byte : sealed) {
      constexpr char kHex[] = "0123456789abcdef";
      got += kHex[byte >> 4];
      got += kHex[byte & 0xF];
    }
    EXPECT_EQ(got, want_hex) << "len " << len;
    Bytes back;
    ASSERT_TRUE(open_into(key, sealed, back)) << "len " << len;
    EXPECT_EQ(back, p);
  }
}

// ---------------------------------------------------------------------
// Differential: KeyDeriver vs derive_key over random labels.

TEST(CryptoBatchTest, KeyDeriverMatchesDeriveKey) {
  sim::Rng rng(0xBA7C4ED0);
  for (int master_i = 0; master_i < 8; ++master_i) {
    const Key master = Key::from_seed(rng());
    const KeyDeriver deriver(master);
    for (int i = 0; i < 256; ++i) {
      const std::uint64_t a = rng();
      const std::uint64_t b = rng();
      EXPECT_EQ(deriver.derive(a, b), derive_key(master, a, b));
    }
  }
}

// ---------------------------------------------------------------------
// Differential: link_keys (batched) vs link_key (per pair) for both
// concrete schemes, over randomized member sets including self and
// duplicate ids.

std::vector<net::NodeId> random_members(sim::Rng& rng, std::size_t node_count) {
  const std::size_t m = 2 + rng() % 12;
  std::vector<net::NodeId> members(m);
  for (auto& id : members) id = static_cast<net::NodeId>(rng() % node_count);
  return members;
}

void expect_batch_matches(const KeyScheme& scheme, sim::Rng& rng,
                          std::size_t node_count) {
  std::vector<std::optional<Key>> batch;
  for (int round = 0; round < 64; ++round) {
    const auto members = random_members(rng, node_count);
    const auto self = static_cast<net::NodeId>(rng() % node_count);
    scheme.link_keys(self, members, batch);  // reused across rounds
    ASSERT_EQ(batch.size(), members.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
      EXPECT_EQ(batch[j], scheme.link_key(self, members[j]))
          << "self " << self << " peer " << members[j];
    }
  }
}

TEST(CryptoBatchTest, MasterPairwiseLinkKeysMatchesPerPair) {
  sim::Rng rng(0x11ABE1);
  const MasterPairwiseScheme scheme(Key::from_seed(0x7357));
  expect_batch_matches(scheme, rng, 64);
}

TEST(CryptoBatchTest, EgPredistributionLinkKeysMatchesPerPair) {
  sim::Rng rng(0x22ABE2);
  // Small pool so keyless pairs (nullopt entries) actually occur.
  const EgPredistribution scheme(32, 40, 4, sim::Rng(0xE6));
  expect_batch_matches(scheme, rng, 32);
}

// ---------------------------------------------------------------------
// Arena vs fresh buffer: seal_into/open_into over random lengths, each
// out-buffer reused and pre-filled with junk of random length (longer
// or shorter than the result) before every call, must produce exactly
// what a fresh buffer receives.

Bytes junk(sim::Rng& rng) {
  Bytes b(rng() % 400);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(CryptoBatchTest, SealIntoOpenIntoDirtyBufferMatchesFresh) {
  sim::Rng rng(0x5EA1B0);
  Bytes sealed_arena;
  Bytes plain_arena;
  for (int i = 0; i < 512; ++i) {
    const Key key = Key::from_seed(rng());
    const std::uint64_t nonce = rng();
    Bytes plaintext(rng() % 300);
    for (auto& byte : plaintext) byte = static_cast<std::uint8_t>(rng());

    sealed_arena = junk(rng);
    seal_into(key, nonce, plaintext, sealed_arena);
    Bytes sealed_fresh;
    seal_into(key, nonce, plaintext, sealed_fresh);
    EXPECT_EQ(sealed_arena, sealed_fresh) << "case " << i;

    plain_arena = junk(rng);
    ASSERT_TRUE(open_into(key, sealed_arena, plain_arena)) << "case " << i;
    EXPECT_EQ(plain_arena, plaintext) << "case " << i;

    // Tampered ciphertext is rejected and leaves no stale plaintext.
    Bytes corrupt = sealed_arena;
    corrupt[rng() % corrupt.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    plain_arena = junk(rng);
    EXPECT_FALSE(open_into(key, corrupt, plain_arena)) << "case " << i;
    EXPECT_TRUE(plain_arena.empty()) << "case " << i;
    // Wrong key never opens.
    EXPECT_FALSE(open_into(Key::from_seed(rng()), sealed_arena, plain_arena));
    // Truncated below the overhead is malformed, not a crash.
    const Bytes stub(kSealOverheadBytes - 1, 0);
    EXPECT_FALSE(open_into(key, stub, plain_arena));
  }
}

// ---------------------------------------------------------------------
// Arena vs fresh vector: make_shares_into on a share vector reused
// across cluster sizes and pre-filled with junk shares must equal the
// same call (identical Rng seed) on a fresh vector, bit for bit.

TEST(CryptoBatchTest, MakeSharesIntoDirtyBufferMatchesFresh) {
  sim::Rng seeder(0x5AA7E5);
  std::vector<proto::Aggregate> arena;
  for (int i = 0; i < 200; ++i) {
    const std::size_t m = 1 + seeder() % 40;  // crosses the stack cap (31 coeffs)
    const auto seeds = core::default_seeds(m);
    proto::Aggregate value;
    value.count = 1.0;
    value.sum = seeder.uniform(-1e6, 1e6);
    value.sum_sq = value.sum * value.sum;
    const std::uint64_t rng_seed = seeder();

    sim::Rng rng_a(rng_seed);
    std::vector<proto::Aggregate> reference;
    core::make_shares_into(value, seeds, rng_a, reference);
    const std::size_t junk_size = seeder() % 48;
    arena.assign(junk_size, proto::Aggregate::of(seeder.uniform(-1e6, 1e6)));
    sim::Rng rng_b(rng_seed);
    core::make_shares_into(value, seeds, rng_b, arena);

    ASSERT_EQ(arena.size(), reference.size()) << "m " << m;
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(arena[j].count, reference[j].count) << "m " << m << " j " << j;
      EXPECT_EQ(arena[j].sum, reference[j].sum) << "m " << m << " j " << j;
      EXPECT_EQ(arena[j].sum_sq, reference[j].sum_sq) << "m " << m << " j " << j;
    }
    // The two generators must also be left in the same state.
    EXPECT_EQ(rng_a(), rng_b()) << "m " << m;
  }
}

// ---------------------------------------------------------------------
// Differential: the sender-side body template + patch_share must equal
// a fresh per-peer serialization, with and without an epoch tag.

TEST(CryptoBatchTest, PatchShareMatchesFreshSerialization) {
  sim::Rng rng(0x7A6B0D1);
  for (const std::uint32_t tag : {0u, 0xC0FFEEu}) {
    core::ShareBody body;
    body.query_id = 77;
    body.round = 1;
    body.epoch_tag = tag;
    net::Bytes tmpl = body.to_bytes();
    for (int i = 0; i < 100; ++i) {
      proto::Aggregate share;
      share.count = rng.uniform(-1e3, 1e3);
      share.sum = rng.uniform(-1e6, 1e6);
      share.sum_sq = rng.uniform(0.0, 1e9);
      core::ShareBody::patch_share(tmpl, share);
      core::ShareBody fresh = body;
      fresh.share = share;
      EXPECT_EQ(tmpl, fresh.to_bytes()) << "tag " << tag << " case " << i;
    }
  }
}

}  // namespace
}  // namespace icpda::crypto
