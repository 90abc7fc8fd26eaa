// Crypto substrate: PRF, authenticated cipher, key schemes.
#include <gtest/gtest.h>

#include <set>

#include "crypto/cipher.h"
#include "crypto/keyring.h"
#include "crypto/prf.h"
#include "sim/rng.h"

namespace icpda::crypto {
namespace {

TEST(PrfTest, DeterministicPerKeyAndInput) {
  const Key k = Key::from_seed(1);
  const Bytes msg{1, 2, 3, 4, 5};
  EXPECT_EQ(prf64(k, msg), prf64(k, msg));
  EXPECT_NE(prf64(k, msg), prf64(Key::from_seed(2), msg));
  EXPECT_NE(prf64(k, msg), prf64(k, Bytes{1, 2, 3, 4, 6}));
}

TEST(PrfTest, LengthExtensionDiffers) {
  const Key k = Key::from_seed(3);
  EXPECT_NE(prf64(k, Bytes{0x61, 0x62}), prf64(k, Bytes{0x61, 0x62, 0x00}));
  EXPECT_NE(prf64(k, {}), prf64(k, Bytes{0x00}));
}

TEST(PrfTest, SqueezeStreamIsDeterministicAndMixed) {
  Prf a(Key::from_seed(7));
  Prf b(Key::from_seed(7));
  a.absorb_u64(42);
  b.absorb_u64(42);
  std::set<std::uint64_t> outs;
  for (int i = 0; i < 16; ++i) {
    const auto x = a.squeeze64();
    EXPECT_EQ(x, b.squeeze64());
    outs.insert(x);
  }
  EXPECT_EQ(outs.size(), 16u);  // no repeats in a short stream
}

TEST(PrfTest, AbsorbAfterSqueezeThrows) {
  Prf p(Key::from_seed(9));
  (void)p.squeeze64();
  EXPECT_THROW(p.absorb_u64(1), std::logic_error);
}

TEST(PrfTest, OutputLooksBalanced) {
  // Population count of concatenated outputs should be near 50%.
  Prf p(Key::from_seed(11));
  int bits = 0;
  const int words = 1000;
  for (int i = 0; i < words; ++i) bits += __builtin_popcountll(p.squeeze64());
  EXPECT_NEAR(static_cast<double>(bits) / (64.0 * words), 0.5, 0.02);
}

TEST(DeriveKeyTest, DistinctPerLabel) {
  const KeyDeriver deriver(Key::from_seed(100));
  const Key a = deriver.derive(1, 2);
  const Key b = deriver.derive(2, 1);
  const Key c = deriver.derive(1, 3);
  EXPECT_EQ(a, deriver.derive(1, 2));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

// ---- cipher ---------------------------------------------------------

TEST(CipherTest, SealOpenRoundTrip) {
  const Key k = Key::from_seed(5);
  const Bytes plain{10, 20, 30, 40, 50};
  Bytes sealed, opened;
  seal_into(k, 12345, plain, sealed);
  EXPECT_EQ(sealed.size(), plain.size() + kSealOverheadBytes);
  ASSERT_TRUE(open_into(k, sealed, opened));
  EXPECT_EQ(opened, plain);
}

TEST(CipherTest, EmptyPlaintext) {
  const Key k = Key::from_seed(5);
  Bytes sealed, opened{1};
  seal_into(k, 1, {}, sealed);
  ASSERT_TRUE(open_into(k, sealed, opened));
  EXPECT_TRUE(opened.empty());
}

TEST(CipherTest, WrongKeyFails) {
  Bytes sealed, opened;
  seal_into(Key::from_seed(5), 1, Bytes{1, 2, 3}, sealed);
  EXPECT_FALSE(open_into(Key::from_seed(6), sealed, opened));
}

TEST(CipherTest, TamperDetected) {
  const Key k = Key::from_seed(5);
  Bytes sealed, opened;
  seal_into(k, 1, Bytes{1, 2, 3}, sealed);
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(open_into(k, tampered, opened)) << "byte " << i;
  }
}

TEST(CipherTest, TruncatedInputRejected) {
  const Key k = Key::from_seed(5);
  Bytes opened;
  EXPECT_FALSE(open_into(k, Bytes(kSealOverheadBytes - 1, 0), opened));
  EXPECT_FALSE(open_into(k, {}, opened));
}

TEST(CipherTest, DistinctNoncesGiveDistinctCiphertext) {
  const Key k = Key::from_seed(5);
  const Bytes plain{1, 2, 3, 4};
  Bytes a, b;
  seal_into(k, 1, plain, a);
  seal_into(k, 2, plain, b);
  EXPECT_NE(a, b);
}

TEST(CipherTest, CiphertextHidesPlaintext) {
  const Key k = Key::from_seed(5);
  const Bytes plain(64, 0xAA);
  Bytes sealed;
  seal_into(k, 7, plain, sealed);
  // The body must not contain the constant plaintext run.
  int matches = 0;
  for (std::size_t i = 8; i < 8 + plain.size(); ++i) {
    if (sealed[i] == 0xAA) ++matches;
  }
  EXPECT_LT(matches, 16);  // ~1/4 of 64 would already be suspicious
}

// ---- key schemes ----------------------------------------------------

TEST(MasterPairwiseTest, SymmetricUniqueNoThirdParty) {
  const MasterPairwiseScheme scheme(Key::from_seed(77));
  const auto k12 = scheme.link_key(1, 2);
  const auto k21 = scheme.link_key(2, 1);
  const auto k13 = scheme.link_key(1, 3);
  ASSERT_TRUE(k12 && k21 && k13);
  EXPECT_EQ(*k12, *k21);
  EXPECT_NE(*k12, *k13);
  EXPECT_FALSE(scheme.link_key(4, 4).has_value());
  EXPECT_FALSE(scheme.third_party_can_read(1, 2, 3));
}

TEST(EgPredistributionTest, RingsHaveRequestedSize) {
  sim::Rng rng(3);
  const EgPredistribution eg(50, 1000, 80, rng);
  for (net::NodeId n = 0; n < 50; ++n) {
    EXPECT_EQ(eg.ring(n).size(), 80u);
    EXPECT_TRUE(std::is_sorted(eg.ring(n).begin(), eg.ring(n).end()));
  }
}

TEST(EgPredistributionTest, LinkKeyExistsIffRingsIntersect) {
  sim::Rng rng(5);
  const EgPredistribution eg(30, 500, 40, rng);
  for (net::NodeId a = 0; a < 30; ++a) {
    for (net::NodeId b = a + 1; b < 30; ++b) {
      std::set<std::uint32_t> ra(eg.ring(a).begin(), eg.ring(a).end());
      bool intersect = false;
      for (const auto id : eg.ring(b)) intersect |= ra.contains(id);
      EXPECT_EQ(eg.link_key(a, b).has_value(), intersect);
      EXPECT_EQ(eg.shared_key_id(a, b).has_value(), intersect);
    }
  }
}

TEST(EgPredistributionTest, SymmetricKeys) {
  sim::Rng rng(7);
  const EgPredistribution eg(20, 200, 30, rng);
  for (net::NodeId a = 0; a < 20; ++a) {
    for (net::NodeId b = a + 1; b < 20; ++b) {
      const auto kab = eg.link_key(a, b);
      const auto kba = eg.link_key(b, a);
      ASSERT_EQ(kab.has_value(), kba.has_value());
      if (kab) {
        EXPECT_EQ(*kab, *kba);
      }
    }
  }
}

TEST(EgPredistributionTest, ThirdPartyReadsIffHoldsSharedKey) {
  sim::Rng rng(11);
  const EgPredistribution eg(30, 300, 50, rng);
  int readable_links = 0;
  for (net::NodeId a = 0; a < 30; ++a) {
    for (net::NodeId b = a + 1; b < 30; ++b) {
      const auto id = eg.shared_key_id(a, b);
      if (!id) continue;
      for (net::NodeId c = 0; c < 30; ++c) {
        if (c == a || c == b) continue;
        const bool holds = std::binary_search(eg.ring(c).begin(), eg.ring(c).end(), *id);
        EXPECT_EQ(eg.third_party_can_read(a, b, c), holds);
        readable_links += holds ? 1 : 0;
      }
    }
  }
  EXPECT_GT(readable_links, 0);  // key reuse must actually occur at k/P=1/6
}

TEST(EgPredistributionTest, ConnectProbabilityMatchesMonteCarlo) {
  const std::size_t pool = 1000;
  const std::size_t ring = 50;
  const double analytic = EgPredistribution::connect_probability(pool, ring);
  sim::Rng rng(13);
  int connected = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const EgPredistribution eg(2, pool, ring, rng.fork("eg", static_cast<std::uint64_t>(t)));
    connected += eg.link_key(0, 1).has_value() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(connected) / trials, analytic, 0.07);
}

TEST(EgPredistributionTest, InvalidParamsThrow) {
  sim::Rng rng(1);
  EXPECT_THROW(EgPredistribution(10, 5, 6, rng), std::invalid_argument);
  EXPECT_THROW(EgPredistribution(10, 5, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace icpda::crypto
