// Keyed pseudo-random function — the primitive under the cipher & MAC.
//
// SIMULATION-GRADE, NOT CRYPTOGRAPHICALLY SECURE. The reproduction
// needs the *structure* of link-level security (who holds which key
// determines who can read which frame), not resistance to real
// cryptanalysis; no experiment in the paper measures primitive
// strength. The construction is a SplitMix64-based absorb/squeeze
// sponge over 128-bit keys: deterministic, well mixed, fast.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "sim/rng.h"

namespace icpda::crypto {

/// 128-bit symmetric key.
struct Key {
  std::array<std::uint64_t, 2> words{};

  friend bool operator==(const Key&, const Key&) = default;

  [[nodiscard]] static Key from_seed(std::uint64_t seed) {
    std::uint64_t s = seed;
    Key k;
    k.words[0] = sim::splitmix64(s);
    k.words[1] = sim::splitmix64(s);
    return k;
  }
};

/// Keyed PRF with incremental absorb and arbitrary-length squeeze.
///
///   Prf prf(key);
///   prf.absorb(bytes);
///   std::uint64_t tag = prf.squeeze64();
class Prf {
 public:
  explicit Prf(const Key& key);

  /// Mix bytes into the state.
  void absorb(std::span<const std::uint8_t> data);
  void absorb_u64(std::uint64_t v);

  /// Produce the next 64 bits of output. Squeezing is stateful: calls
  /// produce a keystream. Absorbing after squeezing is not supported
  /// (precondition; enforced with an assert-like throw).
  [[nodiscard]] std::uint64_t squeeze64();

 private:
  void permute();

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t absorbed_len_ = 0;
  bool squeezing_ = false;
};

/// One-shot convenience: PRF(key, data) -> 64-bit value.
[[nodiscard]] std::uint64_t prf64(const Key& key, std::span<const std::uint8_t> data);

/// Keyed derivation PRF(master, label_a, label_b) -> new Key, the
/// per-link key derivation from a master key. The keyed sponge state
/// after the initial permutation depends only on the master key, so a
/// deriver caches it once and each derive() replays just the two label
/// absorptions and the squeeze: a whole cluster's pairwise keys cost
/// one pass per round. Output equals a plain Prf absorbing both labels
/// and squeezing two words — pinned against that reference by
/// CryptoBatchTest.
class KeyDeriver {
 public:
  explicit KeyDeriver(const Key& master);

  [[nodiscard]] Key derive(std::uint64_t label_a, std::uint64_t label_b) const;

 private:
  std::array<std::uint64_t, 4> init_state_{};
};

}  // namespace icpda::crypto
