#include "crypto/prf.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace icpda::crypto {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// Four rounds of an ARX-style mix; plenty for statistical mixing. Free
// function so the Prf and the KeyDeriver share one definition (the
// derivation cache must replay bit-identical permutations).
void permute_state(std::array<std::uint64_t, 4>& s) {
  for (int round = 0; round < 4; ++round) {
    s[0] += s[1];
    s[3] ^= s[0];
    s[3] = rotl(s[3], 32);
    s[2] += s[3];
    s[1] ^= s[2];
    s[1] = rotl(s[1], 24);
    s[0] += s[1];
    s[3] ^= s[0];
    s[3] = rotl(s[3], 16);
    s[2] += s[3];
    s[1] ^= s[2];
    s[1] = rotl(s[1], 63);
  }
}

void key_state(const Key& key, std::array<std::uint64_t, 4>& s) {
  s[0] = key.words[0] ^ 0x6A09E667F3BCC908ULL;
  s[1] = key.words[1] ^ 0xBB67AE8584CAA73BULL;
  s[2] = key.words[0] ^ 0x3C6EF372FE94F82BULL;
  s[3] = key.words[1] ^ 0xA54FF53A5F1D36F1ULL;
  permute_state(s);
}

/// Little-endian 64-bit load: the word the byte-at-a-time absorb loop
/// assembles, read in one shot on little-endian targets.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace

Prf::Prf(const Key& key) { key_state(key, state_); }

void Prf::permute() { permute_state(state_); }

void Prf::absorb(std::span<const std::uint8_t> data) {
  if (squeezing_) throw std::logic_error("Prf: absorb after squeeze");
  // Full words go through a word-wide load instead of eight shift-or
  // steps; the assembled word (and so the whole state trajectory) is
  // identical to the byte loop's.
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 8 <= n; i += 8) {
    state_[0] ^= load_le64(data.data() + i);
    permute();
  }
  if (i < n) {
    // Pad the trailing partial word with a 0x80-style terminator so
    // that e.g. "ab" and "ab\0" absorb differently.
    std::uint64_t word = 0;
    int filled = 0;
    for (; i < n; ++i, ++filled) {
      word |= static_cast<std::uint64_t>(data[i]) << (8 * filled);
    }
    word |= 0x80ULL << (8 * filled);
    state_[0] ^= word;
    permute();
  }
  absorbed_len_ += n;
}

void Prf::absorb_u64(std::uint64_t v) {
  if (squeezing_) throw std::logic_error("Prf: absorb after squeeze");
  state_[0] ^= v;
  permute();
}

std::uint64_t Prf::squeeze64() {
  if (!squeezing_) {
    // Domain separation between absorb and squeeze phases, keyed by
    // total absorbed length.
    state_[1] ^= 0x9E3779B97F4A7C15ULL ^ absorbed_len_;
    permute();
    squeezing_ = true;
  }
  const std::uint64_t out = state_[0] ^ rotl(state_[2], 31);
  permute();
  return out;
}

std::uint64_t prf64(const Key& key, std::span<const std::uint8_t> data) {
  Prf prf(key);
  prf.absorb(data);
  return prf.squeeze64();
}

KeyDeriver::KeyDeriver(const Key& master) { key_state(master, init_state_); }

Key KeyDeriver::derive(std::uint64_t label_a, std::uint64_t label_b) const {
  // Replays a Prf(master) that absorbs both labels and squeezes twice,
  // step for step from the cached post-init state:
  // two u64 absorptions (absorbed_len_ stays 0 — absorb_u64 does not
  // count bytes), the squeeze transition, then two squeezed words with
  // one permutation between them.
  auto s = init_state_;
  s[0] ^= label_a;
  permute_state(s);
  s[0] ^= label_b;
  permute_state(s);
  s[1] ^= 0x9E3779B97F4A7C15ULL;
  permute_state(s);
  Key k;
  k.words[0] = s[0] ^ rotl(s[2], 31);
  permute_state(s);
  k.words[1] = s[0] ^ rotl(s[2], 31);
  return k;
}

}  // namespace icpda::crypto
