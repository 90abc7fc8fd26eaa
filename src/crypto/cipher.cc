#include "crypto/cipher.h"

#include <bit>
#include <cstring>
#include <span>

namespace icpda::crypto {

namespace {

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[pos + i]) << (8 * i);
  }
  return v;
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof v);
}

/// XOR the PRF keystream for (key, nonce) into `data`. Whole words XOR
/// in one 64-bit op; byte k of each squeezed word lands on data[i + k]
/// exactly as the byte-at-a-time loop placed it.
void keystream_xor(const Key& key, std::uint64_t nonce,
                   std::span<std::uint8_t> data) {
  Prf prf(key);
  prf.absorb_u64(0x656E63ULL);  // "enc" domain separator
  prf.absorb_u64(nonce);
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 8 <= n; i += 8) {
    store_le64(&data[i], load_le64(&data[i]) ^ prf.squeeze64());
  }
  if (i < n) {
    const std::uint64_t ks = prf.squeeze64();
    for (int b = 0; i < n; ++b, ++i) {
      data[i] ^= static_cast<std::uint8_t>(ks >> (8 * b));
    }
  }
}

/// Authentication tag over (nonce, ciphertext).
std::uint64_t auth_tag(const Key& key, std::uint64_t nonce,
                       std::span<const std::uint8_t> ciphertext) {
  Prf prf(key);
  prf.absorb_u64(0x746167ULL);  // "tag" domain separator
  prf.absorb_u64(nonce);
  prf.absorb(ciphertext);
  return prf.squeeze64();
}

}  // namespace

void seal_into(const Key& key, std::uint64_t nonce,
               std::span<const std::uint8_t> plaintext, Bytes& out) {
  out.clear();
  out.reserve(plaintext.size() + kSealOverheadBytes);
  put_u64(out, nonce);
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  keystream_xor(key, nonce, std::span{out}.subspan(8));
  const std::uint64_t tag =
      auth_tag(key, nonce, std::span{out}.subspan(8, plaintext.size()));
  put_u64(out, tag);
}

bool open_into(const Key& key, std::span<const std::uint8_t> sealed, Bytes& plain) {
  plain.clear();
  if (sealed.size() < kSealOverheadBytes) return false;
  const std::uint64_t nonce = get_u64(sealed, 0);
  const std::size_t ct_len = sealed.size() - kSealOverheadBytes;
  const std::uint64_t claimed = get_u64(sealed, 8 + ct_len);
  const std::uint64_t expected = auth_tag(key, nonce, sealed.subspan(8, ct_len));
  if (claimed != expected) return false;
  plain.assign(sealed.begin() + 8,
               sealed.begin() + 8 + static_cast<std::ptrdiff_t>(ct_len));
  keystream_xor(key, nonce, std::span{plain});
  return true;
}

}  // namespace icpda::crypto
