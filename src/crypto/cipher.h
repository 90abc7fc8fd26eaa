// Authenticated link-level encryption for data shares.
//
// Sealed-message format:  nonce(8) || ciphertext(len) || tag(8)
// The cipher is PRF-keystream XOR; the tag is a PRF over
// (nonce, ciphertext) under a domain-separated key. Opening with the
// wrong key fails the tag check with overwhelming probability, which
// is how the eavesdropper model decides whether a captured frame is
// readable. See prf.h for the security caveat (simulation-grade).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/prf.h"

namespace icpda::crypto {

using Bytes = std::vector<std::uint8_t>;

/// Ciphertext expansion of seal_into(): nonce + tag.
inline constexpr std::size_t kSealOverheadBytes = 16;

/// Encrypt-and-authenticate `plaintext` under `key` with a caller-
/// supplied unique `nonce` (per-key uniqueness is the caller's job; the
/// protocol layers use their per-node Rng), writing the sealed message
/// into `out`. `out` is cleared and refilled and its capacity reused,
/// so a warm buffer seals with zero heap allocations: the protocol
/// keeps one buffer per cluster round and seals every member's share
/// through it. Whatever `out` held before never reaches the result —
/// pinned by CryptoBatchTest against a fresh buffer.
void seal_into(const Key& key, std::uint64_t nonce,
               std::span<const std::uint8_t> plaintext, Bytes& out);

/// Verify-and-decrypt into `plain` (cleared and refilled, capacity
/// reused). Returns false — leaving `plain` empty — on tag mismatch
/// (wrong key or corrupted message) or malformed input.
[[nodiscard]] bool open_into(const Key& key, std::span<const std::uint8_t> sealed,
                             Bytes& plain);

}  // namespace icpda::crypto
