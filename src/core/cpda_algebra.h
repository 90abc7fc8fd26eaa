// CPDA share algebra: additive polynomial secret sharing within a
// cluster (He et al., INFOCOM'07; the privacy core of the ICDCS'09
// cluster protocol).
//
// Cluster of m members with public, distinct, non-zero seeds x_1..x_m.
// Member i holding private value v_i draws random coefficients
// r_{i,1..m-1} and forms the polynomial
//     p_i(x) = v_i + r_{i,1} x + ... + r_{i,m-1} x^(m-1).
// It sends p_i(x_j) encrypted to member j (keeping p_i(x_i)). Member j
// assembles F_j = sum_i p_i(x_j) = P(x_j) where P = sum_i p_i is again
// a degree-(m-1) polynomial whose constant term is the cluster sum
// V = sum_i v_i. Once all m assembled values are public, anyone can
// interpolate P and read off V = P(0) — while any m-2 colluding
// members still cannot isolate an individual v_i.
//
// Values in this repository are aggregate triples (count, sum, sum_sq),
// so three independent polynomials run side by side — the API works on
// whole proto::Aggregate triples.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "proto/aggregate.h"
#include "proto/codec.h"
#include "sim/rng.h"

namespace icpda::core {

/// Canonical public seeds for a cluster of size m: the integers 1..m.
/// Small distinct integers keep the Vandermonde system well conditioned
/// (m stays single-digit in practice: E[m] = 1/pc).
[[nodiscard]] std::vector<double> default_seeds(std::size_t m);

/// Evaluations p(x_j) of the sharing polynomial for one private triple,
/// written into `shares`: element j is the share destined for the
/// member with seed seeds[j]. `coeff_scale` bounds the uniform random
/// coefficients; privacy only needs them unpredictable, magnitude is a
/// conditioning choice. `shares` is resized and overwritten, its
/// capacity reused, so a warm vector cuts a round of shares with zero
/// heap allocations (blinding coefficients live on the stack for
/// m <= 32); its previous contents never reach the result — pinned by
/// CryptoBatchTest against a fresh vector.
void make_shares_into(const proto::Aggregate& value, const std::vector<double>& seeds,
                      sim::Rng& rng, std::vector<proto::Aggregate>& shares,
                      double coeff_scale = 1000.0);

/// Recover the cluster sum V = P(0) from the m assembled values
/// F_j = P(x_j) by Lagrange interpolation at zero. Returns nullopt if
/// seeds are not distinct/non-zero or sizes mismatch.
[[nodiscard]] std::optional<proto::Aggregate> solve_cluster_sum(
    const std::vector<double>& seeds, const std::vector<proto::Aggregate>& assembled);

/// Lagrange-at-zero weights w_j with P(0) = sum_j w_j F_j; exposed for
/// the analysis module and tests. Empty on invalid seeds.
[[nodiscard]] std::vector<double> lagrange_weights_at_zero(
    const std::vector<double>& seeds);

// ---------------------------------------------------------------------
// Wire body of one encrypted share message (sealed inside ShareMsg).

struct ShareBody : proto::WireFormat<ShareBody> {
  std::uint32_t query_id = 0;
  /// Phase II round the share was cut for (0 = normal, 1 = recovery
  /// re-share after a member crash). Shares from different rounds come
  /// from polynomials of different degree and must never be mixed; the
  /// round rides inside the sealed body so it is authenticated.
  std::uint8_t round = 0;
  proto::Aggregate share;
  /// Epoch-freshness tag (proto::EpochTagTrailer; 0 = untagged).
  /// Unlike the frame-level trailer this copy is under the seal, so a
  /// replayed share cannot be re-stamped by an attacker without the
  /// pairwise key.
  std::uint32_t epoch_tag = 0;

  static auto fields(auto& m, auto&& f) {
    return f(m.query_id, m.round, m.share, proto::EpochTagTrailer{m.epoch_tag});
  }

  /// Byte offset of `share` inside to_bytes() output (after query_id
  /// and round). The epoch-tag trailer, if any, follows the triple.
  static const std::size_t kShareOffset;
  /// Overwrite the 24-byte share triple inside an already-serialized
  /// body. Lets the sender serialize the (query_id, round, epoch_tag)
  /// template once per cluster round and patch only the per-peer share
  /// — the bytes equal a fresh to_bytes() for every peer, which the
  /// fuzz/differential suites pin. `bytes` must come from to_bytes().
  static void patch_share(net::Bytes& bytes, const proto::Aggregate& share) {
    proto::encode_at(bytes, kShareOffset, share);
  }
};

inline constexpr std::size_t ShareBody::kShareOffset = proto::field_offset<ShareBody, 2>();
static_assert(ShareBody::kShareOffset == 5);

}  // namespace icpda::core
