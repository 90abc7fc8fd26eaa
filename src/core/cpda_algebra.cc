#include "core/cpda_algebra.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "proto/messages.h"

namespace icpda::core {

std::vector<double> default_seeds(std::size_t m) {
  std::vector<double> seeds(m);
  for (std::size_t i = 0; i < m; ++i) seeds[i] = static_cast<double>(i + 1);
  return seeds;
}

namespace {
bool seeds_valid(const std::vector<double>& seeds) {
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (seeds[i] == 0.0) return false;
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      if (seeds[i] == seeds[j]) return false;
    }
  }
  return !seeds.empty();
}
}  // namespace

void make_shares_into(const proto::Aggregate& value, const std::vector<double>& seeds,
                      sim::Rng& rng, std::vector<proto::Aggregate>& shares,
                      double coeff_scale) {
  const std::size_t m = seeds.size();
  const std::size_t n_coeffs = m > 0 ? m - 1 : 0;
  double x_max = 1.0;
  for (const double s : seeds) x_max = std::max(x_max, std::abs(s));
  // Three polynomials share the structure; coefficients are drawn
  // independently per component (count, sum, sum_sq). The degree-t
  // coefficient is scaled by 1/x_max^t so every blinding term stays
  // O(coeff_scale) at every seed — keeping the share magnitudes (and
  // hence the Vandermonde conditioning of the solve) flat in m.
  // Privacy is unaffected: disclosure is a rank property of the linear
  // system, independent of the noise magnitudes.
  proto::Aggregate stack_coeffs[31];
  std::vector<proto::Aggregate> heap_coeffs;
  proto::Aggregate* coeffs = stack_coeffs;
  if (n_coeffs > 31) {
    heap_coeffs.resize(n_coeffs);
    coeffs = heap_coeffs.data();
  }
  double scale_t = coeff_scale;
  for (std::size_t t = 0; t < n_coeffs; ++t) {
    scale_t /= x_max;
    coeffs[t].count = rng.uniform(-scale_t, scale_t);
    coeffs[t].sum = rng.uniform(-scale_t, scale_t);
    coeffs[t].sum_sq = rng.uniform(-scale_t, scale_t);
  }
  shares.assign(m, proto::Aggregate{});
  for (std::size_t j = 0; j < m; ++j) {
    // Horner evaluation of each component polynomial at seeds[j].
    proto::Aggregate acc;  // zero
    for (std::size_t t = n_coeffs; t-- > 0;) {
      acc.count = acc.count * seeds[j] + coeffs[t].count;
      acc.sum = acc.sum * seeds[j] + coeffs[t].sum;
      acc.sum_sq = acc.sum_sq * seeds[j] + coeffs[t].sum_sq;
    }
    shares[j].count = acc.count * seeds[j] + value.count;
    shares[j].sum = acc.sum * seeds[j] + value.sum;
    shares[j].sum_sq = acc.sum_sq * seeds[j] + value.sum_sq;
  }
}

std::vector<double> lagrange_weights_at_zero(const std::vector<double>& seeds) {
  if (!seeds_valid(seeds)) return {};
  const std::size_t m = seeds.size();
  std::vector<double> w(m, 1.0);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      if (k == j) continue;
      w[j] *= seeds[k] / (seeds[k] - seeds[j]);
    }
  }
  return w;
}

std::optional<proto::Aggregate> solve_cluster_sum(
    const std::vector<double>& seeds, const std::vector<proto::Aggregate>& assembled) {
  if (seeds.size() != assembled.size()) return std::nullopt;
  if (!seeds_valid(seeds)) return std::nullopt;
  const std::size_t m = seeds.size();
  // Weights on the stack for protocol-sized clusters (m <= 32); the
  // loop order matches lagrange_weights_at_zero() exactly so the float
  // results are bit-identical to the weight-vector path.
  double stack_w[32];
  std::vector<double> heap_w;
  double* w = stack_w;
  if (m > 32) {
    heap_w.resize(m);
    w = heap_w.data();
  }
  for (std::size_t j = 0; j < m; ++j) w[j] = 1.0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      if (k == j) continue;
      w[j] *= seeds[k] / (seeds[k] - seeds[j]);
    }
  }
  proto::Aggregate v;
  for (std::size_t j = 0; j < m; ++j) {
    v.count += w[j] * assembled[j].count;
    v.sum += w[j] * assembled[j].sum;
    v.sum_sq += w[j] * assembled[j].sum_sq;
  }
  return v;
}

// ---------------------------------------------------------------------

net::Bytes ShareBody::to_bytes() const {
  net::WireWriter w;
  w.u32(query_id);
  w.u8(round);
  share.write(w);
  proto::write_epoch_tag(w, epoch_tag);
  return std::move(w).take();
}

void ShareBody::patch_share(net::Bytes& bytes, const proto::Aggregate& share) {
  const auto put = [&bytes](std::size_t off, double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[off + i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
  };
  put(kShareOffset, share.count);
  put(kShareOffset + 8, share.sum);
  put(kShareOffset + 16, share.sum_sq);
}

std::optional<ShareBody> ShareBody::from_bytes(const net::Bytes& b) {
  try {
    net::WireReader r(b);
    ShareBody body;
    body.query_id = r.u32();
    body.round = r.u8();
    body.share = proto::Aggregate::read(r);
    body.epoch_tag = proto::read_epoch_tag(r);
    return body;
  } catch (const net::WireError&) {
    return std::nullopt;
  }
}

}  // namespace icpda::core
