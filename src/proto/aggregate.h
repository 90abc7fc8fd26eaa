// Additive aggregation algebra.
//
// The paper studies additive aggregation functions y = sum_i r_i and
// notes they are the base of count/mean/variance/stddev (each sensor
// contributes the triple (1, r, r^2)) and of power-mean approximations
// of min/max. Aggregate carries exactly that triple; it forms a
// commutative monoid under merge(), which is the algebraic fact that
// makes in-network aggregation order-insensitive.
#pragma once

#include <algorithm>
#include <cmath>

namespace icpda::proto {

struct Aggregate {
  /// Real-valued: the privacy protocols (SMART slicing, CPDA shares)
  /// split even the count component into random real shares, so the
  /// whole triple lives in R^3. For plain TAG it stays integral.
  double count = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;

  /// Contribution of one sensor reading.
  [[nodiscard]] static Aggregate of(double reading) {
    return Aggregate{1.0, reading, reading * reading};
  }

  void merge(const Aggregate& other) {
    count += other.count;
    sum += other.sum;
    sum_sq += other.sum_sq;
  }

  [[nodiscard]] Aggregate merged(const Aggregate& other) const {
    Aggregate out = *this;
    out.merge(other);
    return out;
  }

  [[nodiscard]] double mean() const { return count > 0 ? sum / count : 0.0; }

  /// Population variance E[r^2] - E[r]^2 (the paper's formula).
  [[nodiscard]] double variance() const {
    if (count <= 0) return 0.0;
    const double m = mean();
    return sum_sq / count - m * m;
  }

  [[nodiscard]] double stddev() const { return std::sqrt(std::max(0.0, variance())); }

  friend bool operator==(const Aggregate&, const Aggregate&) = default;

  /// Wire fields, in order (proto/codec.h).
  static auto fields(auto& m, auto&& f) { return f(m.count, m.sum, m.sum_sq); }
};

/// Power-mean approximation of max over positive readings:
///   max(x) ~= (sum x_i^k)^(1/k) for large k
/// (the paper's Section II-B device for reducing MIN/MAX to sums).
/// The caller aggregates contributions x_i^k additively and applies
/// this finisher. Use `power_mean_min` with k < 0 for MIN.
[[nodiscard]] inline double power_mean_finish(double sum_of_powers, double k) {
  return std::pow(sum_of_powers, 1.0 / k);
}

[[nodiscard]] inline double power_contribution(double reading, double k) {
  return std::pow(reading, k);
}

}  // namespace icpda::proto
