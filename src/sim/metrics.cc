#include "sim/metrics.h"

namespace icpda::sim {

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void MetricRegistry::add_slow(CacheEntry& e, std::string_view counter,
                              std::uint64_t delta) {
  auto it = counters_.find(counter);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(counter), std::uint64_t{0}).first;
  }
  it->second += delta;
  e.name = &it->first;
  e.value = &it->second;
}

void MetricRegistry::observe(std::string_view stat, double value) {
  auto it = stats_.find(stat);
  if (it == stats_.end()) {
    it = stats_.emplace(std::string(stat), RunningStats{}).first;
  }
  it->second.add(value);
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, s] : other.stats_) stats_[name].merge(s);
}

void MetricRegistry::drain_into(MetricRegistry& dst) {
  for (auto& [name, value] : counters_) {
    dst.counters_[name] += value;
    value = 0;  // node kept: bound Cells stay valid
  }
  for (auto& [name, s] : stats_) {
    dst.stats_[name].merge(s);
    s = RunningStats{};
  }
}

void MetricRegistry::print(std::ostream& os) const {
  os << "counters:\n";
  for (const auto& [name, value] : counters_) {
    os << "  " << name << " = " << value << "\n";
  }
  os << "stats:\n";
  for (const auto& [name, s] : stats_) {
    os << "  " << name << ": n=" << s.count() << " mean=" << s.mean()
       << " sd=" << s.stddev() << " min=" << s.min() << " max=" << s.max() << "\n";
  }
}

}  // namespace icpda::sim
