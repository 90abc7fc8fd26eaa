// Measurement plumbing: counters and running statistics.
//
// Every experiment in bench/ reports through a MetricRegistry owned by
// its Simulation, so the figures are regenerated from the same counters
// the protocol code increments — no duplicated bookkeeping in the
// drivers.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace icpda::sim {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// Numerically stable for the long Monte-Carlo sweeps in bench/.
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  /// Merge another accumulator into this one (parallel-friendly).
  void merge(const RunningStats& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  /// Standard error of the mean; 0 for fewer than 2 samples.
  [[nodiscard]] double sem() const {
    return count_ > 1 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
  }
  [[nodiscard]] double min() const {
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Named counters + named stats.
///
/// add() is on the per-frame hot path (the MAC bumps several counters
/// per reception), so it takes a string_view — no std::string
/// temporary, hence no heap allocation for names past the SSO limit —
/// and memoizes the map slot in a small direct-mapped cache keyed by
/// the name's address. Counter names are string literals at every call
/// site, so the same call site hits the same cache line every time; a
/// content check (length + memcmp against the stored map key) keeps a
/// reused heap address from aliasing a stale entry. The cache affects
/// only speed, never values, so results stay deterministic.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  // The cache holds pointers into this registry's own map nodes, so it
  // must not travel with copies/moves (a default-copied cache would
  // dangle into — or worse, alias — the source registry's nodes).
  MetricRegistry(const MetricRegistry& other)
      : counters_(other.counters_), stats_(other.stats_) {}
  MetricRegistry& operator=(const MetricRegistry& other) {
    counters_ = other.counters_;
    stats_ = other.stats_;
    reset_cache();
    return *this;
  }
  MetricRegistry(MetricRegistry&& other) noexcept
      : counters_(std::move(other.counters_)), stats_(std::move(other.stats_)) {
    other.reset_cache();
  }
  MetricRegistry& operator=(MetricRegistry&& other) noexcept {
    counters_ = std::move(other.counters_);
    stats_ = std::move(other.stats_);
    reset_cache();
    other.reset_cache();
    return *this;
  }

  void add(std::string_view counter, std::uint64_t delta = 1) {
    CacheEntry& e = cache_[slot_of(counter)];
    if (e.name != nullptr && e.name->size() == counter.size() &&
        std::memcmp(e.name->data(), counter.data(), counter.size()) == 0) {
      *e.value += delta;
      return;
    }
    add_slow(e, counter, delta);
  }

  /// A pre-bound counter handle for call sites even hotter than the
  /// direct-mapped cache can serve (the channel touches a counter per
  /// receiver per frame — millions of times per epoch). The handle
  /// resolves its map cell on first add() — lazily, so a counter that
  /// is never incremented still never appears in dumps — and then
  /// costs a test + pointer increment. std::map nodes are stable, so
  /// the cell outlives later inserts; like the internal cache, a
  /// handle must not be used across its registry's clear()/assignment
  /// (no call site does either mid-run).
  class Cell {
   public:
    /// `name` must outlive the handle (string literals at every site).
    explicit Cell(std::string_view name) : name_(name) {}

    void add(MetricRegistry& reg, std::uint64_t delta = 1) {
      if (value_ == nullptr) value_ = reg.cell_of(name_);
      *value_ += delta;
    }

   private:
    std::string_view name_;
    std::uint64_t* value_ = nullptr;
  };
  void observe(std::string_view stat, double value);

  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] const RunningStats& stat(std::string_view name) const {
    static const RunningStats kEmpty;
    const auto it = stats_.find(name);
    return it == stats_.end() ? kEmpty : it->second;
  }

  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, RunningStats, std::less<>>& stats() const {
    return stats_;
  }

  void clear() {
    counters_.clear();
    stats_.clear();
    reset_cache();
  }

  /// Fold another registry into this one: counters add, stats merge.
  /// The reduction step behind parallel experiment execution — merging
  /// per-run registries in a fixed order is deterministic, so reduced
  /// results do not depend on which thread finished first.
  void merge(const MetricRegistry& other);

  /// Fold this registry into `dst` and reset it IN PLACE: counter
  /// values move to `dst` and zero here, stats merge and reset here.
  /// Unlike clear(), no map node is ever erased — pre-bound Cell
  /// handles (the channel/MAC hot-path cells bound to a shard registry)
  /// stay valid across the drain, which is what lets the sharded
  /// Network drain its per-shard registries into the main one after
  /// every run and keep simulating.
  void drain_into(MetricRegistry& dst);

  /// Human-readable dump (used by examples and debugging).
  void print(std::ostream& os) const;

  /// Approximate heap bytes held (map nodes + heap-allocated names).
  /// Node overhead is estimated at 48 bytes (rb-tree color/parent/
  /// children plus allocator rounding) — advisory accounting for the
  /// footprint probe, not an allocator audit.
  [[nodiscard]] std::size_t footprint_bytes() const {
    constexpr std::size_t kNode = 48;
    std::size_t bytes = 0;
    for (const auto& [k, v] : counters_) {
      bytes += kNode + sizeof(std::string) + sizeof(v);
      if (k.capacity() > sizeof(std::string)) bytes += k.capacity() + 1;
    }
    for (const auto& [k, v] : stats_) {
      bytes += kNode + sizeof(std::string) + sizeof(v);
      if (k.capacity() > sizeof(std::string)) bytes += k.capacity() + 1;
    }
    return bytes;
  }

 private:
  /// Memo of one resolved counter per slot: the map key (for the
  /// content check) and its value cell. std::map nodes are stable, so
  /// both pointers survive later inserts; only clear()/copy/move
  /// invalidate them.
  struct CacheEntry {
    const std::string* name = nullptr;
    std::uint64_t* value = nullptr;
  };
  static constexpr std::size_t kCacheSlots = 64;

  [[nodiscard]] static std::size_t slot_of(std::string_view name) {
    // Literals are word-aligned-ish; dropping the low bits spreads
    // distinct call sites across slots.
    return (reinterpret_cast<std::uintptr_t>(name.data()) >> 4) % kCacheSlots;
  }
  void add_slow(CacheEntry& e, std::string_view counter, std::uint64_t delta);
  void reset_cache() { cache_.fill(CacheEntry{}); }

  /// Insert-or-find the counter and return its stable value cell.
  [[nodiscard]] std::uint64_t* cell_of(std::string_view name) {
    const auto it = counters_.find(name);
    if (it != counters_.end()) return &it->second;
    return &counters_.emplace(std::string(name), 0).first->second;
  }

  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, RunningStats, std::less<>> stats_;
  std::array<CacheEntry, kCacheSlots> cache_{};
};

}  // namespace icpda::sim
