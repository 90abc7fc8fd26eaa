// Sorted-vector set and map for small, hot per-node state.
//
// The protocol keeps a few per-node dedup/membership sets that are
// touched once per received frame (hello sources, forwarded-alarm
// keys) but only ever queried for membership and size — never
// iterated. std::set pays a node allocation and an O(log n) pointer
// chase per insert for ordering nobody reads; a sorted vector keeps
// the same semantics (strict weak order, unique elements) with
// contiguous storage, and past the first few epochs inserts are
// almost always duplicates, i.e. a binary search with no write.
//
// FlatMap is the keyed twin for the per-neighbour maps (backup
// parents, early shares, overheard inputs), and unlike FlatSet it IS
// iterated: in ascending key order, as std::map would be, which the
// failover choice, the early-share replay and the witness audit read.
// These maps hold a few to a few dozen neighbours, so the O(n) insert
// shift costs less than a tree node allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace icpda::core {

template <typename T>
class FlatSet {
 public:
  /// Insert `v`; returns true if it was not already present.
  bool insert(const T& v) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it != items_.end() && *it == v) return false;
    items_.insert(it, v);
    return true;
  }

  [[nodiscard]] bool contains(const T& v) const {
    return std::binary_search(items_.begin(), items_.end(), v);
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

 private:
  std::vector<T> items_;
};

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  /// The value at `key`, value-initialised and inserted if absent.
  V& operator[](const K& key) {
    auto it = std::lower_bound(items_.begin(), items_.end(), key, key_less);
    if (it == items_.end() || it->first != key) it = items_.insert(it, value_type{key, V{}});
    return it->second;
  }

  [[nodiscard]] const_iterator find(const K& key) const {
    const auto it = std::lower_bound(items_.begin(), items_.end(), key, key_less);
    return it != items_.end() && it->first == key ? it : items_.end();
  }

  /// Iteration is in ascending key order.
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  void clear() { items_.clear(); }

 private:
  static bool key_less(const value_type& item, const K& key) { return item.first < key; }

  std::vector<value_type> items_;
};

}  // namespace icpda::core
