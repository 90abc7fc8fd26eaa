// Concrete key-management schemes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/keys.h"
#include "sim/rng.h"

namespace icpda::crypto {

/// Ideal pairwise keying: every unordered pair {a, b} shares a unique
/// key derived from a network-wide master secret loaded before
/// deployment. No third party holds any link's key.
class MasterPairwiseScheme final : public KeyScheme {
 public:
  explicit MasterPairwiseScheme(Key master)
      : master_(master), deriver_(master) {}

  [[nodiscard]] std::optional<Key> link_key(net::NodeId a,
                                            net::NodeId b) const override;
  /// One cached key schedule serves the whole member set (KeyDeriver);
  /// entry values are byte-identical to the per-pair path.
  void link_keys(net::NodeId self, std::span<const net::NodeId> peers,
                 std::vector<std::optional<Key>>& out) const override;
  [[nodiscard]] bool third_party_can_read(net::NodeId, net::NodeId,
                                          net::NodeId) const override {
    return false;
  }

 private:
  Key master_;
  KeyDeriver deriver_;  ///< cached post-init sponge state for master_
};

/// Eschenauer–Gligor random key predistribution.
///
/// A pool of `pool_size` keys exists; each of `node_count` sensors is
/// pre-loaded with a ring of `ring_size` distinct keys drawn uniformly
/// from the pool. Two neighbours use the smallest-id key their rings
/// share. A third node whose ring contains that key can read the link —
/// this is what makes the effective link-compromise probability px
/// non-zero even without node capture.
class EgPredistribution final : public KeyScheme {
 public:
  EgPredistribution(std::size_t node_count, std::size_t pool_size,
                    std::size_t ring_size, sim::Rng rng);

  [[nodiscard]] std::optional<Key> link_key(net::NodeId a,
                                            net::NodeId b) const override;
  [[nodiscard]] bool third_party_can_read(net::NodeId a, net::NodeId b,
                                          net::NodeId c) const override;

  /// Key ids in node `n`'s ring (sorted).
  [[nodiscard]] const std::vector<std::uint32_t>& ring(net::NodeId n) const {
    return rings_.at(n);
  }
  [[nodiscard]] std::size_t pool_size() const { return pool_size_; }
  [[nodiscard]] std::size_t ring_size() const { return ring_size_; }

  /// Smallest shared key id for {a, b}, or nullopt.
  [[nodiscard]] std::optional<std::uint32_t> shared_key_id(net::NodeId a,
                                                           net::NodeId b) const;

  /// Closed-form probability that two random rings intersect:
  ///   1 - C(P-k, k) / C(P, k)
  /// (Eschenauer & Gligor 2002, eq. for direct connectivity).
  [[nodiscard]] static double connect_probability(std::size_t pool_size,
                                                  std::size_t ring_size);

 private:
  std::size_t pool_size_;
  std::size_t ring_size_;
  Key pool_master_;
  KeyDeriver pool_deriver_;  ///< cached post-init sponge state for pool_master_
  std::vector<std::vector<std::uint32_t>> rings_;

  [[nodiscard]] Key pool_key(std::uint32_t key_id) const;
};

}  // namespace icpda::crypto
