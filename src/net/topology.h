// Unit-disk connectivity graph over a deployment.
//
// Two sensors share a wireless link iff their distance is at most the
// transmission range (the random-geometric-graph model G(N, r) used
// throughout the paper family). The Topology is immutable once built;
// the Channel consults it on every transmission, so the adjacency is
// stored as a flat CSR array (one offsets array + one neighbour
// array) built once per deployment: neighbour iteration is a single
// contiguous scan with no per-node vector indirection.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/geometry.h"
#include "sim/rng.h"

namespace icpda::net {

/// Index of a node within one simulation; the base station is always
/// node 0 by convention (see Network).
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFF;

class Topology {
 public:
  /// Builds the unit-disk graph for the given positions and range.
  Topology(std::vector<Point> positions, double range);

  [[nodiscard]] std::size_t size() const { return positions_.size(); }
  [[nodiscard]] double range() const { return range_; }
  [[nodiscard]] const Point& position(NodeId id) const { return positions_.at(id); }
  [[nodiscard]] const std::vector<Point>& positions() const { return positions_; }

  /// Physical one-hop neighbours of `id` (excluding `id` itself), in
  /// ascending id order. A contiguous view into the CSR adjacency;
  /// valid for the lifetime of the Topology.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const {
    if (id >= positions_.size()) {
      throw std::out_of_range("Topology::neighbors: bad node id");
    }
    return {csr_flat_.data() + csr_offsets_[id],
            csr_flat_.data() + csr_offsets_[id + 1]};
  }

  [[nodiscard]] bool adjacent(NodeId a, NodeId b) const;

  [[nodiscard]] std::size_t degree(NodeId id) const {
    if (id >= positions_.size()) {
      throw std::out_of_range("Topology::degree: bad node id");
    }
    return csr_offsets_[id + 1] - csr_offsets_[id];
  }
  [[nodiscard]] double average_degree() const;
  [[nodiscard]] std::size_t min_degree() const;
  [[nodiscard]] std::size_t edge_count() const { return csr_flat_.size() / 2; }

  /// Directed links (sender -> receiver), numbered by CSR slot: the
  /// links out of `id` are first_link(id) + k for its k-th neighbour.
  [[nodiscard]] std::size_t link_count() const { return csr_flat_.size(); }
  [[nodiscard]] std::size_t first_link(NodeId id) const { return csr_offsets_[id]; }

  /// Heap bytes held by the deployment (positions + CSR adjacency).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return positions_.capacity() * sizeof(Point) +
           csr_offsets_.capacity() * sizeof(std::uint32_t) +
           csr_flat_.capacity() * sizeof(NodeId);
  }

  /// True iff the graph is connected (BFS from node 0).
  [[nodiscard]] bool connected() const;

  /// Nodes reachable from `root`, including `root`.
  [[nodiscard]] std::vector<NodeId> reachable_from(NodeId root) const;

  /// Hop distance from `root` to every node (kUnreachable if none).
  static constexpr std::uint32_t kUnreachable = 0xFFFFFFFF;
  [[nodiscard]] std::vector<std::uint32_t> hop_distances(NodeId root) const;

 private:
  std::vector<Point> positions_;
  double range_;
  /// CSR adjacency: neighbours of i are csr_flat_[csr_offsets_[i] ..
  /// csr_offsets_[i+1]), sorted ascending. offsets has size() + 1
  /// entries.
  std::vector<std::uint32_t> csr_offsets_;
  std::vector<NodeId> csr_flat_;
};

/// Convenience: sample a uniform deployment and build its topology.
/// `base_station_at_center` replaces node 0's sampled position with the
/// field center (the paper family places the BS centrally).
[[nodiscard]] Topology make_random_topology(const Field& field, std::size_t n,
                                            double range, sim::Rng& rng,
                                            bool base_station_at_center = true);

}  // namespace icpda::net
