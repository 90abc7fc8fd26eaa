// Spatial shard plan: the static partition behind the parallel epoch
// engine (net/shard_engine.h).
//
// Two partitioners share one plan shape:
//
//  - make_stripe_plan: equal-width vertical stripes by x coordinate.
//    The PR-8/9 partition; kept as the comparison baseline (its border
//    band grows with field height and its load balance is whatever the
//    deployment happens to give).
//  - make_tile_plan: event-load-balanced 2-D tiling. The field is
//    rasterised into grid buckets of roughly one radio range, each
//    bucket weighted by its estimated event load (1 + degree per node:
//    a node's event count is dominated by the receptions it fields,
//    which scale with its neighbour count), and buckets are assigned
//    to shards by recursive orthogonal bisection — split the bucket
//    rectangle across its longer axis at the weighted median, splitting
//    the shard budget k into floor(k/2)/ceil(k/2), and recurse. Tiles
//    come out contiguous, load-balanced, and with short cut lines,
//    which is what minimises the border-node count (only border nodes
//    ever serialize through the engine's gate).
//
// A node is a *border* node iff any of its radio neighbours lives in a
// different shard — only border nodes can interact across a shard
// boundary, and only when they transmit (or a unicast addressed to
// them solicits an ACK). Everything the lookahead engine needs is
// derived here, once, from the topology: the partition map, the border
// set, the per-shard population and the per-shard load estimate.
//
// This header is deliberately net-type-free (plain integer ids + a
// neighbour callback) so sim/ does not depend on net/: the Network
// adapts its CSR topology when building the plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace icpda::sim {

/// Most shards one Network may run: each shard is a worker thread, so
/// an unchecked count (--shards, NetworkConfig::shards)
/// asks for that many threads at once. 8x the largest count any test
/// or bench uses.
inline constexpr std::size_t kMaxShards = 64;

struct ShardPlan {
  std::uint32_t shard_count = 1;
  /// Node id -> shard index.
  std::vector<std::uint32_t> shard_of;
  /// Node id -> 1 iff any neighbour is in another shard.
  std::vector<std::uint8_t> border;
  std::size_t border_count = 0;
  std::vector<std::uint32_t> shard_sizes;
  /// Estimated event load per shard: sum over member nodes of
  /// (1 + degree). The quantity the tile partitioner balances.
  std::vector<std::uint64_t> est_load;

  [[nodiscard]] std::size_t node_count() const { return shard_of.size(); }

  /// Max/mean estimated shard load (1.0 = perfectly balanced; the
  /// slowest shard paces every drain round, so this bounds achievable
  /// parallel speed-up from below).
  [[nodiscard]] double balance() const;
};

/// Enumerate `node`'s neighbours through the callback.
using NeighborFn =
    std::function<void(std::uint32_t node, const std::function<void(std::uint32_t)>&)>;

/// Cut `[0, field_width)` into `shards` equal vertical stripes and
/// assign each node by its x coordinate (clamped into range). With
/// shards == 1 every node is interior and the plan is trivial.
[[nodiscard]] ShardPlan make_stripe_plan(const std::vector<double>& xs,
                                         double field_width, std::uint32_t shards,
                                         const NeighborFn& neighbors);

/// Event-load-balanced 2-D tiling by recursive orthogonal bisection
/// (see file comment). `cell_hint` sets the bucket granularity —
/// pass the radio range; it is clamped so the grid always has enough
/// buckets to split `shards` ways. Deterministic in its arguments
/// (pure arithmetic, no RNG), so every engine/thread configuration
/// sees the same partition.
[[nodiscard]] ShardPlan make_tile_plan(const std::vector<double>& xs,
                                       const std::vector<double>& ys,
                                       double field_width, double field_height,
                                       double cell_hint, std::uint32_t shards,
                                       const NeighborFn& neighbors);

}  // namespace icpda::sim
