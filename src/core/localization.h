// Polluter localization by group testing (the paper's DoS
// countermeasure: a polluter that keeps forcing rejections is isolated
// in O(log N) query rounds by varying which sensors may aggregate).
//
// The base station only needs the accept/reject bit of each round. It
// keeps a suspect set (initially: everyone); each round it allows only
// half of the suspects (plus all non-suspects) to participate and
// re-runs the query. A rejection means an active polluter was among
// the allowed suspects; acceptance means the polluter sat in the
// excluded half. Either way the suspect set halves.
//
// The epoch itself is abstracted behind EpochRunner so the localizer
// is unit-testable against a synthetic oracle and reusable with the
// full simulation (see bench_localization).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/topology.h"
#include "net/packet.h"

namespace icpda::core {

/// Runs one aggregation epoch restricted to `allowed_mask` (bit per
/// node id; see HelloMsg::allows) and reports whether the base station
/// accepted the result.
using EpochRunner = std::function<bool(const net::Bytes& allowed_mask)>;

struct LocalizationResult {
  /// The isolated polluter, if the suspect set narrowed to one node.
  std::optional<net::NodeId> isolated;
  /// Query rounds consumed.
  std::uint32_t rounds = 0;
  /// Suspect set when the procedure stopped.
  std::vector<net::NodeId> suspects;
};

/// Bitmask with bits set for `ids` plus always node 0 (base station).
[[nodiscard]] net::Bytes make_allowed_mask(std::size_t node_count,
                                           const std::vector<net::NodeId>& ids);

/// Isolate a single (non-colluding) polluter among nodes 1..N-1.
/// `max_rounds` bounds the procedure against oracle noise (detection
/// in a real epoch is probabilistic); on inconclusive splits the
/// procedure keeps the full current suspect set and retries, so noisy
/// rounds cost time but not correctness.
[[nodiscard]] LocalizationResult localize_polluter(std::size_t node_count,
                                                   const EpochRunner& run_epoch,
                                                   std::uint32_t max_rounds = 64);

}  // namespace icpda::core
