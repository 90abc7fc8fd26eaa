// Epoch timing shared by the tree-based protocols.
//
// TAG-style aggregation schedules reporting by tree depth: a node at
// hop h transmits its aggregate (max_hops - h) slots after it learned
// its place in the tree, so children's reports arrive before the
// parent's own slot. All tree protocols in this repository (TAG, SMART,
// iCPDA Phase III) share this discipline.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/time.h"

namespace icpda::proto {

/// Experiments vary the depth budget and the close slack; the other
/// timings are fixed (`static constexpr`, read like fields).
struct TreeTiming {
  /// Base-station delay before issuing the query flood.
  static constexpr double start_delay_s = 0.05;
  /// Application-level jitter before re-broadcasting a HELLO (on top
  /// of MAC backoff; desynchronises the flood wavefront).
  static constexpr double hello_jitter_s = 0.05;
  /// Depth budget of the epoch: nodes deeper than this cannot report
  /// in time (the field/range combinations used in the experiments
  /// stay well below it).
  std::uint16_t max_hops = 24;
  /// Per-hop reporting slot.
  static constexpr double hop_slot_s = 0.08;
  /// Extra slack before the base station closes the epoch.
  double close_slack_s = 0.5;

  /// Delay, from the moment a node at `hop` learns its tree position,
  /// until it must transmit its report.
  [[nodiscard]] sim::SimTime report_delay(std::uint16_t hop) const {
    const std::uint16_t remaining = hop >= max_hops ? 0 : static_cast<std::uint16_t>(max_hops - hop);
    return sim::seconds(static_cast<double>(remaining) * hop_slot_s);
  }

  /// Delay, from query issue, until the base station closes the epoch.
  [[nodiscard]] sim::SimTime close_delay() const {
    return sim::seconds(static_cast<double>(max_hops + 2) * hop_slot_s + close_slack_s);
  }
};

/// One reading per sensor, indexed by node id. Experiments install a
/// provider; COUNT queries use `constant_reading(1.0)`.
using ReadingProvider = std::function<double(std::uint32_t node_id)>;

[[nodiscard]] inline ReadingProvider constant_reading(double value) {
  return [value](std::uint32_t) { return value; };
}

}  // namespace icpda::proto
