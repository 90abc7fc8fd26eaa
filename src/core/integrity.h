// Peer-monitoring integrity audit (iCPDA Phase III).
//
// A witness is a cluster member of a cluster head (CH). Because the
// wireless medium is shared, the witness physically overhears (a) the
// reports the CH's tree children address to the CH and (b) the CH's own
// outgoing report — and because the digest was broadcast in Phase II,
// the witness independently knows the true cluster sum.
//
// Reports are ITEMIZED (ReportMsg::items): the head lists each input it
// merged, with its value, including its own cluster sum under its own
// id. The audit therefore checks, in order:
//  * structure: total == sum(items) — verifiable by ANY witness, so
//    "smearing" pollution across the total is always caught;
//  * the head's own item against the cluster sum the witness solved;
//  * every child item the witness personally overheard;
//  * omissions: the head hides its cluster sum, or hides a child input
//    the witness saw arrive before the guard window.
// Items the witness did not overhear are skipped — a better-placed
// witness may still check them; the verdict records how many were
// unverified (kClean = all seen, kPartialClean = no lie found in the
// part we could see).
//
// WitnessMonitor is pure state + decision logic (no radio, no timers),
// unit-testable on synthetic traces.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/flat_set.h"
#include "net/topology.h"
#include "proto/aggregate.h"
#include "proto/messages.h"
#include "sim/time.h"

namespace icpda::core {

class WitnessMonitor {
 public:
  /// Items compare within IcpdaConfig::witness_tolerance, scaled by
  /// magnitude.
  struct Config {
    /// Inputs overheard within this window before the head's report
    /// are exempt from omission alarms (the head may legitimately have
    /// closed aggregation already).
    double omission_guard_s = 0.08;
  };

  struct Verdict {
    enum class Kind : std::uint8_t {
      kClean,         ///< every item verified, all match
      kPartialClean,  ///< verified subset matches; some items unseen
      kMismatch,      ///< a verifiable item (or the total) is wrong -> alarm
      kOmission,      ///< input provably dropped -> alarm
      kNoKnowledge    ///< witness never solved the cluster sum
    };
    Kind kind = Kind::kNoKnowledge;
    double expected_sum = 0.0;
    double observed_sum = 0.0;
    std::size_t unverified_items = 0;

    [[nodiscard]] bool alarming() const {
      return kind == Kind::kMismatch || kind == Kind::kOmission;
    }
  };

  explicit WitnessMonitor(Config config) : config_(config) {}
  WitnessMonitor() = default;

  void set_target(net::NodeId head) { target_ = head; }
  [[nodiscard]] net::NodeId target() const { return target_; }

  /// The cluster sum this witness solved in Phase II.
  void set_cluster_sum(const proto::Aggregate& v) {
    cluster_sum_ = v;
    have_cluster_sum_ = true;
  }
  [[nodiscard]] bool knows_cluster_sum() const { return have_cluster_sum_; }

  /// An overheard report addressed to the target head.
  void record_input(const proto::ReportMsg& report, sim::SimTime heard_at);

  /// Audit the head's outgoing report, overheard at `now`.
  [[nodiscard]] Verdict audit(const proto::ReportMsg& outgoing, sim::SimTime now) const;

 private:
  struct Input {
    proto::Aggregate aggregate;
    sim::SimTime heard_at;
  };

  Config config_;
  net::NodeId target_ = net::kNoNode;
  proto::Aggregate cluster_sum_;
  bool have_cluster_sum_ = false;
  FlatMap<net::NodeId, Input> inputs_;
};

}  // namespace icpda::core
