#include "core/integrity.h"

#include <algorithm>
#include <cmath>

namespace icpda::core {

void WitnessMonitor::record_input(const proto::ReportMsg& report, sim::SimTime heard_at) {
  // Retransmissions overwrite; the aggregate is identical anyway.
  inputs_[report.reporter] = Input{report.aggregate, heard_at};
}

namespace {
bool triples_match(const proto::Aggregate& a, const proto::Aggregate& b,
                   double tolerance) {
  // Fail closed on non-finite values: the tolerance scales with the
  // magnitudes, so +Inf against a finite value would otherwise give
  // Inf <= Inf and match.
  const auto ok = [tolerance](double x, double y) {
    if (!std::isfinite(x) || !std::isfinite(y)) return false;
    const double scale = std::max({1.0, std::abs(x), std::abs(y)});
    return std::abs(x - y) <= tolerance * scale;
  };
  return ok(a.count, b.count) && ok(a.sum, b.sum) && ok(a.sum_sq, b.sum_sq);
}
}  // namespace

WitnessMonitor::Verdict WitnessMonitor::audit(const proto::ReportMsg& outgoing,
                                              sim::SimTime now) const {
  Verdict v;
  v.observed_sum = outgoing.aggregate.sum;

  // Without the cluster sum the witness has no anchor: it cannot tell
  // how much of the outgoing report is the head's own cluster.
  if (!have_cluster_sum_) {
    v.kind = Verdict::Kind::kNoKnowledge;
    return v;
  }

  // Structural check, independent of what we overheard: the claimed
  // total must equal the sum of the claimed items.
  proto::Aggregate item_total;
  for (const auto& item : outgoing.items) item_total.merge(item.value);
  if (!triples_match(item_total, outgoing.aggregate, config_.tolerance)) {
    v.kind = Verdict::Kind::kMismatch;
    v.expected_sum = item_total.sum;
    return v;
  }

  bool cluster_claimed = false;
  for (const auto& item : outgoing.items) {
    if (item.id == target_) {
      // The head's own item must be the cluster sum we solved.
      cluster_claimed = true;
      if (!triples_match(item.value, cluster_sum_, config_.tolerance)) {
        v.kind = Verdict::Kind::kMismatch;
        v.expected_sum = cluster_sum_.sum;
        v.observed_sum = item.value.sum;
        return v;
      }
      continue;
    }
    const auto it = inputs_.find(item.id);
    if (it == inputs_.end()) {
      // An input we never heard: skip (another witness may cover it).
      ++v.unverified_items;
      continue;
    }
    if (!triples_match(item.value, it->second.aggregate, config_.tolerance)) {
      v.kind = Verdict::Kind::kMismatch;
      v.expected_sum = it->second.aggregate.sum;
      v.observed_sum = item.value.sum;
      return v;
    }
  }

  // Omitted cluster sum: we solved one, the head pretends it has none.
  if (!cluster_claimed) {
    v.kind = Verdict::Kind::kOmission;
    v.expected_sum = outgoing.aggregate.sum + cluster_sum_.sum;
    return v;
  }
  // Omitted child: we clearly saw it arrive (before the guard window),
  // the head does not claim it.
  const sim::SimTime guard = sim::seconds(config_.omission_guard_s);
  for (const auto& [child, input] : inputs_) {
    if (!outgoing.claims(child) && input.heard_at + guard < now) {
      v.kind = Verdict::Kind::kOmission;
      v.expected_sum = outgoing.aggregate.sum + input.aggregate.sum;
      return v;
    }
  }

  v.expected_sum = outgoing.aggregate.sum;
  v.kind = v.unverified_items == 0 ? Verdict::Kind::kClean
                                   : Verdict::Kind::kPartialClean;
  return v;
}

}  // namespace icpda::core
