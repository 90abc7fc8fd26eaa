#include "core/localization.h"

#include <algorithm>
#include <numeric>

#include "proto/messages.h"

namespace icpda::core {

net::Bytes make_allowed_mask(std::size_t node_count,
                             const std::vector<net::NodeId>& ids) {
  net::Bytes mask;
  proto::mask_allow(mask, 0, node_count);  // the base station always participates
  for (const net::NodeId id : ids) proto::mask_allow(mask, id, node_count);
  return mask;
}

LocalizationResult localize_polluter(std::size_t node_count,
                                     const EpochRunner& run_epoch,
                                     std::uint32_t max_rounds) {
  LocalizationResult result;
  std::vector<net::NodeId> suspects(node_count > 1 ? node_count - 1 : 0);
  std::iota(suspects.begin(), suspects.end(), 1u);
  std::vector<net::NodeId> everyone = suspects;

  while (result.rounds < max_rounds) {
    if (suspects.size() == 1) {
      // Candidate found: confirm both directions, repeated to defeat
      // noisy detection. With the candidate excluded EVERY repeat must
      // pass (a still-active polluter is unlikely to dodge detection
      // three times); with everyone included a majority must fail.
      // Otherwise restart from the full suspect set — never accuse on
      // a single noisy reading.
      constexpr std::uint32_t kConfirmRepeats = 3;
      const net::NodeId candidate = suspects.front();
      std::vector<net::NodeId> without;
      without.reserve(everyone.size() - 1);
      for (const net::NodeId id : everyone) {
        if (id != candidate) without.push_back(id);
      }
      bool clean_without = true;
      std::uint32_t dirty_votes = 0;
      for (std::uint32_t r = 0; r < kConfirmRepeats; ++r) {
        clean_without &= run_epoch(make_allowed_mask(node_count, without));
        dirty_votes += run_epoch(make_allowed_mask(node_count, everyone)) ? 0 : 1;
      }
      result.rounds += 2 * kConfirmRepeats;
      const bool dirty_with = dirty_votes * 2 > kConfirmRepeats;
      if (clean_without && dirty_with) {
        result.isolated = candidate;
        break;
      }
      if (dirty_votes == 0) break;  // nothing detectable any more
      suspects = everyone;
      continue;
    }
    // Allow the first half of the suspects plus every non-suspect.
    const std::size_t half = suspects.size() / 2;
    std::vector<net::NodeId> allowed;
    allowed.reserve(node_count);
    for (const net::NodeId id : everyone) {
      const bool is_suspect =
          std::binary_search(suspects.begin(), suspects.end(), id);
      const bool in_first_half =
          is_suspect &&
          static_cast<std::size_t>(
              std::lower_bound(suspects.begin(), suspects.end(), id) -
              suspects.begin()) < half;
      if (!is_suspect || in_first_half) allowed.push_back(id);
    }
    // Detection is asymmetric: a rejection is reliable evidence of an
    // active polluter (witness audits do not false-fire), while an
    // acceptance can be a missed detection (e.g. the polluter drew no
    // witnesses this epoch). So an accept is only trusted after a
    // repeat: per-halving error drops from miss-rate to miss-rate^2.
    const auto mask = make_allowed_mask(node_count, allowed);
    bool accepted = run_epoch(mask);
    ++result.rounds;
    if (accepted && result.rounds < max_rounds) {
      accepted = run_epoch(mask);
      ++result.rounds;
    }
    if (accepted) {
      // Polluter was excluded: it is in the second half.
      suspects.erase(suspects.begin(),
                     suspects.begin() + static_cast<std::ptrdiff_t>(half));
    } else {
      // Active polluter among the allowed suspects: first half.
      suspects.resize(half);
    }
    if (suspects.empty()) {
      // Oracle noise walked us into a contradiction; start over.
      suspects = everyone;
    }
  }

  result.suspects = suspects;
  return result;
}

}  // namespace icpda::core
