#include "proto/messages.h"

#include <algorithm>

namespace icpda::proto {

// ---- QueryId wire invariant -----------------------------------------

std::uint32_t peek_query_id(const net::Bytes& payload) {
  if (payload.size() < kQueryIdBytes) return 0;
  return codec::load_le<std::uint32_t>(payload.data());
}

// ---- Epoch-freshness tag --------------------------------------------

std::uint32_t peek_epoch_tag(const net::Bytes& payload) {
  // Read the trailer field on its own, over at most the last 5 bytes.
  const std::uint8_t* end = payload.data() + payload.size();
  codec::Reader r{end - std::min(payload.size(), kEpochTagBytes), end};
  std::uint32_t tag = 0;
  codec::read(r, EpochTagTrailer{tag});
  return tag;
}

bool epoch_tag_stale(const net::Bytes& payload, std::uint32_t expected) {
  return expected != 0 && peek_epoch_tag(payload) != expected;
}

// ---- Participation mask ---------------------------------------------

void mask_allow(net::Bytes& mask, net::NodeId id, std::size_t universe) {
  if (mask.empty()) mask.assign((universe + 7) / 8, 0);
  mask.at(id / 8) |= static_cast<std::uint8_t>(1u << (id % 8));
}

}  // namespace icpda::proto
