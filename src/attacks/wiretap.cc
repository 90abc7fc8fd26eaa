#include "attacks/wiretap.h"

#include <utility>

#include "crypto/cipher.h"
#include "proto/messages.h"

namespace icpda::attacks {

Wiretap::Wiretap(const crypto::KeyScheme& keys, std::vector<net::NodeId> captured)
    : keys_(keys), captured_(std::move(captured)),
      captured_set_(captured_.begin(), captured_.end()) {}

bool Wiretap::link_readable(net::NodeId a, net::NodeId b) const {
  if (captured_set_.contains(a) || captured_set_.contains(b)) return true;
  for (const net::NodeId c : captured_) {
    if (keys_.third_party_can_read(a, b, c)) return true;
  }
  return false;
}

void Wiretap::attach(net::Channel& channel) {
  channel.add_tap([this](net::NodeId sender, const net::Frame& frame) {
    observe(sender, frame);
  });
}

void Wiretap::observe(net::NodeId sender, const net::Frame& frame) {
  (void)sender;
  ++stats_.frames_seen;
  if (frame.type != proto::kShare && frame.type != proto::kSmartSlice) {
    // Everything else in the protocols travels in the clear.
    if (frame.type != net::kMacAck) ++stats_.cleartext_frames;
    return;
  }
  ++stats_.share_frames;
  // Parse the clear header to learn the endpoints, then try the link
  // key if our captured material covers it.
  net::NodeId a = net::kNoNode;
  net::NodeId b = net::kNoNode;
  net::Bytes sealed;
  if (frame.type == proto::kShare) {
    const auto msg = proto::ShareMsg::from_bytes(frame.payload);
    if (!msg) return;
    a = msg->sender;
    b = msg->recipient;
    sealed = msg->sealed;
  } else {
    const auto msg = proto::SliceMsg::from_bytes(frame.payload);
    if (!msg) return;
    a = msg->sender;
    b = msg->recipient;
    sealed = msg->sealed;
  }
  if (!link_readable(a, b)) return;
  const auto key = keys_.link_key(a, b);
  if (!key) return;
  crypto::Bytes plain;
  if (crypto::open_into(*key, sealed, plain)) ++stats_.shares_opened;
}

double Wiretap::effective_px(const net::Topology& topo) const {
  std::uint64_t readable = 0;
  std::uint64_t total = 0;
  for (net::NodeId a = 0; a < topo.size(); ++a) {
    for (const net::NodeId b : topo.neighbors(a)) {
      if (b <= a) continue;
      ++total;
      if (link_readable(a, b)) ++readable;
    }
  }
  return total ? static_cast<double>(readable) / static_cast<double>(total) : 0.0;
}

}  // namespace icpda::attacks
