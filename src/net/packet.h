// Link-layer frame.
//
// A Frame is what the radio actually transmits: link-layer header
// (source, destination, sequence number, payload-type discriminator)
// plus an opaque payload. Byte accounting — the basis of the
// communication-overhead experiments — charges the 802.15.4-like
// header/trailer overhead declared here.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"

namespace icpda::net {

/// A frame payload: opaque bytes to the link layer. Protocol payloads
/// are encoded by proto/codec.h; the MAC's own ACK carries the acked
/// sequence number as a little-endian u32.
using Bytes = std::vector<std::uint8_t>;

/// Link-layer broadcast address.
inline constexpr NodeId kBroadcast = 0xFFFFFFFE;

/// Payload-type discriminator. The link layer reserves 0 for MAC ACKs;
/// protocols define their own values (see proto/messages.h).
using FrameType = std::uint16_t;
inline constexpr FrameType kMacAck = 0;

/// Bytes of PHY preamble + link header + CRC charged to every frame,
/// loosely modelled on 802.15.4 (SHR+PHR+MHR+FCS for short addressing).
inline constexpr std::size_t kFrameOverheadBytes = 17;

/// Size of a MAC-level ACK frame on the air.
inline constexpr std::size_t kAckBytes = kFrameOverheadBytes + 3;

struct Frame {
  NodeId src = kNoNode;
  NodeId dst = kBroadcast;
  std::uint32_t seq = 0;
  FrameType type = 0;
  /// Flood tag (Node::open_flood), 0 = untagged. Simulator metadata,
  /// not air bytes: it names a flood whose identity the payload already
  /// carries, so the channel can stop a copy at a receiver that holds
  /// the flood (Channel::hold_flood) without waking its MAC and app.
  /// Only broadcasts carry one.
  std::uint16_t flood = 0;
  Bytes payload;

  [[nodiscard]] bool is_broadcast() const { return dst == kBroadcast; }

  /// Total on-air size in bytes (header overhead + payload).
  [[nodiscard]] std::size_t air_bytes() const {
    return kFrameOverheadBytes + payload.size();
  }
};

// The tag fills padding: a Frame stays 40 bytes, the unit of every
// MAC queue slot and channel pool slot (footprint_bytes).
static_assert(sizeof(Frame) == 40);

}  // namespace icpda::net
