// Protocol message catalogue: frame-type registry + typed payloads.
//
// Every protocol message in the repository is declared here, so byte
// accounting is consistent across TAG, SMART and iCPDA, and tests can
// round-trip every message type. Each payload struct lists its wire
// fields once, in `fields()`; its to_bytes()/from_bytes() (WireFormat)
// and the handlers' header peeks (decode_prefix) all derive from that
// list through the one codec in proto/codec.h. The two sealed bodies,
// core::ShareBody and SMART's slice body, use the same codec.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "proto/aggregate.h"
#include "proto/codec.h"

namespace icpda::proto {

/// Frame-type values (net::FrameType). 0 is reserved by the MAC (ACK).
enum MsgType : net::FrameType {
  kHello = 1,          ///< query flood / tree construction (TAG & iCPDA)
  kTagReport = 2,      ///< TAG: aggregate to tree parent
  kClusterHello = 3,   ///< iCPDA I: cluster-head announcement
  kJoin = 4,           ///< iCPDA I: member -> CH join request
  kClusterRoster = 5,  ///< iCPDA I: CH broadcasts final member list+seeds
  kShare = 6,          ///< iCPDA II: encrypted polynomial share
  kFAnnounce = 7,      ///< iCPDA II: assembled F_j broadcast (cleartext)
  kClusterReport = 8,  ///< iCPDA III: aggregate up the tree
  kAlarm = 9,          ///< iCPDA III: witness pollution alarm
  kSmartSlice = 10,    ///< SMART: encrypted data slice
  kSmartReport = 11,   ///< SMART: aggregate to tree parent
  kClusterDigest = 12, ///< iCPDA II: head's consolidated F vector
};

// ---- QueryId wire invariant (continuous-query multiplexing) ---------
//
// Every payload in this catalogue begins with the message's query id as
// a little-endian u32 — the first four bytes of ANY valid encoding name
// the query the frame belongs to, for every frame type, in every phase.
// That invariant is what lets the service layer (src/service/) demux
// overlapping epochs without decoding: one allocation-free peek routes
// the frame to the right per-query protocol instance, and frames for
// unknown/retired queries are dropped before any decoder runs. The
// single-query binaries never call the peek, so their wire bytes and
// behaviour are untouched. Covered by tests/messages_fuzz_test.cc
// (QueryIdPeek*): the peek never crashes, never allocates, and agrees
// with the decoded `query_id` field on every valid encoding.

inline constexpr std::size_t kQueryIdBytes = 4;  // LE u32 payload prefix

/// Allocation-free peek at an encoded payload's query id. Returns 0 for
/// payloads too short to carry the prefix (0 is never a service query
/// id — the dispatcher assigns ids from 1).
[[nodiscard]] std::uint32_t peek_query_id(const net::Bytes& payload);

// ---- Epoch-freshness tag (replay hardening) -------------------------
//
// When core::HardeningConfig::epoch_tag is non-zero, every Phase II/III
// sender appends a 5-byte trailer — marker byte 0xE9 + the tag as a
// little-endian u32 — after its regular payload body, and receivers
// drop gated frame types whose tag mismatches the current epoch. The
// trailer is OPTIONAL: a tag of zero encodes nothing, so benign
// (unhardened) encodings are byte-identical to the previous wire format
// and old decoders simply ignore the trailing bytes. The frame-level
// tag is not MACed — it models an authenticated epoch counter (the
// sealed ShareBody's copy IS under the link MAC); see DESIGN.md §5g
// for the threat-model caveat. Formats carry the trailer as their last
// field, EpochTagTrailer (proto/codec.h).

/// Allocation-free peek at an encoded payload's tag (0 = untagged).
[[nodiscard]] std::uint32_t peek_epoch_tag(const net::Bytes& payload);
/// True iff `payload` fails the freshness gate for `expected`
/// (expected == 0 disables the gate entirely). Allocation-free: stale
/// frames are rejected before any decoder runs.
[[nodiscard]] bool epoch_tag_stale(const net::Bytes& payload,
                                   std::uint32_t expected);
/// Frame types the receive gate applies to (Phase II/III traffic; the
/// Phase I flood precedes any per-epoch secret and is out of scope).
[[nodiscard]] constexpr bool epoch_tag_gated(net::FrameType type) {
  return type == kClusterRoster || type == kShare || type == kFAnnounce ||
         type == kClusterDigest || type == kClusterReport || type == kAlarm;
}

// ---- Participation mask ---------------------------------------------
//
// A bitset over node ids: bit id % 8 of byte id / 8. Empty means every
// node participates; an id past the end of a non-empty mask does not.

[[nodiscard]] inline bool mask_allows(const net::Bytes& mask, net::NodeId id) {
  if (mask.empty()) return true;
  const std::size_t byte = id / 8;
  return byte < mask.size() && ((mask[byte] >> (id % 8)) & 1);
}

/// Set `id`'s bit; an empty mask is first sized for ids < `universe`.
void mask_allow(net::Bytes& mask, net::NodeId id, std::size_t universe);

/// Query flood message. `hop` counts from the base station; receivers
/// adopt the first sender they hear as tree parent. `allowed_mask`
/// optionally restricts which nodes may serve as aggregators/cluster
/// heads this round (used by the bisection localizer; empty = all).
struct HelloMsg : WireFormat<HelloMsg> {
  std::uint32_t query_id = 0;
  std::uint16_t hop = 0;
  net::Bytes allowed_mask;  ///< bitset over node ids; empty = everyone

  static auto fields(auto& m, auto&& f) { return f(m.query_id, m.hop, m.allowed_mask); }

  [[nodiscard]] bool allows(net::NodeId id) const { return mask_allows(allowed_mask, id); }
  void set_allowed(net::NodeId id, std::size_t universe) {
    mask_allow(allowed_mask, id, universe);
  }
};

/// Lean aggregate report used by the TAG and SMART baselines (the
/// paper's TAG carries no auditing metadata).
struct TagReportMsg : WireFormat<TagReportMsg> {
  std::uint32_t query_id = 0;
  net::NodeId reporter = net::kNoNode;
  Aggregate aggregate;

  static auto fields(auto& m, auto&& f) { return f(m.query_id, m.reporter, m.aggregate); }
};

/// iCPDA Phase III itemized report: the aggregating head lists every
/// input it combined — (contributor id, value) pairs, including its own
/// cluster sum under its own id — plus the total. Itemization is what
/// lets even a partial-view witness audit: anyone can check
/// total == sum(items); a witness checks the head's own item against
/// the cluster sum it solved, and every child item it personally
/// overheard. Tampering must therefore corrupt a specific item and is
/// caught unless NO witness saw that item. (The items reveal only
/// subtree aggregates, which the shared medium already exposes.)
struct ReportItem {
  net::NodeId id = net::kNoNode;
  Aggregate value;
  friend bool operator==(const ReportItem&, const ReportItem&) = default;
  static auto fields(auto& m, auto&& f) { return f(m.id, m.value); }
};

struct ReportMsg : WireFormat<ReportMsg> {
  std::uint32_t query_id = 0;
  net::NodeId reporter = net::kNoNode;
  Aggregate aggregate;  ///< total of `items`
  std::vector<ReportItem> items;

  [[nodiscard]] bool claims(net::NodeId id) const {
    for (const auto& item : items) {
      if (item.id == id) return true;
    }
    return false;
  }

  std::uint32_t epoch_tag = 0;  ///< freshness trailer (0 = untagged)

  static auto fields(auto& m, auto&& f) {
    return f(m.query_id, m.reporter, m.aggregate, m.items,
             EpochTagTrailer{m.epoch_tag});
  }
};

/// iCPDA Phase I: cluster-head announcement (carries hop so the CH
/// overlay inherits tree depth information from the flood).
struct ClusterHelloMsg : WireFormat<ClusterHelloMsg> {
  std::uint32_t query_id = 0;
  net::NodeId head = net::kNoNode;
  std::uint16_t hop = 0;

  static auto fields(auto& m, auto&& f) { return f(m.query_id, m.head, m.hop); }
};

/// iCPDA Phase I: join request from a would-be member to a CH.
struct JoinMsg : WireFormat<JoinMsg> {
  std::uint32_t query_id = 0;
  net::NodeId member = net::kNoNode;
  net::NodeId head = net::kNoNode;

  static auto fields(auto& m, auto&& f) { return f(m.query_id, m.member, m.head); }
};

/// iCPDA Phase I: the CH fixes the cluster roster and the public,
/// distinct, non-zero seeds x_i used by the share polynomials. Seeds
/// are small integers (1..m permuted) — public by design.
struct ClusterRosterMsg : WireFormat<ClusterRosterMsg> {
  std::uint32_t query_id = 0;
  net::NodeId head = net::kNoNode;
  /// Phase II round this roster opens. 0 is the normal epoch roster;
  /// round 1 is a *recovery* roster — the head re-fixes the cluster to
  /// the members that proved alive so the share algebra can rerun at
  /// reduced degree after a mid-exchange crash.
  std::uint8_t round = 0;
  std::vector<std::uint32_t> members;  ///< includes the head itself
  std::vector<std::uint32_t> seeds;    ///< same order as members
  std::uint32_t epoch_tag = 0;         ///< freshness trailer (0 = untagged)

  static auto fields(auto& m, auto&& f) {
    return f(m.query_id, m.head, m.round, m.members, m.seeds,
             EpochTagTrailer{m.epoch_tag});
  }
};

/// iCPDA Phase II: encrypted share carrier. The sealed blob decrypts
/// (under the pairwise link key) to the share triple the CPDA algebra
/// defines; `sender`/`recipient` ride in the clear like any link header.
struct ShareMsg : WireFormat<ShareMsg> {
  std::uint32_t query_id = 0;
  net::NodeId sender = net::kNoNode;
  net::NodeId recipient = net::kNoNode;
  net::Bytes sealed;  ///< crypto::seal_into of a ShareBody (see core/cpda_algebra.h)
  std::uint32_t epoch_tag = 0;  ///< freshness trailer (0 = untagged)

  static auto fields(auto& m, auto&& f) {
    return f(m.query_id, m.sender, m.recipient, m.sealed,
             EpochTagTrailer{m.epoch_tag});
  }
};

/// iCPDA Phase II: node j's assembled value F_j, sent to the cluster
/// head in the clear (F values are public by design — the privacy of
/// individual readings rests on the share randomness, not on hiding
/// the assembled sums). Unicast so MAC ARQ covers it.
struct FAnnounceMsg : WireFormat<FAnnounceMsg> {
  std::uint32_t query_id = 0;
  net::NodeId member = net::kNoNode;
  net::NodeId head = net::kNoNode;
  /// Phase II round this F belongs to (see ClusterRosterMsg::round);
  /// the head discards announcements from a stale round.
  std::uint8_t round = 0;
  /// F_j triple: assembled (count, sum, sum_sq) shares.
  Aggregate f;
  /// Member ids whose shares are included in f (sorted). All cluster
  /// members must agree on this set for the interpolation to be valid;
  /// the head checks the lists for consistency before solving.
  std::vector<std::uint32_t> contributors;
  std::uint32_t epoch_tag = 0;  ///< freshness trailer (0 = untagged)

  static auto fields(auto& m, auto&& f) {
    return f(m.query_id, m.member, m.head, m.round, m.f, m.contributors,
             EpochTagTrailer{m.epoch_tag});
  }
};

/// iCPDA Phase II: the head's consolidated view, broadcast to the
/// cluster (members may be two hops from each other but all are one
/// hop from the head). Member j endorses the digest by checking that
/// entry j equals the F_j it sent and that the claimed contributor set
/// matches its own assembly — a forged entry is a provable lie and
/// draws an alarm. Any endorser can interpolate the cluster sum from
/// the vector, which is what arms the Phase III witnesses.
struct ClusterDigestMsg : WireFormat<ClusterDigestMsg> {
  std::uint32_t query_id = 0;
  net::NodeId head = net::kNoNode;
  std::vector<std::uint32_t> members;  ///< roster order
  std::vector<Aggregate> f_values;     ///< same order as members
  std::vector<std::uint32_t> contributors;  ///< common contributor set
  std::uint32_t epoch_tag = 0;              ///< freshness trailer (0 = untagged)

  static auto fields(auto& m, auto&& f) {
    return f(m.query_id, m.head, m.members, m.f_values, m.contributors,
             EpochTagTrailer{m.epoch_tag});
  }
};

/// iCPDA Phase III: witness alarm, flooded toward the base station.
///
/// kValueTamper alarms (a witness reconstructed a different sum, or a
/// member caught a forged digest entry) reject the epoch when the
/// deviation exceeds Th. kDropSuspect alarms (a watchdog saw its
/// parent swallow a report) are advisory: dropping is indistinguishable
/// from loss at a single witness, so it feeds rerouting/reputation
/// rather than rejection.
struct AlarmMsg : WireFormat<AlarmMsg> {
  enum Kind : std::uint8_t { kValueTamper = 0, kDropSuspect = 1 };

  std::uint32_t query_id = 0;
  std::uint8_t kind = kValueTamper;
  net::NodeId witness = net::kNoNode;
  net::NodeId accused = net::kNoNode;
  double expected_sum = 0.0;
  double observed_sum = 0.0;
  std::uint32_t epoch_tag = 0;  ///< freshness trailer (0 = untagged)

  static auto fields(auto& m, auto&& f) {
    return f(m.query_id, m.kind, m.witness, m.accused, m.expected_sum,
             m.observed_sum, EpochTagTrailer{m.epoch_tag});
  }
};

/// SMART/iPDA-style slicing baseline: encrypted slice carrier.
struct SliceMsg : WireFormat<SliceMsg> {
  std::uint32_t query_id = 0;
  net::NodeId sender = net::kNoNode;
  net::NodeId recipient = net::kNoNode;
  net::Bytes sealed;  ///< crypto::seal_into of one slice triple

  static auto fields(auto& m, auto&& f) { return f(m.query_id, m.sender, m.recipient, m.sealed); }
};

}  // namespace icpda::proto
