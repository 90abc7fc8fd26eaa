// Codec fuzzing for the protocol message catalogue (proto/messages.h
// plus the sealed ShareBody): every decoder must treat the payload as
// hostile — arbitrary bytes, truncations and bit flips may yield
// nullopt but must never crash, throw, or hang — and every encoder must
// round-trip: decode(encode(m)) re-encodes to the identical bytes.
//
// Labelled `slow` in CTest alongside the property suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/cpda_algebra.h"
#include "crypto/cipher.h"
#include "proto/messages.h"
#include "sim/rng.h"

// ---- Global allocation counter --------------------------------------
// The epoch-freshness gate promises to reject stale frames WITHOUT
// running any decoder — i.e. without allocating. Replacing the global
// operators with counting malloc shims makes that promise testable;
// every other test in this binary just pays one relaxed increment.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs `new` expressions with these replaced operators and then
// flags the malloc/free crossover the replacement is deliberately
// built on — silence just that heuristic here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace icpda::proto {
namespace {

net::Bytes random_bytes(sim::Rng& rng, std::size_t max_len) {
  net::Bytes b(rng.below(max_len + 1));
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

/// Hostile-input property for one message type: random garbage,
/// truncations of valid encodings, and single-byte corruptions must all
/// decode without crashing. Valid encodings must round-trip to
/// identical bytes.
template <typename Msg>
void fuzz_codec(const Msg& valid, sim::Rng& rng, const char* name) {
  const net::Bytes wire = valid.to_bytes();

  // decode(encode(m)) must succeed and re-encode byte-identically.
  const auto decoded = Msg::from_bytes(wire);
  ASSERT_TRUE(decoded.has_value()) << name << ": own encoding rejected";
  ASSERT_EQ(decoded->to_bytes(), wire) << name << ": round trip not identity";

  // Every truncation of a valid encoding.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const net::Bytes cut(wire.begin(),
                         wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_NO_THROW((void)Msg::from_bytes(cut)) << name << " truncated to " << len;
  }

  // Single-byte corruptions of a valid encoding; survivors that still
  // decode must still round-trip (the codec never half-parses).
  for (int i = 0; i < 400; ++i) {
    net::Bytes mut = wire;
    if (mut.empty()) break;
    mut[rng.below(mut.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    std::optional<Msg> d;
    EXPECT_NO_THROW(d = Msg::from_bytes(mut)) << name << " corrupted byte";
    if (d) {
      EXPECT_NO_THROW((void)d->to_bytes());
    }
  }

  // Pure garbage, short and long.
  for (int i = 0; i < 1200; ++i) {
    const net::Bytes junk = random_bytes(rng, i % 3 == 0 ? 8 : 256);
    EXPECT_NO_THROW((void)Msg::from_bytes(junk)) << name << " random garbage";
  }
}

Aggregate random_aggregate(sim::Rng& rng) {
  return Aggregate{rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6),
                   rng.uniform(0.0, 1e9)};
}

TEST(MessagesFuzzTest, HelloMsg) {
  sim::Rng rng(1);
  HelloMsg m;
  m.query_id = 0xABCD1234;
  m.hop = 7;
  m.allowed_mask = random_bytes(rng, 32);
  fuzz_codec(m, rng, "HelloMsg");
}

TEST(MessagesFuzzTest, TagReportMsg) {
  sim::Rng rng(2);
  TagReportMsg m;
  m.query_id = 99;
  m.reporter = 17;
  m.aggregate = random_aggregate(rng);
  fuzz_codec(m, rng, "TagReportMsg");
}

TEST(MessagesFuzzTest, ReportMsg) {
  sim::Rng rng(3);
  ReportMsg m;
  m.query_id = 5;
  m.reporter = 3;
  for (net::NodeId id = 1; id <= 6; ++id) {
    m.items.push_back(ReportItem{id, random_aggregate(rng)});
    m.aggregate.merge(m.items.back().value);
  }
  fuzz_codec(m, rng, "ReportMsg");
  m.epoch_tag = 0xDEADBEEF;
  fuzz_codec(m, rng, "ReportMsg+tag");
}

TEST(MessagesFuzzTest, ClusterHelloMsg) {
  sim::Rng rng(4);
  ClusterHelloMsg m;
  m.query_id = 1;
  m.head = 42;
  m.hop = 3;
  fuzz_codec(m, rng, "ClusterHelloMsg");
}

TEST(MessagesFuzzTest, JoinMsg) {
  sim::Rng rng(5);
  JoinMsg m;
  m.query_id = 2;
  m.member = 8;
  m.head = 42;
  fuzz_codec(m, rng, "JoinMsg");
}

TEST(MessagesFuzzTest, ClusterRosterMsg) {
  sim::Rng rng(6);
  ClusterRosterMsg m;
  m.query_id = 3;
  m.head = 42;
  m.round = 1;
  m.members = {42, 8, 9, 11};
  m.seeds = {1, 3, 2, 4};
  fuzz_codec(m, rng, "ClusterRosterMsg");
  m.epoch_tag = 2;
  fuzz_codec(m, rng, "ClusterRosterMsg+tag");
}

TEST(MessagesFuzzTest, ShareMsg) {
  sim::Rng rng(7);
  ShareMsg m;
  m.query_id = 4;
  m.sender = 8;
  m.recipient = 9;
  m.sealed = random_bytes(rng, 64);
  fuzz_codec(m, rng, "ShareMsg");
  m.epoch_tag = 0xFFFFFFFF;
  fuzz_codec(m, rng, "ShareMsg+tag");
}

TEST(MessagesFuzzTest, FAnnounceMsg) {
  sim::Rng rng(8);
  FAnnounceMsg m;
  m.query_id = 5;
  m.member = 9;
  m.head = 42;
  m.round = 0;
  m.f = random_aggregate(rng);
  m.contributors = {8, 9, 11, 42};
  fuzz_codec(m, rng, "FAnnounceMsg");
  m.epoch_tag = 7;
  fuzz_codec(m, rng, "FAnnounceMsg+tag");
}

TEST(MessagesFuzzTest, ClusterDigestMsg) {
  sim::Rng rng(9);
  ClusterDigestMsg m;
  m.query_id = 6;
  m.head = 42;
  m.members = {42, 8, 9};
  for (int i = 0; i < 3; ++i) m.f_values.push_back(random_aggregate(rng));
  m.contributors = {8, 9, 42};
  fuzz_codec(m, rng, "ClusterDigestMsg");
  m.epoch_tag = 3;
  fuzz_codec(m, rng, "ClusterDigestMsg+tag");
}

TEST(MessagesFuzzTest, AlarmMsg) {
  sim::Rng rng(10);
  AlarmMsg m;
  m.query_id = 7;
  m.kind = AlarmMsg::kDropSuspect;
  m.witness = 9;
  m.accused = 42;
  m.expected_sum = 123.456;
  m.observed_sum = -7.5;
  fuzz_codec(m, rng, "AlarmMsg");
  m.epoch_tag = 11;
  fuzz_codec(m, rng, "AlarmMsg+tag");
}

TEST(MessagesFuzzTest, SliceMsg) {
  sim::Rng rng(11);
  SliceMsg m;
  m.query_id = 8;
  m.sender = 5;
  m.recipient = 6;
  m.sealed = random_bytes(rng, 48);
  fuzz_codec(m, rng, "SliceMsg");
}

TEST(MessagesFuzzTest, ShareBody) {
  sim::Rng rng(12);
  core::ShareBody m;
  m.query_id = 9;
  m.round = 1;
  m.share = random_aggregate(rng);
  fuzz_codec(m, rng, "ShareBody");
  m.epoch_tag = 5;  // sealed copy of the freshness tag (field rides LAST)
  fuzz_codec(m, rng, "ShareBody+tag");
}

// The batched Phase II sender serializes one ShareBody template per
// cluster round and, per peer, patches the 24-byte share triple in
// place before sealing through a reused arena (patch_share + seal_into)
// instead of serializing and sealing a fresh body each time. The
// frames on the air must be byte-for-byte what the naive path produces
// — and they must survive the same hostile-input codec battery.

TEST(MessagesFuzzTest, BatchedSealPathFramesMatchPerShareSealing) {
  sim::Rng rng(13);
  for (const std::uint32_t epoch_tag : {0u, 0xDEADu}) {
    for (int round_case = 0; round_case < 40; ++round_case) {
      const std::uint32_t query_id = static_cast<std::uint32_t>(rng.below(1000));
      const std::uint8_t round = static_cast<std::uint8_t>(rng.below(2));
      const std::size_t m = 2 + rng.below(8);

      // Batched sender state: one template, one sealed arena.
      core::ShareBody tmpl;
      tmpl.query_id = query_id;
      tmpl.round = round;
      tmpl.epoch_tag = epoch_tag;
      net::Bytes body_bytes = tmpl.to_bytes();
      crypto::Bytes sealed_arena;

      for (std::size_t peer = 0; peer < m; ++peer) {
        const auto key = crypto::Key::from_seed(rng());
        const std::uint64_t nonce = rng();
        const proto::Aggregate share = random_aggregate(rng);

        core::ShareBody::patch_share(body_bytes, share);
        crypto::seal_into(key, nonce, body_bytes, sealed_arena);

        // Naive reference: fresh body, fresh serialization, fresh buffer.
        core::ShareBody fresh = tmpl;
        fresh.share = share;
        crypto::Bytes reference;
        crypto::seal_into(key, nonce, fresh.to_bytes(), reference);
        ASSERT_EQ(sealed_arena, reference)
            << "peer " << peer << " round_case " << round_case;

        // The full frame around the batched seal is codec-clean.
        ShareMsg msg;
        msg.query_id = query_id;
        msg.sender = 8;
        msg.recipient = 9 + static_cast<std::uint32_t>(peer);
        msg.epoch_tag = epoch_tag;
        msg.sealed = sealed_arena;
        if (peer == 0) {
          fuzz_codec(msg, rng, "ShareMsg(batched seal)");
        } else {
          // Cheaper identity check for the rest of the roster.
          const auto decoded = ShareMsg::from_bytes(msg.to_bytes());
          ASSERT_TRUE(decoded.has_value());
          EXPECT_EQ(decoded->to_bytes(), msg.to_bytes());
          crypto::Bytes opened;
          ASSERT_TRUE(crypto::open_into(key, decoded->sealed, opened));
        }
      }
    }
  }
}

// A stale-epoch frame must be rejectable BEFORE any decoder runs:
// peek_epoch_tag / epoch_tag_stale walk the raw bytes and allocate
// nothing, so a replay flood cannot cost the receiver heap churn.
TEST(MessagesFuzzTest, StaleTagRejectionDoesNotAllocate) {
  sim::Rng rng(14);
  std::vector<net::Bytes> payloads;
  {
    ClusterRosterMsg roster;
    roster.members = {42, 8, 9};
    roster.seeds = {1, 2, 3};
    roster.epoch_tag = 7;
    payloads.push_back(roster.to_bytes());
    FAnnounceMsg f;
    f.f = random_aggregate(rng);
    f.contributors = {8, 9};
    f.epoch_tag = 7;
    payloads.push_back(f.to_bytes());
    ReportMsg r;
    r.items.push_back(ReportItem{1, random_aggregate(rng)});
    r.epoch_tag = 7;
    payloads.push_back(r.to_bytes());
    AlarmMsg a;
    a.epoch_tag = 7;
    payloads.push_back(a.to_bytes());
    payloads.push_back(random_bytes(rng, 64));  // junk: peek must cope
    payloads.push_back({});                     // empty payload
  }

  const std::uint64_t before = g_allocations.load();
  std::uint64_t stale = 0;
  for (int round = 0; round < 1000; ++round) {
    for (const net::Bytes& p : payloads) {
      (void)peek_epoch_tag(p);
      if (epoch_tag_stale(p, 8)) ++stale;   // every tagged frame is stale
      if (epoch_tag_stale(p, 7)) ++stale;   // untagged ones still fail 7
    }
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "freshness gate allocated on the hot rejection path";
  // 4 tagged payloads stale vs 8, plus junk/empty failing both gates.
  EXPECT_EQ(stale, 1000u * (4 + 2 * 2));
}

// QueryId wire invariant (the service mux's routing contract): for
// EVERY valid encoding of every message type, peek_query_id must agree
// with the encoded query_id — and must survive truncation, corruption
// and garbage without crashing or allocating (it runs per frame per
// node before any decoder).
TEST(MessagesFuzzTest, PeekQueryIdAgreesWithEveryCodecAndNeverAllocates) {
  sim::Rng rng(15);
  // Query ids spanning the interesting encodings: small service ids,
  // byte-boundary values, and the max (0 is the "unreadable" sentinel,
  // exercised separately below).
  const std::uint32_t ids[] = {1, 2, 0x7F, 0x80, 0xFF, 0x100, 0xABCD1234,
                               0xFFFFFFFF};
  std::vector<net::Bytes> wires;
  for (const std::uint32_t qid : ids) {
    HelloMsg h;
    h.query_id = qid;
    h.allowed_mask = random_bytes(rng, 16);
    wires.push_back(h.to_bytes());
    TagReportMsg t;
    t.query_id = qid;
    t.aggregate = random_aggregate(rng);
    wires.push_back(t.to_bytes());
    ReportMsg r;
    r.query_id = qid;
    r.items.push_back(ReportItem{1, random_aggregate(rng)});
    r.epoch_tag = 5;
    wires.push_back(r.to_bytes());
    ClusterHelloMsg ch;
    ch.query_id = qid;
    wires.push_back(ch.to_bytes());
    JoinMsg j;
    j.query_id = qid;
    wires.push_back(j.to_bytes());
    ClusterRosterMsg cr;
    cr.query_id = qid;
    cr.members = {1, 2};
    cr.seeds = {3, 4};
    wires.push_back(cr.to_bytes());
    ShareMsg s;
    s.query_id = qid;
    s.sealed = random_bytes(rng, 32);
    wires.push_back(s.to_bytes());
    FAnnounceMsg f;
    f.query_id = qid;
    f.f = random_aggregate(rng);
    wires.push_back(f.to_bytes());
    ClusterDigestMsg d;
    d.query_id = qid;
    wires.push_back(d.to_bytes());
    AlarmMsg a;
    a.query_id = qid;
    wires.push_back(a.to_bytes());
    SliceMsg sl;
    sl.query_id = qid;
    sl.sealed = random_bytes(rng, 16);
    wires.push_back(sl.to_bytes());
  }

  // Agreement with the decoded id on every valid wire (spot-check via
  // the Hello decode; all codecs share the id-first layout, which is
  // exactly what this test pins).
  std::size_t w = 0;
  for (const std::uint32_t qid : ids) {
    for (int msg = 0; msg < 11; ++msg, ++w) {
      EXPECT_EQ(peek_query_id(wires[w]), qid)
          << "wire " << w << " does not lead with its query id";
    }
  }

  // Hostile inputs: truncations below the prefix read 0 (unreadable),
  // everything else reads *something* without crashing.
  for (const net::Bytes& wire : wires) {
    for (std::size_t len = 0; len < kQueryIdBytes; ++len) {
      const net::Bytes cut(wire.begin(),
                           wire.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_EQ(peek_query_id(cut), 0u);
    }
    net::Bytes mut = wire;
    mut[rng.below(mut.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_NO_THROW((void)peek_query_id(mut));
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_NO_THROW((void)peek_query_id(random_bytes(rng, 64)));
  }

  // The peek itself is allocation-free (same promise as the epoch-tag
  // gate: routing a frame flood must not cost heap churn).
  const std::uint64_t before = g_allocations.load();
  std::uint64_t sink = 0;
  for (int round = 0; round < 1000; ++round) {
    for (const net::Bytes& wire : wires) sink += peek_query_id(wire);
  }
  EXPECT_GT(sink, 0u);
  EXPECT_EQ(g_allocations.load(), before)
      << "peek_query_id allocated on the routing hot path";
}

/// Header-peek agreement for one (Msg, K): decode_prefix<Msg, K> reads
/// exactly the first K fields. It succeeds iff the payload holds them,
/// it succeeds wherever the full decode does (the handlers return on a
/// failed peek), and its fields re-encode to the full decode's header
/// bytes, i.e. it reads the same values.
template <typename Msg, std::size_t K>
void expect_prefix_agrees(const net::Bytes& wire, const char* name) {
  constexpr std::size_t header = field_offset<Msg, K>();
  const auto full = Msg::from_bytes(wire);
  const auto head = decode_prefix<Msg, K>(wire);
  ASSERT_EQ(head.has_value(), wire.size() >= header) << name << " len " << wire.size();
  if (!full) return;
  ASSERT_TRUE(head.has_value()) << name << ": peek rejects what the decode accepts";
  const net::Bytes a = full->to_bytes();
  const net::Bytes b = head->to_bytes();
  EXPECT_TRUE(std::equal(a.begin(), a.begin() + header, b.begin())) << name;
}

template <typename Msg, std::size_t K>
void fuzz_prefix(const Msg& valid, sim::Rng& rng, const char* name) {
  const net::Bytes wire = valid.to_bytes();
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    expect_prefix_agrees<Msg, K>(
        net::Bytes(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len)), name);
  }
  for (int i = 0; i < 200; ++i) {
    net::Bytes mut = wire;
    mut[rng.below(mut.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    expect_prefix_agrees<Msg, K>(mut, name);
    expect_prefix_agrees<Msg, K>(random_bytes(rng, 64), name);
  }
}

// The handlers' header peeks (roster, digest, alarm) run on every copy
// of a frame heard, before any full decode: they must agree with the
// full decode on every valid encoding and never allocate.
TEST(MessagesFuzzTest, HeaderPeeksAgreeWithTheFullDecodeAndNeverAllocate) {
  sim::Rng rng(17);
  ClusterRosterMsg roster;
  roster.query_id = 0xABCD1234;
  roster.head = 42;
  roster.members = {42, 8, 9, 11};
  roster.seeds = {1, 3, 2, 4};
  ClusterDigestMsg digest;
  digest.query_id = 6;
  digest.head = 0x80000001;
  digest.members = {42, 8, 9};
  for (int i = 0; i < 3; ++i) digest.f_values.push_back(random_aggregate(rng));
  digest.contributors = {8, 9, 42};
  AlarmMsg alarm;
  alarm.query_id = 7;
  alarm.kind = AlarmMsg::kDropSuspect;
  alarm.witness = 0xFFFFFFFE;
  alarm.accused = 42;
  alarm.expected_sum = 123.456;
  std::vector<net::Bytes> wires;
  for (const std::uint32_t tag : {0u, 0xDEADBEEFu}) {
    for (const std::uint8_t round : {0, 1}) {
      roster.round = round;
      roster.epoch_tag = tag;
      fuzz_prefix<ClusterRosterMsg, 3>(roster, rng, "roster");
      wires.push_back(roster.to_bytes());
    }
    digest.epoch_tag = tag;
    fuzz_prefix<ClusterDigestMsg, 2>(digest, rng, "digest");
    wires.push_back(digest.to_bytes());
    alarm.epoch_tag = tag;
    fuzz_prefix<AlarmMsg, 4>(alarm, rng, "alarm");
    wires.push_back(alarm.to_bytes());
  }

  const std::uint64_t before = g_allocations.load();
  std::uint64_t sink = 0;
  for (int round = 0; round < 1000; ++round) {
    for (const net::Bytes& wire : wires) {
      if (const auto h = decode_prefix<ClusterRosterMsg, 3>(wire)) sink += h->head + h->round;
      if (const auto h = decode_prefix<ClusterDigestMsg, 2>(wire)) sink += h->head;
      if (const auto h = decode_prefix<AlarmMsg, 4>(wire)) sink += h->witness + h->accused;
    }
  }
  EXPECT_GT(sink, 0u);
  EXPECT_EQ(g_allocations.load(), before) << "a header peek allocated";
}

// Legacy/untagged frames: encodings produced with the default query id
// decode identically whether or not anyone peeks first — peeking is
// observational and id 0 round-trips like any other field value.
TEST(MessagesFuzzTest, UntaggedLegacyFramesDecodeIdentically) {
  sim::Rng rng(16);
  HelloMsg h;  // query_id left at its default of 0
  h.allowed_mask = random_bytes(rng, 8);
  const net::Bytes wire = h.to_bytes();
  EXPECT_EQ(peek_query_id(wire), 0u);  // reads as "unreadable"/reserved
  const auto decoded = HelloMsg::from_bytes(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->query_id, 0u);
  EXPECT_EQ(decoded->to_bytes(), wire);
  // Peeking does not perturb the payload or subsequent decodes.
  (void)peek_query_id(wire);
  const auto again = HelloMsg::from_bytes(wire);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->to_bytes(), wire);
}

// Cross-type confusion: a valid encoding of every type fed to every
// OTHER decoder must not crash (frame types normally route payloads,
// but a malicious sender controls the type byte independently).
TEST(MessagesFuzzTest, CrossTypeDecodingNeverCrashes) {
  sim::Rng rng(13);
  std::vector<net::Bytes> wires;
  {
    HelloMsg h;
    h.query_id = 1;
    h.allowed_mask = random_bytes(rng, 16);
    wires.push_back(h.to_bytes());
    ReportMsg r;
    r.items.push_back(ReportItem{1, random_aggregate(rng)});
    wires.push_back(r.to_bytes());
    ClusterRosterMsg cr;
    cr.members = {1, 2, 3};
    cr.seeds = {1, 2, 3};
    wires.push_back(cr.to_bytes());
    AlarmMsg a;
    wires.push_back(a.to_bytes());
    ShareMsg s;
    s.sealed = random_bytes(rng, 32);
    wires.push_back(s.to_bytes());
  }
  for (const net::Bytes& w : wires) {
    EXPECT_NO_THROW((void)HelloMsg::from_bytes(w));
    EXPECT_NO_THROW((void)TagReportMsg::from_bytes(w));
    EXPECT_NO_THROW((void)ReportMsg::from_bytes(w));
    EXPECT_NO_THROW((void)ClusterHelloMsg::from_bytes(w));
    EXPECT_NO_THROW((void)JoinMsg::from_bytes(w));
    EXPECT_NO_THROW((void)ClusterRosterMsg::from_bytes(w));
    EXPECT_NO_THROW((void)ShareMsg::from_bytes(w));
    EXPECT_NO_THROW((void)FAnnounceMsg::from_bytes(w));
    EXPECT_NO_THROW((void)ClusterDigestMsg::from_bytes(w));
    EXPECT_NO_THROW((void)AlarmMsg::from_bytes(w));
    EXPECT_NO_THROW((void)SliceMsg::from_bytes(w));
    EXPECT_NO_THROW((void)core::ShareBody::from_bytes(w));
  }
}

}  // namespace
}  // namespace icpda::proto
