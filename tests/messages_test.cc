// Wire round-trips for every protocol message.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <utility>

#include "core/cpda_algebra.h"
#include "proto/messages.h"

namespace icpda::proto {
namespace {

TEST(MessagesTest, HelloRoundTrip) {
  HelloMsg m;
  m.query_id = 7;
  m.hop = 3;
  m.set_allowed(5, 64);
  m.set_allowed(17, 64);
  const auto back = HelloMsg::from_bytes(m.to_bytes());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->query_id, 7u);
  EXPECT_EQ(back->hop, 3);
  EXPECT_TRUE(back->allows(5));
  EXPECT_TRUE(back->allows(17));
  EXPECT_FALSE(back->allows(6));
}

TEST(MessagesTest, HelloEmptyMaskAllowsEveryone) {
  HelloMsg m;
  EXPECT_TRUE(m.allows(0));
  EXPECT_TRUE(m.allows(123456));
}

TEST(MessagesTest, HelloMaskOutOfRangeIsDisallowed) {
  HelloMsg m;
  m.set_allowed(1, 16);  // two-byte mask
  EXPECT_FALSE(m.allows(99));
}

TEST(MessagesTest, TagReportRoundTrip) {
  TagReportMsg m;
  m.query_id = 9;
  m.reporter = 42;
  m.aggregate = {3.0, 12.5, 60.25};
  const auto back = TagReportMsg::from_bytes(m.to_bytes());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->reporter, 42u);
  EXPECT_EQ(back->aggregate, m.aggregate);
}

TEST(MessagesTest, ReportRoundTripWithItems) {
  ReportMsg m;
  m.query_id = 1;
  m.reporter = 10;
  m.items.push_back({11, Aggregate{1.0, 2.0, 4.0}});
  m.items.push_back({12, Aggregate{2.0, -3.0, 9.0}});
  m.aggregate = {3.0, -1.0, 13.0};
  const auto back = ReportMsg::from_bytes(m.to_bytes());
  ASSERT_TRUE(back);
  ASSERT_EQ(back->items.size(), 2u);
  EXPECT_EQ(back->items[0], m.items[0]);
  EXPECT_EQ(back->items[1], m.items[1]);
  EXPECT_TRUE(back->claims(11));
  EXPECT_FALSE(back->claims(13));
}

TEST(MessagesTest, ClusterHelloJoinRosterRoundTrip) {
  ClusterHelloMsg ch;
  ch.query_id = 2;
  ch.head = 33;
  ch.hop = 4;
  auto ch2 = ClusterHelloMsg::from_bytes(ch.to_bytes());
  ASSERT_TRUE(ch2);
  EXPECT_EQ(ch2->head, 33u);

  JoinMsg j;
  j.query_id = 2;
  j.member = 44;
  j.head = 33;
  auto j2 = JoinMsg::from_bytes(j.to_bytes());
  ASSERT_TRUE(j2);
  EXPECT_EQ(j2->member, 44u);

  ClusterRosterMsg r;
  r.query_id = 2;
  r.head = 33;
  r.members = {33, 44, 55};
  r.seeds = {2, 3, 1};
  auto r2 = ClusterRosterMsg::from_bytes(r.to_bytes());
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->members, r.members);
  EXPECT_EQ(r2->seeds, r.seeds);
}

TEST(MessagesTest, ShareAndFAnnounceRoundTrip) {
  ShareMsg s;
  s.query_id = 3;
  s.sender = 1;
  s.recipient = 2;
  s.sealed = {9, 8, 7};
  auto s2 = ShareMsg::from_bytes(s.to_bytes());
  ASSERT_TRUE(s2);
  EXPECT_EQ(s2->sealed, s.sealed);

  FAnnounceMsg f;
  f.query_id = 3;
  f.member = 2;
  f.head = 1;
  f.f = {1.5, 2.5, 3.5};
  f.contributors = {1, 2, 3};
  auto f2 = FAnnounceMsg::from_bytes(f.to_bytes());
  ASSERT_TRUE(f2);
  EXPECT_EQ(f2->f, f.f);
  EXPECT_EQ(f2->contributors, f.contributors);
}

TEST(MessagesTest, ClusterDigestRoundTrip) {
  ClusterDigestMsg d;
  d.query_id = 4;
  d.head = 7;
  d.members = {7, 8, 9};
  d.f_values = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  d.contributors = {7, 8, 9};
  auto d2 = ClusterDigestMsg::from_bytes(d.to_bytes());
  ASSERT_TRUE(d2);
  EXPECT_EQ(d2->members, d.members);
  ASSERT_EQ(d2->f_values.size(), 3u);
  EXPECT_EQ(d2->f_values[1], (Aggregate{4, 5, 6}));
  EXPECT_EQ(d2->contributors, d.contributors);
}

TEST(MessagesTest, AlarmRoundTripBothKinds) {
  for (const auto kind : {AlarmMsg::kValueTamper, AlarmMsg::kDropSuspect}) {
    AlarmMsg a;
    a.query_id = 5;
    a.kind = kind;
    a.witness = 10;
    a.accused = 20;
    a.expected_sum = 99.5;
    a.observed_sum = 42.0;
    auto a2 = AlarmMsg::from_bytes(a.to_bytes());
    ASSERT_TRUE(a2);
    EXPECT_EQ(a2->kind, kind);
    EXPECT_DOUBLE_EQ(a2->expected_sum, 99.5);
  }
}

TEST(MessagesTest, SliceRoundTrip) {
  SliceMsg s;
  s.query_id = 6;
  s.sender = 3;
  s.recipient = 4;
  s.sealed = {1, 1, 2, 3, 5};
  auto s2 = SliceMsg::from_bytes(s.to_bytes());
  ASSERT_TRUE(s2);
  EXPECT_EQ(s2->sealed, s.sealed);
}

std::string hex(const net::Bytes& b) {
  std::string out;
  char byte[3];
  for (const std::uint8_t x : b) {
    std::snprintf(byte, sizeof byte, "%02x", x);
    out += byte;
  }
  return out;
}

// One fixed instance of every wire format, and of the six freshness-
// gated types once more with the epoch-tag trailer, against checked-in
// bytes. Every field holds a distinct multi-byte value, so a codec that
// reorders, resizes or drops a field fails here.
TEST(MessagesTest, WireBytesArePinned) {
  constexpr std::uint32_t kTag = 0xA1B2C3D4;
  const Aggregate agg{3.0, -12.5, 0.125};
  const Aggregate agg2{1.0, 2.0, 4.0};

  HelloMsg hello;
  hello.query_id = 0x01020304;
  hello.hop = 0x0506;
  hello.allowed_mask = {0x0F, 0xF0, 0x81};
  TagReportMsg tag_report;
  tag_report.query_id = 0x11121314;
  tag_report.reporter = 0x15161718;
  tag_report.aggregate = agg;
  ReportMsg report;
  report.query_id = 0x21222324;
  report.reporter = 0x25262728;
  report.aggregate = agg.merged(agg2);
  report.items = {{0x29, agg}, {0x2A2B, agg2}};
  ClusterHelloMsg cluster_hello;
  cluster_hello.query_id = 0x31323334;
  cluster_hello.head = 0x35363738;
  cluster_hello.hop = 0x393A;
  JoinMsg join;
  join.query_id = 0x41424344;
  join.member = 0x45464748;
  join.head = 0x494A4B4C;
  ClusterRosterMsg roster;
  roster.query_id = 0x51525354;
  roster.head = 0x55565758;
  roster.round = 0x59;
  roster.members = {0x5A, 0x5B5C};
  roster.seeds = {2, 1};
  ShareMsg share;
  share.query_id = 0x61626364;
  share.sender = 0x65666768;
  share.recipient = 0x696A6B6C;
  share.sealed = {0x6D, 0x6E, 0x6F};
  FAnnounceMsg announce;
  announce.query_id = 0x71727374;
  announce.member = 0x75767778;
  announce.head = 0x797A7B7C;
  announce.round = 0x7D;
  announce.f = agg;
  announce.contributors = {0x7E, 0x7F80};
  ClusterDigestMsg digest;
  digest.query_id = 0x81828384;
  digest.head = 0x85868788;
  digest.members = {0x89, 0x8A8B};
  digest.f_values = {agg, agg2};
  digest.contributors = {0x8C8D8E8F};
  AlarmMsg alarm;
  alarm.query_id = 0x91929394;
  alarm.kind = AlarmMsg::kDropSuspect;
  alarm.witness = 0x95969798;
  alarm.accused = 0x999A9B9C;
  alarm.expected_sum = 99.5;
  alarm.observed_sum = -42.25;
  SliceMsg slice;
  slice.query_id = 0xA1A2A3A4;
  slice.sender = 0xA5A6A7A8;
  slice.recipient = 0xA9AAABAC;
  slice.sealed = {0xAD, 0xAE};
  core::ShareBody body;
  body.query_id = 0xB1B2B3B4;
  body.round = 0xB5;
  body.share = agg;

  const auto tagged = [](auto msg) {
    msg.epoch_tag = kTag;
    return msg.to_bytes();
  };
  const std::pair<const char*, net::Bytes> wires[] = {
      {"hello", hello.to_bytes()},
      {"tag_report", tag_report.to_bytes()},
      {"report", report.to_bytes()},
      {"report+tag", tagged(report)},
      {"cluster_hello", cluster_hello.to_bytes()},
      {"join", join.to_bytes()},
      {"roster", roster.to_bytes()},
      {"roster+tag", tagged(roster)},
      {"share", share.to_bytes()},
      {"share+tag", tagged(share)},
      {"f_announce", announce.to_bytes()},
      {"f_announce+tag", tagged(announce)},
      {"digest", digest.to_bytes()},
      {"digest+tag", tagged(digest)},
      {"alarm", alarm.to_bytes()},
      {"alarm+tag", tagged(alarm)},
      {"slice", slice.to_bytes()},
      {"share_body", body.to_bytes()},
      {"share_body+tag", tagged(body)},
  };
  const char* const pinned[] = {
      // hello
      "040302010605030000000ff081",
      // tag_report
      "1413121118171615000000000000084000000000000029c0000000000000c03f",
      // report
      "2423222128272625000000000000104000000000000025c00000000000801040"
      "0200000029000000000000000000084000000000000029c0000000000000c03f"
      "2b2a0000000000000000f03f00000000000000400000000000001040",
      // report+tag
      "2423222128272625000000000000104000000000000025c00000000000801040"
      "0200000029000000000000000000084000000000000029c0000000000000c03f"
      "2b2a0000000000000000f03f00000000000000400000000000001040e9d4c3b2"
      "a1",
      // cluster_hello
      "34333231383736353a39",
      // join
      "44434241484746454c4b4a49",
      // roster
      "545352515857565559020000005a0000005c5b00000200000002000000010000"
      "00",
      // roster+tag
      "545352515857565559020000005a0000005c5b00000200000002000000010000"
      "00e9d4c3b2a1",
      // share
      "64636261686766656c6b6a69030000006d6e6f",
      // share+tag
      "64636261686766656c6b6a69030000006d6e6fe9d4c3b2a1",
      // f_announce
      "74737271787776757c7b7a797d000000000000084000000000000029c0000000"
      "000000c03f020000007e000000807f0000",
      // f_announce+tag
      "74737271787776757c7b7a797d000000000000084000000000000029c0000000"
      "000000c03f020000007e000000807f0000e9d4c3b2a1",
      // digest
      "848382818887868502000000890000008b8a0000020000000000000000000840"
      "00000000000029c0000000000000c03f000000000000f03f0000000000000040"
      "0000000000001040010000008f8e8d8c",
      // digest+tag
      "848382818887868502000000890000008b8a0000020000000000000000000840"
      "00000000000029c0000000000000c03f000000000000f03f0000000000000040"
      "0000000000001040010000008f8e8d8ce9d4c3b2a1",
      // alarm
      "9493929101989796959c9b9a990000000000e0584000000000002045c0",
      // alarm+tag
      "9493929101989796959c9b9a990000000000e0584000000000002045c0e9d4c3"
      "b2a1",
      // slice
      "a4a3a2a1a8a7a6a5acabaaa902000000adae",
      // share_body
      "b4b3b2b1b5000000000000084000000000000029c0000000000000c03f",
      // share_body+tag
      "b4b3b2b1b5000000000000084000000000000029c0000000000000c03fe9d4c3"
      "b2a1",
  };
  ASSERT_EQ(std::size(pinned), std::size(wires));
  for (std::size_t i = 0; i < std::size(wires); ++i) {
    EXPECT_EQ(hex(wires[i].second), pinned[i]) << wires[i].first;
  }
}

TEST(MessagesTest, MalformedBytesYieldNullopt) {
  const net::Bytes junk{1, 2};
  EXPECT_FALSE(HelloMsg::from_bytes(junk));
  EXPECT_FALSE(ReportMsg::from_bytes(junk));
  EXPECT_FALSE(TagReportMsg::from_bytes(junk));
  EXPECT_FALSE(ClusterHelloMsg::from_bytes(junk));
  EXPECT_FALSE(JoinMsg::from_bytes(junk));
  EXPECT_FALSE(ClusterRosterMsg::from_bytes(junk));
  EXPECT_FALSE(ShareMsg::from_bytes(junk));
  EXPECT_FALSE(FAnnounceMsg::from_bytes(junk));
  EXPECT_FALSE(ClusterDigestMsg::from_bytes(junk));
  EXPECT_FALSE(AlarmMsg::from_bytes(junk));
  EXPECT_FALSE(SliceMsg::from_bytes(junk));
}

TEST(AggregateTest, MonoidLaws) {
  const Aggregate a = Aggregate::of(2.0);
  const Aggregate b = Aggregate::of(-3.0);
  const Aggregate c = Aggregate::of(7.0);
  // Associativity & commutativity of merge.
  EXPECT_EQ(a.merged(b).merged(c), a.merged(b.merged(c)));
  EXPECT_EQ(a.merged(b), b.merged(a));
  // Identity.
  EXPECT_EQ(a.merged(Aggregate{}), a);
}

TEST(AggregateTest, StatisticsFinishers) {
  Aggregate agg;
  for (const double r : {1.0, 2.0, 3.0, 4.0}) agg.merge(Aggregate::of(r));
  EXPECT_DOUBLE_EQ(agg.count, 4.0);
  EXPECT_DOUBLE_EQ(agg.mean(), 2.5);
  EXPECT_DOUBLE_EQ(agg.variance(), 1.25);  // population variance
  EXPECT_DOUBLE_EQ(agg.stddev() * agg.stddev(), 1.25);
}

TEST(AggregateTest, PowerMeanApproximatesMax) {
  const std::vector<double> xs{1.0, 3.0, 7.0, 2.0};
  const double k = 24.0;
  double sum = 0.0;
  for (const double x : xs) sum += power_contribution(x, k);
  EXPECT_NEAR(power_mean_finish(sum, k), 7.0, 0.45);
}

}  // namespace
}  // namespace icpda::proto
