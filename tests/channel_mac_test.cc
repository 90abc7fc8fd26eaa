// Channel (collisions, loss, overhearing) and MAC (CSMA, ACK/retry,
// duplicate suppression) behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <set>
#include <vector>

#include "net/channel.h"
#include "net/mac.h"
#include "net/network.h"
#include "net/node.h"
#include "net/wire.h"
#include "sim/shard.h"

namespace icpda::net {
namespace {

/// Three nodes in a line: 0 -- 1 -- 2 (0 and 2 are hidden from each
/// other), all pairs within range except 0-2.
Topology line_topology() { return Topology{{{0, 0}, {40, 0}, {80, 0}}, 50.0}; }

/// App recording everything it sees.
class RecorderApp final : public App {
 public:
  struct Seen {
    Frame frame;
    bool overheard;
  };
  void on_receive(Node&, const Frame& f) override { seen.push_back({f, false}); }
  void on_overhear(Node&, const Frame& f) override { seen.push_back({f, true}); }
  void on_send_failed(Node&, const Frame& f) override { failed.push_back(f); }
  std::vector<Seen> seen;
  std::vector<Frame> failed;
};

struct Rig {
  explicit Rig(Topology topo, NetworkConfig cfg = {})
      : network(std::move(topo), cfg) {
    network.attach_apps([this](Node&) {
      auto app = std::make_unique<RecorderApp>();
      apps.push_back(app.get());
      return app;
    });
  }
  Network network;
  std::vector<RecorderApp*> apps;
};

TEST(ChannelTest, AirtimeMatchesBitrate) {
  Rig rig(line_topology());
  Frame f;
  f.payload.assign(83, 0);  // 83 + 17 overhead = 100 bytes = 800 bits
  EXPECT_NEAR(rig.network.channel().airtime(f).seconds(), 800.0 / 1e6, 1e-12);
}

TEST(ChannelMacTest, UnicastDeliversOnlyToDestinationButAllOverhear) {
  Rig rig(line_topology());
  rig.network.scheduler().after(sim::seconds(0.001), [&] {
    rig.network.node(1).send(0, 42, {1, 2, 3});
  });
  rig.network.run();
  ASSERT_EQ(rig.apps[0]->seen.size(), 1u);
  EXPECT_FALSE(rig.apps[0]->seen[0].overheard);
  EXPECT_EQ(rig.apps[0]->seen[0].frame.type, 42);
  // Node 2 is in range of node 1: promiscuous overhear.
  ASSERT_EQ(rig.apps[2]->seen.size(), 1u);
  EXPECT_TRUE(rig.apps[2]->seen[0].overheard);
}

TEST(ChannelMacTest, BroadcastReachesAllNeighbours) {
  Rig rig(line_topology());
  rig.network.scheduler().after(sim::seconds(0.001), [&] {
    rig.network.node(1).broadcast(7, {9});
  });
  rig.network.run();
  ASSERT_EQ(rig.apps[0]->seen.size(), 1u);
  EXPECT_FALSE(rig.apps[0]->seen[0].overheard);  // broadcast counts as addressed
  ASSERT_EQ(rig.apps[2]->seen.size(), 1u);
  EXPECT_EQ(rig.apps[0]->seen[0].frame.payload, Bytes{9});
}

TEST(ChannelMacTest, OutOfRangeUnicastFailsAfterRetries) {
  Rig rig(line_topology());
  rig.network.scheduler().after(sim::seconds(0.001), [&] {
    rig.network.node(0).send(2, 42, {1});  // 0 cannot reach 2
  });
  rig.network.run();
  EXPECT_EQ(rig.apps[2]->seen.size(), 0u);
  ASSERT_EQ(rig.apps[0]->failed.size(), 1u);
  EXPECT_EQ(rig.network.metrics().counter("mac.tx_failed"), 1u);
  // max_retries + 1 transmissions attempted.
  EXPECT_EQ(rig.network.metrics().counter("mac.tx_attempts"),
            rig.network.config().mac.max_retries + 1);
}

TEST(ChannelMacTest, AckedUnicastSucceedsWithoutFailure) {
  Rig rig(line_topology());
  rig.network.scheduler().after(sim::seconds(0.001), [&] {
    rig.network.node(0).send(1, 42, {1});
  });
  rig.network.run();
  EXPECT_EQ(rig.apps[1]->seen.size(), 1u);
  EXPECT_TRUE(rig.apps[0]->failed.empty());
  EXPECT_EQ(rig.network.metrics().counter("mac.ack_received"), 1u);
}

TEST(ChannelMacTest, SimultaneousHiddenTerminalsCollideAtMiddle) {
  // Force both hidden nodes to transmit into the same instant by
  // bypassing the MAC and driving the channel directly.
  Rig rig(line_topology());
  auto& channel = rig.network.channel();
  auto& sched = rig.network.scheduler();
  int delivered_ok = 0;
  channel.set_delivery([&](NodeId receiver, const Frame&, ReceptionStatus st) {
    if (receiver == 1 && st == ReceptionStatus::kOk) ++delivered_ok;
    if (receiver == 1 && st == ReceptionStatus::kCollided) {
      // expected
    }
  });
  sched.after(sim::seconds(0.001), [&] {
    Frame a;
    a.src = 0;
    a.dst = 1;
    a.payload.assign(50, 0);
    Frame b;
    b.src = 2;
    b.dst = 1;
    b.payload.assign(50, 0);
    channel.transmit(0, a, nullptr);
    channel.transmit(2, b, nullptr);
  });
  sched.run();
  EXPECT_EQ(delivered_ok, 0);
  EXPECT_EQ(rig.network.metrics().counter("channel.rx_collided"), 2u);
}

TEST(ChannelMacTest, CarrierSenseDefersNeighbour) {
  Rig rig(line_topology());
  auto& channel = rig.network.channel();
  auto& sched = rig.network.scheduler();
  sched.after(sim::seconds(0.001), [&] {
    Frame a;
    a.src = 0;
    a.dst = 1;
    a.payload.assign(1000, 0);  // ~8 ms on air
    channel.transmit(0, a, nullptr);
  });
  bool busy_seen = false;
  sched.after(sim::seconds(0.002), [&] { busy_seen = channel.busy_at(1); });
  sched.run();
  EXPECT_TRUE(busy_seen);
}

TEST(ChannelMacTest, RandomLossDropsConfiguredFraction) {
  NetworkConfig cfg;
  cfg.channel.loss_probability = 0.5;
  Rig rig(line_topology(), cfg);
  auto& sched = rig.network.scheduler();
  // 200 broadcasts from node 1; each neighbour should get ~50%.
  for (int i = 0; i < 200; ++i) {
    sched.at(sim::seconds(0.01 * (i + 1)), [&] { rig.network.node(1).broadcast(5, {}); });
  }
  rig.network.run();
  const auto got = static_cast<double>(rig.apps[0]->seen.size());
  EXPECT_NEAR(got / 200.0, 0.5, 0.12);
  EXPECT_GT(rig.network.metrics().counter("channel.rx_lost"), 50u);
}

TEST(ChannelMacTest, DuplicateDataFramesAreSuppressed) {
  // Simulate an ACK loss forcing a retransmission: drive the channel
  // directly with two identical frames (same src/seq).
  Rig rig(line_topology());
  auto& sched = rig.network.scheduler();
  Frame f;
  f.src = 0;
  f.dst = 1;
  f.seq = 5;
  f.type = 42;
  sched.after(sim::seconds(0.001), [&] { rig.network.channel().transmit(0, f, nullptr); });
  sched.after(sim::seconds(0.05), [&] { rig.network.channel().transmit(0, f, nullptr); });
  rig.network.run();
  EXPECT_EQ(rig.apps[1]->seen.size(), 1u);
  EXPECT_EQ(rig.network.metrics().counter("mac.duplicate_suppressed"), 1u);
}

TEST(ChannelMacTest, HubSuppressesOneRetransmissionPerSender) {
  // Node 0 (the base station, which never goes down) is a hub heard by
  // 64 senders on a ring. The senders are down, so only the hub
  // decodes: every duplicate suppressed below is the hub's. All
  // senders stamp the same sequence number, so dedup state shared
  // between links would swallow first copies too.
  constexpr NodeId kSenders = 64;
  std::vector<Point> positions{{0, 0}};
  for (NodeId i = 0; i < kSenders; ++i) {
    const double a = 2.0 * std::numbers::pi * i / kSenders;
    positions.push_back({45.0 * std::cos(a), 45.0 * std::sin(a)});
  }
  Rig rig(Topology{std::move(positions), 50.0});
  ASSERT_EQ(rig.network.topology().degree(0), kSenders);
  auto& sched = rig.network.scheduler();
  for (NodeId s = 1; s <= kSenders; ++s) {
    rig.network.set_node_down(s);
    Frame f;
    f.src = s;
    f.dst = 0;
    f.seq = 5;
    f.type = 42;
    const double t = 0.01 * s;
    // The copy 5 ms later is the retransmission after a lost ACK.
    sched.at(sim::seconds(t), [&rig, s, f] { rig.network.channel().transmit(s, f, nullptr); });
    sched.at(sim::seconds(t + 0.005),
             [&rig, s, f] { rig.network.channel().transmit(s, f, nullptr); });
  }
  rig.network.run();
  std::multiset<NodeId> delivered;
  for (const auto& seen : rig.apps[0]->seen) {
    EXPECT_FALSE(seen.overheard);
    delivered.insert(seen.frame.src);
  }
  ASSERT_EQ(delivered.size(), kSenders);
  for (NodeId s = 1; s <= kSenders; ++s) EXPECT_EQ(delivered.count(s), 1u) << "sender " << s;
  EXPECT_EQ(rig.network.metrics().counter("mac.duplicate_suppressed"), kSenders);
  // Duplicates are re-ACKed: the sender evidently missed the first ACK.
  EXPECT_EQ(rig.network.metrics().counter("mac.ack_sent"), 2 * kSenders);
}

TEST(ChannelMacTest, BystanderOverhearsRetransmittedUnicastOnce) {
  Rig rig(line_topology());
  auto& sched = rig.network.scheduler();
  Frame f;
  f.src = 1;
  f.dst = 0;
  f.seq = 5;
  f.type = 42;
  sched.after(sim::seconds(0.001), [&] { rig.network.channel().transmit(1, f, nullptr); });
  sched.after(sim::seconds(0.05), [&] { rig.network.channel().transmit(1, f, nullptr); });
  rig.network.run();
  ASSERT_EQ(rig.apps[0]->seen.size(), 1u);
  EXPECT_FALSE(rig.apps[0]->seen[0].overheard);
  ASSERT_EQ(rig.apps[2]->seen.size(), 1u);
  EXPECT_TRUE(rig.apps[2]->seen[0].overheard);
  // Both the destination and the bystander dropped the second copy.
  EXPECT_EQ(rig.network.metrics().counter("mac.duplicate_suppressed"), 2u);
}

TEST(ChannelMacTest, AckAddressedElsewhereDoesNotCompletePendingFrame) {
  // B = 0 unicasts to D = 1, which is down and never ACKs. After each
  // of B's attempts, D's radio sends an ACK echoing B's sequence
  // number, but addressed to C = 2: B must ignore every one and exhaust
  // its retries.
  Rig rig(line_topology());
  auto& channel = rig.network.channel();
  auto& sched = rig.network.scheduler();
  rig.network.set_node_down(1);
  channel.add_tap([&](NodeId sender, const Frame& f) {
    if (sender != 0 || f.type != 42) return;
    WireWriter w;
    w.u32(f.seq);
    Frame ack;
    ack.src = 1;
    ack.dst = 2;
    ack.type = kMacAck;
    ack.payload = std::move(w).take();
    const sim::SimTime gap = channel.airtime(f) + sim::seconds(20e-6);
    sched.after(gap, [&channel, ack] { channel.transmit(1, ack, nullptr); });
  });
  sched.after(sim::seconds(0.001), [&] { rig.network.node(0).send(1, 42, {1}); });
  rig.network.run();
  const std::uint64_t attempts = rig.network.config().mac.max_retries + 1;
  EXPECT_EQ(rig.network.metrics().counter("mac.tx_attempts"), attempts);
  // Per attempt, all intact: the data frame at D, the ACK at B and C.
  EXPECT_EQ(rig.network.metrics().counter("channel.rx_ok"), 3 * attempts);
  EXPECT_EQ(rig.network.metrics().counter("mac.ack_received"), 0u);
  ASSERT_EQ(rig.apps[0]->failed.size(), 1u);
}

TEST(ChannelMacTest, QueueOverflowReportsFailure) {
  NetworkConfig cfg;
  cfg.mac.queue_limit = 2;
  Rig rig(line_topology(), cfg);
  rig.network.scheduler().after(sim::seconds(0.001), [&] {
    for (int i = 0; i < 5; ++i) rig.network.node(0).send(1, 42, {});
  });
  rig.network.run();
  EXPECT_EQ(rig.apps[0]->failed.size(), 3u);
  EXPECT_EQ(rig.network.metrics().counter("mac.queue_drop"), 3u);
}

TEST(ChannelMacTest, TapSeesEveryTransmission) {
  Rig rig(line_topology());
  int tapped = 0;
  rig.network.channel().add_tap([&](NodeId, const Frame&) { ++tapped; });
  rig.network.scheduler().after(sim::seconds(0.001), [&] {
    rig.network.node(1).broadcast(7, {});
  });
  rig.network.run();
  EXPECT_EQ(tapped, 1);
}

/// App whose start() sets a timer that records into a flag it shares
/// with the test, so the timer touches no App state.
class TimerApp final : public App {
 public:
  explicit TimerApp(std::shared_ptr<bool> fired) : fired_(std::move(fired)) {}
  void start(Node& node) override {
    node.schedule(sim::seconds(1.0), [fired = fired_] { *fired = true; });
  }

 private:
  std::shared_ptr<bool> fired_;
};

TEST(NodeTest, TimerDiesWithTheAppThatSetIt) {
  Network network(line_topology(), NetworkConfig{});
  auto stale = std::make_shared<bool>(false);
  auto kept = std::make_shared<bool>(false);
  auto fresh = std::make_shared<bool>(false);
  network.node(1).attach_app(std::make_unique<TimerApp>(stale));
  network.node(2).attach_app(std::make_unique<TimerApp>(kept));
  network.scheduler().at(sim::seconds(0.5), [&] {
    Node& node = network.node(1);
    node.attach_app(std::make_unique<App>());
    node.schedule(sim::seconds(1.0), [fresh] { *fresh = true; });
  });
  network.run();
  EXPECT_FALSE(*stale) << "a timer outlived the App that set it";
  EXPECT_TRUE(*kept);
  EXPECT_TRUE(*fresh);
}

TEST(NetworkTest, RejectsEmptyTopology) {
  NetworkConfig cfg;
  EXPECT_THROW(Network(Topology{{}, 50.0}, cfg), std::invalid_argument);
}

TEST(NetworkTest, RejectsShardCountAboveTheCeiling) {
  // Refused before the shard pool exists: 20000 shards would be 400
  // worker threads here (one per node) and 20000 at N = 20k.
  NetworkConfig cfg;
  cfg.shards = 20000;
  EXPECT_THROW(Network{cfg}, std::invalid_argument);
  cfg.shards = sim::kMaxShards + 1;
  EXPECT_THROW(Network{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace icpda::net
