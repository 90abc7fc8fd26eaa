// Channel fan-out semantics pinned BEFORE the copy-free broadcast
// rewrite (PR 4): delivery set, delivery order, delivery time, and the
// collision/half-duplex rules under dense broadcast, observed through
// a raw delivery hook (no MAC in the way). The rewrite must keep every
// test here green without edits.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/channel.h"
#include "net/network.h"

namespace icpda::net {
namespace {

/// A clique: every node within range of every other (9 nodes inside a
/// 40 m square, range 60 m), so one broadcast fans out to all.
Topology clique_topology(std::size_t n = 9) {
  std::vector<Point> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i % 3) * 20.0,
                   static_cast<double>(i / 3) * 20.0});
  }
  return Topology{std::move(pts), 60.0};
}

struct Delivery {
  NodeId receiver;
  NodeId src;
  std::uint32_t seq;
  ReceptionStatus status;
  double at;
  Bytes payload;
};

struct Rig {
  explicit Rig(Topology topo, NetworkConfig cfg = {}) : network(std::move(topo), cfg) {
    network.channel().set_delivery(
        [this](NodeId r, const Frame& f, ReceptionStatus st) {
          deliveries.push_back(
              {r, f.src, f.seq, st, network.scheduler().now().seconds(), f.payload});
        });
  }
  Network network;
  std::vector<Delivery> deliveries;
};

Frame make_frame(NodeId src, std::uint32_t seq, std::size_t payload_bytes) {
  Frame f;
  f.src = src;
  f.seq = seq;
  f.payload.assign(payload_bytes, static_cast<std::uint8_t>(seq));
  return f;
}

TEST(ChannelFanoutTest, DenseBroadcastReachesEveryNeighborOnceInIdOrder) {
  Rig rig(clique_topology());
  auto& sched = rig.network.scheduler();
  sched.after(sim::seconds(0.001), [&] {
    rig.network.channel().transmit(4, make_frame(4, 1, 64), nullptr);
  });
  sched.run();

  // Exactly the 8 neighbours of node 4, each exactly once, ascending id
  // (the fan-out iterates the sorted adjacency; same-time deliveries
  // keep schedule order).
  ASSERT_EQ(rig.deliveries.size(), 8u);
  std::vector<NodeId> got;
  for (const auto& d : rig.deliveries) {
    got.push_back(d.receiver);
    EXPECT_EQ(d.status, ReceptionStatus::kOk);
    EXPECT_EQ(d.src, 4u);
    EXPECT_EQ(d.payload, Bytes(64, 1));
  }
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2, 3, 5, 6, 7, 8}));

  // All deliveries land at exactly end-of-frame + propagation delay.
  const double airtime =
      rig.network.channel().airtime_bytes(64 + kFrameOverheadBytes).seconds();
  const double expect_at =
      0.001 + airtime + rig.network.channel().config().propagation_delay_s;
  for (const auto& d : rig.deliveries) EXPECT_DOUBLE_EQ(d.at, expect_at);
}

TEST(ChannelFanoutTest, SimultaneousTransmitsDeliverInTransmitCallOrder) {
  // Two same-size frames put on the air in the same instant: all
  // receivers see both (corrupted), grouped by transmission in
  // transmit() call order — the schedule-order tie-break, pinned.
  Rig rig(clique_topology());
  auto& sched = rig.network.scheduler();
  sched.after(sim::seconds(0.001), [&] {
    rig.network.channel().transmit(0, make_frame(0, 1, 32), nullptr);
    rig.network.channel().transmit(8, make_frame(8, 2, 32), nullptr);
  });
  sched.run();

  ASSERT_EQ(rig.deliveries.size(), 16u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rig.deliveries[i].src, 0u) << i;
  }
  for (std::size_t i = 8; i < 16; ++i) {
    EXPECT_EQ(rig.deliveries[i].src, 8u) << i;
  }
  for (const auto& d : rig.deliveries) {
    if (d.receiver == 0) {
      // Node 0 was already transmitting when node 8's frame was
      // registered at it: half-duplex-deaf.
      EXPECT_EQ(d.status, ReceptionStatus::kHalfDuplex);
    } else if (d.receiver == 8) {
      // Asymmetric quirk, pinned deliberately: node 0's frame was
      // registered at node 8 BEFORE node 8's transmit() call in the
      // same instant, and node 8's own transmission ends before the
      // delivery fires — so neither half-duplex check trips.
      EXPECT_EQ(d.status, ReceptionStatus::kOk);
    } else {
      EXPECT_EQ(d.status, ReceptionStatus::kCollided);
    }
  }
}

TEST(ChannelFanoutTest, LaterTransmissionCorruptsFrameStillOnAir) {
  // Status is resolved at delivery time: a second transmission starting
  // mid-flight corrupts the first frame at every common receiver.
  Rig rig(clique_topology());
  auto& sched = rig.network.scheduler();
  sched.after(sim::seconds(0.001), [&] {
    rig.network.channel().transmit(0, make_frame(0, 1, 1000), nullptr);  // ~8 ms
  });
  sched.after(sim::seconds(0.002), [&] {
    rig.network.channel().transmit(1, make_frame(1, 2, 10), nullptr);  // inside
  });
  sched.run();

  for (const auto& d : rig.deliveries) {
    if (d.receiver == 0 || d.receiver == 1) continue;  // the two senders
    EXPECT_EQ(d.status, ReceptionStatus::kCollided)
        << "receiver " << d.receiver << " seq " << d.seq;
  }
}

TEST(ChannelFanoutTest, ReceiverTransmittingIsHalfDuplexDeaf) {
  Rig rig(clique_topology());
  auto& sched = rig.network.scheduler();
  sched.after(sim::seconds(0.001), [&] {
    rig.network.channel().transmit(0, make_frame(0, 1, 1000), nullptr);  // ~8 ms
  });
  // Node 0 still transmitting when node 1's short frame arrives at it.
  sched.after(sim::seconds(0.003), [&] {
    rig.network.channel().transmit(1, make_frame(1, 2, 10), nullptr);
  });
  sched.run();
  bool saw_node0 = false;
  for (const auto& d : rig.deliveries) {
    if (d.receiver == 0 && d.seq == 2) {
      saw_node0 = true;
      EXPECT_EQ(d.status, ReceptionStatus::kHalfDuplex);
    }
  }
  EXPECT_TRUE(saw_node0);
}

TEST(ChannelFanoutTest, BackToBackBroadcastStormKeepsSlotsConsistent) {
  // Many spaced transmissions from rotating senders: every one must
  // deliver kOk to every neighbour (no stale corruption state, no
  // leaked in-flight entries making the medium look busy forever).
  Rig rig(clique_topology());
  auto& sched = rig.network.scheduler();
  const int rounds = 50;
  for (int i = 0; i < rounds; ++i) {
    sched.at(sim::seconds(0.01 * (i + 1)), [&rig, i] {
      rig.network.channel().transmit(static_cast<NodeId>(i % 9),
                                     make_frame(static_cast<NodeId>(i % 9),
                                                static_cast<std::uint32_t>(i), 64),
                                     nullptr);
    });
  }
  sched.run();
  ASSERT_EQ(rig.deliveries.size(), static_cast<std::size_t>(rounds) * 8u);
  for (const auto& d : rig.deliveries) {
    EXPECT_EQ(d.status, ReceptionStatus::kOk);
  }
  EXPECT_FALSE(rig.network.channel().busy_at(0));
  EXPECT_EQ(rig.network.metrics().counter("channel.rx_ok"),
            static_cast<std::uint64_t>(rounds) * 8u);
}

TEST(ChannelFanoutTest, TapSeesSenderAndExactBytes) {
  Rig rig(clique_topology());
  std::vector<std::pair<NodeId, Bytes>> tapped;
  rig.network.channel().add_tap(
      [&](NodeId sender, const Frame& f) { tapped.emplace_back(sender, f.payload); });
  rig.network.scheduler().after(sim::seconds(0.001), [&] {
    rig.network.channel().transmit(2, make_frame(2, 7, 16), nullptr);
  });
  rig.network.scheduler().run();
  ASSERT_EQ(tapped.size(), 1u);
  EXPECT_EQ(tapped[0].first, 2u);
  EXPECT_EQ(tapped[0].second, Bytes(16, 7));
}

TEST(ChannelFanoutTest, TransmitFromInsideADeliveryPassThrows) {
  // The pass reads the frame from a pooled slot that a nested
  // transmission could move, so the channel refuses instead of
  // handing the remaining receivers a dangling frame.
  Network network(clique_topology(), NetworkConfig{});
  auto& channel = network.channel();
  channel.set_delivery([&](NodeId r, const Frame&, ReceptionStatus) {
    channel.transmit(r, make_frame(r, 2, 16), nullptr);
  });
  network.scheduler().after(sim::seconds(0.001), [&] {
    channel.transmit(4, make_frame(4, 1, 16), nullptr);
  });
  EXPECT_THROW(network.scheduler().run(), std::logic_error);
}

}  // namespace
}  // namespace icpda::net
