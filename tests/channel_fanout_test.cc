// Channel fan-out semantics pinned BEFORE the copy-free broadcast
// rewrite (PR 4): delivery set, delivery order, delivery time, and the
// collision/half-duplex rules under dense broadcast, observed through
// a raw delivery hook (no MAC in the way). The rewrite must keep every
// test here green without edits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "net/network.h"
#include "sim/rng.h"

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

TEST(ChannelFanoutTest, TransmitWhileOwnDeliveryPendingThrows) {
  // A link byte holds two frames per sender: the second frame may start
  // while the first is on the air (or just off it, undelivered), but a
  // third would overwrite a status no delivery pass has read yet.
  Rig rig(clique_topology());
  auto& channel = rig.network.channel();
  auto& sched = rig.network.scheduler();
  bool threw = false;
  sched.after(sim::seconds(0.001), [&] {
    channel.transmit(4, make_frame(4, 1, 64), nullptr);
    channel.transmit(4, make_frame(4, 2, 16), nullptr);
    try {
      channel.transmit(4, make_frame(4, 3, 16), nullptr);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  // Once both are delivered the sender may transmit again.
  sched.after(sim::seconds(0.01), [&] { channel.transmit(4, make_frame(4, 4, 16), nullptr); });
  sched.run();
  EXPECT_TRUE(threw);
  // The two overlapping frames corrupt each other everywhere; the
  // refused one never reached the air; the late one is intact.
  ASSERT_EQ(rig.deliveries.size(), 24u);
  for (const auto& d : rig.deliveries) {
    EXPECT_NE(d.seq, 3u);
    EXPECT_EQ(d.status, d.seq == 4 ? ReceptionStatus::kOk : ReceptionStatus::kCollided);
  }
}

// ---------------------------------------------------------------------
// Randomized differential: the O(1) link-slot collision state against
// a copy of the model it replaced, where every receiver keeps a list
// of its in-flight receptions and every transmission scans and marks
// that whole list.

/// The reception-list model. transmit() and deliver() are driven from
/// inside the real channel's events, so both see the same event order.
class ReceptionListModel {
 public:
  explicit ReceptionListModel(const Topology& topo)
      : topo_(topo), tx_until_(topo.size()), receptions_(topo.size()) {}

  void transmit(std::uint32_t id, NodeId sender, sim::SimTime now, sim::SimTime dur) {
    const sim::SimTime end = now + dur;
    tx_until_[sender] = std::max(tx_until_[sender], end);
    for (const NodeId r : topo_.neighbors(sender)) {
      bool corrupted = false;
      for (auto& other : receptions_[r]) {
        if (other.end > now) {
          other.corrupted = true;
          corrupted = true;
        }
      }
      receptions_[r].push_back({id, end, corrupted, tx_until_[r] > now});
    }
  }

  ReceptionStatus deliver(std::uint32_t id, NodeId receiver, sim::SimTime now) {
    auto& rs = receptions_[receiver];
    const auto it = std::find_if(rs.begin(), rs.end(),
                                 [id](const Reception& x) { return x.id == id; });
    EXPECT_NE(it, rs.end()) << "no reception of frame " << id << " at " << receiver;
    if (it == rs.end()) return ReceptionStatus::kLost;
    ReceptionStatus status = it->corrupted ? ReceptionStatus::kCollided : ReceptionStatus::kOk;
    if (it->rx_while_tx || tx_until_[receiver] > now) status = ReceptionStatus::kHalfDuplex;
    rs.erase(it);
    return status;
  }

  [[nodiscard]] bool busy_at(NodeId node, sim::SimTime now) const {
    if (tx_until_[node] > now) return true;
    return std::any_of(receptions_[node].begin(), receptions_[node].end(),
                       [now](const Reception& x) { return x.end > now; });
  }

 private:
  struct Reception {
    std::uint32_t id;
    sim::SimTime end;
    bool corrupted;
    bool rx_while_tx;
  };
  const Topology& topo_;
  std::vector<sim::SimTime> tx_until_;
  std::vector<std::vector<Reception>> receptions_;
};

/// Eight nodes 20 m apart on a line, range 45 m: each hears two hops
/// either way, so hidden terminals abound.
Topology line8_topology() {
  std::vector<Point> pts;
  for (int i = 0; i < 8; ++i) pts.push_back({20.0 * i, 0.0});
  return Topology{std::move(pts), 45.0};
}

struct PlannedTx {
  NodeId sender;
  sim::SimTime start;
  std::size_t payload;
};

/// Random transmissions, biased towards the model's corner cases:
/// same-instant starts, a start exactly at another frame's end, and a
/// start exactly at another frame's delivery instant. A sender never
/// has a third frame on the way before its first is delivered (the
/// channel refuses that), but does start frames inside its own.
std::vector<PlannedTx> plan_transmissions(const Channel& channel, std::size_t nodes,
                                          std::uint64_t seed) {
  sim::Rng rng(seed);
  const sim::SimTime prop{channel.config().propagation_delay_s};
  const auto airtime = [&](std::size_t payload) {
    return channel.airtime_bytes(payload + kFrameOverheadBytes);
  };
  std::vector<PlannedTx> txs;
  for (int i = 0; i < 160; ++i) {
    PlannedTx tx{static_cast<NodeId>(rng.below(nodes)), {}, rng.below(120)};
    const double kind = rng.uniform(0.0, 1.0);
    if (txs.empty() || kind < 0.4) {
      tx.start = sim::seconds(0.001 + rng.uniform(0.0, 0.05));
    } else {
      const PlannedTx& other = txs[rng.below(txs.size())];
      if (kind < 0.6) {
        tx.start = other.start;
      } else if (kind < 0.85) {
        tx.start = other.start + airtime(other.payload);
      } else {
        tx.start = other.start + airtime(other.payload) + prop;
      }
    }
    txs.push_back(tx);
  }
  std::stable_sort(txs.begin(), txs.end(),
                   [](const PlannedTx& a, const PlannedTx& b) { return a.start < b.start; });
  // Keep a transmission only while at most one earlier frame of its
  // sender can still be undelivered at its start (ties count as
  // undelivered: the delivery event may run after the transmission).
  std::vector<PlannedTx> kept;
  for (const PlannedTx& tx : txs) {
    int undelivered = 0;
    for (const PlannedTx& k : kept) {
      if (k.sender == tx.sender && k.start + airtime(k.payload) + prop >= tx.start) {
        ++undelivered;
      }
    }
    if (undelivered <= 1) kept.push_back(tx);
  }
  return kept;
}

struct DifferentialResult {
  /// (frame index, receiver) -> status
  std::map<std::pair<std::uint32_t, NodeId>, ReceptionStatus> status;
  int busy_mismatches = 0;
};

/// Run `txs` through a real channel (delivery hook) and the reference
/// model side by side; every (frame, receiver) status must agree.
DifferentialResult run_differential(const Topology& topo, const std::vector<PlannedTx>& txs) {
  Network network(topo, NetworkConfig{});
  ReceptionListModel model(network.topology());
  DifferentialResult out;
  auto& sched = network.scheduler();
  auto& channel = network.channel();
  channel.set_delivery([&](NodeId r, const Frame& f, ReceptionStatus st) {
    const ReceptionStatus want = model.deliver(f.seq, r, sched.now());
    EXPECT_EQ(st, want) << "frame " << f.seq << " from " << f.src << " at " << r;
    EXPECT_TRUE(out.status.emplace(std::make_pair(f.seq, r), st).second)
        << "frame " << f.seq << " delivered twice at " << r;
  });
  for (std::uint32_t i = 0; i < txs.size(); ++i) {
    sched.at(txs[i].start, [&, i] {
      const Frame f = make_frame(txs[i].sender, i, txs[i].payload);
      model.transmit(i, f.src, sched.now(), channel.airtime(f));
      channel.transmit(f.src, f, nullptr);
      for (NodeId n = 0; n < topo.size(); ++n) {
        if (channel.busy_at(n) != model.busy_at(n, sched.now())) ++out.busy_mismatches;
      }
    });
  }
  sched.run();
  std::size_t expected = 0;
  for (const PlannedTx& tx : txs) expected += topo.degree(tx.sender);
  EXPECT_EQ(out.status.size(), expected);
  return out;
}

TEST(ChannelFanoutTest, LinkSlotStateMatchesReceptionListModel) {
  const std::vector<std::pair<const char*, Topology>> topologies = {
      {"clique", clique_topology()}, {"line", line8_topology()}};
  std::map<ReceptionStatus, int> seen;
  for (const auto& [name, topo] : topologies) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      Network probe(topo, NetworkConfig{});
      const auto txs = plan_transmissions(probe.channel(), topo.size(), seed);
      const auto diff = run_differential(topo, txs);
      EXPECT_EQ(diff.busy_mismatches, 0);
      for (const auto& [key, st] : diff.status) ++seen[st];

      // The production wiring (MAC sink) with dead receivers: the same
      // statuses, counted per receiver, plus rx_dead for the dead.
      // Broadcasts only, and no apps, so no MAC answers anything.
      Network sinked(topo, NetworkConfig{});
      const std::vector<NodeId> dead = {2, 5};
      for (const NodeId d : dead) sinked.set_node_down(d);
      for (std::uint32_t i = 0; i < txs.size(); ++i) {
        sinked.scheduler().at(txs[i].start, [&sinked, &txs, i] {
          sinked.channel().transmit(txs[i].sender,
                                    make_frame(txs[i].sender, i, txs[i].payload), nullptr);
        });
      }
      sinked.scheduler().run();
      std::map<ReceptionStatus, std::uint64_t> counts;
      std::uint64_t dead_rx = 0;
      for (const auto& [key, st] : diff.status) {
        ++counts[st];
        if (std::find(dead.begin(), dead.end(), key.second) != dead.end()) ++dead_rx;
      }
      const auto& m = sinked.metrics();
      EXPECT_EQ(m.counter("channel.rx_ok"), counts[ReceptionStatus::kOk]);
      EXPECT_EQ(m.counter("channel.rx_collided"), counts[ReceptionStatus::kCollided]);
      EXPECT_EQ(m.counter("channel.rx_halfduplex"), counts[ReceptionStatus::kHalfDuplex]);
      EXPECT_EQ(m.counter("channel.rx_dead"), dead_rx);
    }
  }
  // The corpus really exercises every status.
  EXPECT_GT(seen[ReceptionStatus::kOk], 0);
  EXPECT_GT(seen[ReceptionStatus::kCollided], 0);
  EXPECT_GT(seen[ReceptionStatus::kHalfDuplex], 0);
}

}  // namespace
}  // namespace icpda::net
