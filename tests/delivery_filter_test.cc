// The reception path wakes only what acts (DESIGN.md §5i):
//
//  * flood holds — a node that has acted on a flood holds its tag, and
//    the channel hands that flood's later copies to neither its MAC nor
//    its app. Every physical reception is still counted, so a held run
//    must be indistinguishable from an unheld one in every count, event
//    and outcome; only the app wakes go.
//  * overheard-type masks — a node skips the on_overhear upcall for
//    frame types its app declares it ignores, and the service's
//    QueryMux declares its instances' mask. A pass-through wrapper
//    keeps the default (all types) mask, so an epoch run through it
//    must reproduce the unwrapped epoch exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "proto/messages.h"
#include "service/mux.h"

namespace icpda {
namespace {

constexpr net::FrameType kFlood = 42;

/// Per-node flood bookkeeping shared with the test body.
struct FloodLog {
  explicit FloodLog(std::size_t nodes) : wakes(nodes), acted(nodes) {}
  std::vector<int> wakes;               ///< kFlood upcalls per node
  std::vector<std::set<int>> acted;     ///< floods each node forwarded
};

/// A minimal flood protocol: the payload's first byte names the flood;
/// a node forwards each flood once (its own dedupe) and, when `hold`,
/// holds the flood's tag as it does — exactly the contract IcpdaApp's
/// alarm flood keeps.
class FloodApp final : public net::App {
 public:
  FloodApp(FloodLog* log, bool hold) : log_(log), hold_(hold) {}

  /// Start flood `id` from this node `delay` after now.
  void originate(net::Node& node, sim::SimTime delay, std::uint8_t id) {
    node.schedule(delay, [this, &node, id] {
      const std::uint16_t tag = node.open_flood();
      if (hold_) node.hold_flood(tag);
      log_->acted[node.id()].insert(id);
      node.broadcast(kFlood, net::Bytes{id, 0xAB}, tag);
    });
  }

  void on_receive(net::Node& node, const net::Frame& frame) override {
    if (frame.type != kFlood) return;
    ++log_->wakes[node.id()];
    if (!log_->acted[node.id()].insert(frame.payload.at(0)).second) return;
    if (hold_) node.hold_flood(frame.flood);
    node.broadcast(kFlood, frame.payload, frame.flood);
  }

 private:
  FloodLog* log_;
  bool hold_;
};

/// 5 x 5 grid, 30 m apart, range 45 m: each node hears its eight
/// surrounding nodes, so a flood from a corner crosses several hops and
/// every node hears each flood several times.
net::Topology grid_topology() {
  std::vector<net::Point> pts;
  for (int i = 0; i < 25; ++i) pts.push_back({30.0 * (i % 5), 30.0 * (i / 5)});
  return net::Topology{std::move(pts), 45.0};
}

struct FloodRun {
  FloodLog log;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::uint64_t events = 0;
};

/// One run of floods from `origins` (all at t = 10 ms), with or without
/// holds, optionally with one dead node.
FloodRun run_floods(std::unique_ptr<net::Network> net, const std::vector<net::NodeId>& origins,
                    bool hold, net::NodeId dead = net::kNoNode) {
  FloodRun run{FloodLog(net->size()), {}, 0};
  std::vector<FloodApp*> apps;
  net->attach_apps([&](net::Node&) {
    auto app = std::make_unique<FloodApp>(&run.log, hold);
    apps.push_back(app.get());
    return app;
  });
  if (dead != net::kNoNode) net->set_node_down(dead);
  for (std::size_t i = 0; i < origins.size(); ++i) {
    apps[origins[i]]->originate(net->node(origins[i]), sim::seconds(0.01),
                                static_cast<std::uint8_t>(i));
  }
  net->run();
  run.counters = net->metrics().counters();
  run.events = net->executed_events();
  return run;
}

TEST(FloodHoldTest, MultiHopFloodWakesEachLiveNodeOnce) {
  const net::NodeId dead = 12;  // the centre: the flood must route round it
  const auto make = [] {
    return std::make_unique<net::Network>(grid_topology(), net::NetworkConfig{});
  };
  const FloodRun held = run_floods(make(), {0}, true, dead);
  const FloodRun unheld = run_floods(make(), {0}, false, dead);

  int extra = 0;
  for (net::NodeId n = 0; n < 25; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    if (n == dead) {
      EXPECT_EQ(held.log.wakes[n], 0);
      continue;
    }
    EXPECT_EQ(held.log.acted[n].size(), 1u);  // the flood reached it
    // The origin holds before sending, so its echoes never wake it.
    EXPECT_EQ(held.log.wakes[n], n == 0 ? 0 : 1);
    extra += unheld.log.wakes[n] - held.log.wakes[n];
  }
  EXPECT_GT(extra, 0);  // the unheld run paid for the echoes

  // Holding is invisible below the app: the same frames, receptions,
  // MAC work and events.
  EXPECT_EQ(held.counters, unheld.counters);
  EXPECT_EQ(held.events, unheld.events);
  EXPECT_EQ(held.log.acted, unheld.log.acted);
  EXPECT_GT(held.counters.at("channel.rx_ok"), 25u);
}

TEST(FloodHoldTest, ReplacedAppIsWokenByAStragglerAgain) {
  net::Network net(grid_topology(), net::NetworkConfig{});
  FloodLog log(net.size());
  net.attach_apps([&](net::Node&) { return std::make_unique<FloodApp>(&log, true); });
  auto& sched = net.scheduler();
  std::uint16_t tag = 0;
  // Node 0's neighbour 1 hears the first copy and holds the flood; a
  // straggler copy is stopped at the channel.
  sched.at(sim::seconds(0.01), [&] {
    tag = net.node(0).open_flood();
    net.node(0).hold_flood(tag);
    net.node(0).broadcast(kFlood, net::Bytes{7, 0}, tag);
  });
  sched.at(sim::seconds(0.5), [&] {
    EXPECT_EQ(log.wakes[1], 1);
    net.node(0).broadcast(kFlood, net::Bytes{7, 0}, tag);
  });
  // A new app on node 1 holds nothing: the next straggler wakes it,
  // and it forwards the flood afresh.
  sched.at(sim::seconds(1.0), [&] {
    EXPECT_EQ(log.wakes[1], 1);
    log.acted[1].clear();
    net.node(1).attach_app(std::make_unique<FloodApp>(&log, true));
    net.node(0).broadcast(kFlood, net::Bytes{7, 0}, tag);
  });
  net.run();
  EXPECT_EQ(log.wakes[1], 2);
  EXPECT_EQ(log.acted[1].count(7), 1u);
  EXPECT_GT(tag, 0);
}

/// Two copies of one flood from node 0, 0.5 s apart, on the grid; the
/// apps hold (or not) every tag they act on, and node 1 also tries to
/// hold the tag up front. The tag is either the 65th of the current
/// window or one issued before it (attach_apps opens a new window past
/// every issued tag). Returns the per-node wakes.
std::vector<int> replay_flood(bool hold, bool past_window) {
  net::Network net(grid_topology(), net::NetworkConfig{});
  FloodLog log(net.size());
  std::uint16_t tag = 0;
  if (past_window) tag = net.node(0).open_flood();
  net.attach_apps([&](net::Node&) { return std::make_unique<FloodApp>(&log, hold); });
  if (!past_window) {
    std::set<std::uint16_t> window;
    for (int i = 0; i < 64; ++i) window.insert(net.node(0).open_flood());
    tag = net.node(0).open_flood();
    EXPECT_EQ(window.size(), 64u);  // tags are unique
    EXPECT_FALSE(window.contains(tag));
  }
  EXPECT_NE(tag, 0);
  if (hold) net.node(1).hold_flood(tag);
  for (const double at : {0.01, 0.5}) {
    net.scheduler().after(sim::seconds(at), [&net, tag] {
      net.node(0).broadcast(kFlood, net::Bytes{3, 0}, tag);
    });
  }
  net.run();
  // Each app's own dedupe forwarded the flood once.
  for (net::NodeId n = 1; n < net.size(); ++n) EXPECT_EQ(log.acted[n].size(), 1u) << n;
  EXPECT_GT(net.node(0).open_flood(), tag);  // never reused
  return log.wakes;
}

TEST(FloodHoldTest, TagOutsideTheWindowIsDeliveredAndDeduped) {
  // Nothing can hold a tag outside the window, so every copy wakes its
  // receiver exactly as in a run that never holds.
  for (const bool past_window : {false, true}) {
    SCOPED_TRACE(past_window ? "tag before the window" : "65th tag of the window");
    const std::vector<int> held = replay_flood(true, past_window);
    EXPECT_EQ(held, replay_flood(false, past_window));
    EXPECT_GE(held[1], 2);
  }
}

TEST(FloodHoldTest, ShardedFloodsFromTwoShardsInOneRound) {
  net::NetworkConfig cfg;
  cfg.node_count = 120;
  cfg.field_width_m = 160.0;
  cfg.field_height_m = 160.0;
  cfg.range_m = 50.0;
  cfg.seed = 0xF100D;
  net::NetworkConfig sharded_cfg = cfg;
  sharded_cfg.shards = 4;

  // Two origins on different shards, flooding at the same instant.
  auto sharded = std::make_unique<net::Network>(sharded_cfg);
  ASSERT_EQ(sharded->shard_count(), 4u);
  const auto& shard_of = sharded->shard_plan().shard_of;
  net::NodeId a = 1;
  net::NodeId b = 2;
  while (shard_of[b] == shard_of[a]) ++b;
  // Their first tags come from disjoint ranges.
  {
    net::Network probe(sharded_cfg);
    EXPECT_NE(probe.node(a).open_flood(), probe.node(b).open_flood());
  }

  const FloodRun s_held = run_floods(std::move(sharded), {a, b}, true);
  const FloodRun u_held = run_floods(std::make_unique<net::Network>(cfg), {a, b}, true);
  const FloodRun u_unheld = run_floods(std::make_unique<net::Network>(cfg), {a, b}, false);

  EXPECT_EQ(s_held.log.acted, u_unheld.log.acted);
  EXPECT_EQ(u_held.log.acted, u_unheld.log.acted);
  EXPECT_EQ(s_held.counters, u_unheld.counters);
  EXPECT_EQ(u_held.counters, u_unheld.counters);
  EXPECT_EQ(s_held.events, u_unheld.events);
  EXPECT_EQ(u_held.events, u_unheld.events);
  std::size_t reached = 0;
  for (net::NodeId n = 0; n < cfg.node_count; ++n) {
    reached += s_held.log.acted[n].size();
    // One wake per flood that reached the node (none for its own).
    const int own = (n == a) + (n == b);
    EXPECT_EQ(s_held.log.wakes[n], static_cast<int>(s_held.log.acted[n].size()) - own)
        << "node " << n;
  }
  EXPECT_GT(reached, cfg.node_count);  // both floods spread
}

// ---------------------------------------------------------------------
// Overheard-type masks.

/// Records overhear upcalls; declares a mask of its own.
class MaskedApp final : public net::App {
 public:
  explicit MaskedApp(std::uint64_t mask) : mask_(mask) {}
  void on_overhear(net::Node&, const net::Frame& frame) override { seen.push_back(frame.type); }
  [[nodiscard]] std::uint64_t overheard_types() const override { return mask_; }
  std::vector<net::FrameType> seen;

 private:
  std::uint64_t mask_;
};

TEST(OverhearMaskTest, NodeSkipsTypesTheAppIgnores) {
  net::Network net(grid_topology(), net::NetworkConfig{});
  net.attach_apps([](net::Node&) { return std::make_unique<net::App>(); });
  auto masked = std::make_unique<MaskedApp>(std::uint64_t{1} << 42);
  MaskedApp* app = masked.get();
  net.node(6).attach_app(std::move(masked));
  // Node 0 unicasts to node 1; node 6 overhears. Types 64 and up have
  // no bit and are always overheard.
  for (const net::FrameType type : {41, 42, 43, 70}) {
    net.scheduler().after(sim::seconds(0.01 * type), [&net, type] {
      net.node(0).send(1, type, net::Bytes{1});
    });
  }
  net.run();
  EXPECT_EQ(app->seen, (std::vector<net::FrameType>{42, 70}));
}

TEST(OverhearMaskTest, IcpdaAppDeclaresWhatItsOverhearPathReads) {
  const auto bit = [](net::FrameType t) { return std::uint64_t{1} << t; };
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(1)};
  const core::AttackPlan none;
  core::IcpdaOutcome outcome;
  core::IcpdaConfig benign;
  const core::IcpdaApp plain(benign, proto::constant_reading(1.0), &keys, &none, &outcome);
  EXPECT_EQ(plain.overheard_types(), bit(proto::kClusterReport));

  core::IcpdaConfig hardened;
  hardened.hardening.epoch_tag = 3;
  const core::IcpdaApp gated(hardened, proto::constant_reading(1.0), &keys, &none, &outcome);
  std::uint64_t want = 0;
  for (const net::FrameType t :
       {proto::kClusterRoster, proto::kShare, proto::kFAnnounce, proto::kClusterDigest,
        proto::kClusterReport, proto::kAlarm}) {
    want |= bit(t);
  }
  EXPECT_EQ(gated.overheard_types(), want);

  core::AdversaryPlan plan;
  plan.attack = core::AttackClass::kReplay;
  core::AdversaryState adv;
  const core::IcpdaApp adversarial(benign, proto::constant_reading(1.0), &keys, &none, &outcome,
                                   &plan, &adv);
  EXPECT_EQ(adversarial.overheard_types(), bit(proto::kClusterReport) | bit(proto::kFAnnounce));
}

TEST(OverhearMaskTest, QueryMuxDeclaresItsInstancesMask) {
  // The mux is the one app of a service node: it must declare the mask
  // of the instances it routes to, or the node hands it every overheard
  // frame for the instances to ignore.
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(1)};
  for (const std::uint32_t epoch_tag : {0u, 3u}) {
    SCOPED_TRACE(epoch_tag);
    service::ServiceState state;
    state.protocol.hardening.epoch_tag = epoch_tag;
    state.records.resize(1);
    const service::QueryMux mux(&state);
    const core::IcpdaApp instance(state.protocol, proto::constant_reading(1.0), &keys,
                                  &state.no_attack, &state.records[0].outcome);
    EXPECT_EQ(mux.overheard_types(), instance.overheard_types());
  }
}

/// Forwards every upcall and keeps App's default (all types) mask.
class PassThroughApp final : public net::App {
 public:
  PassThroughApp(std::unique_ptr<net::App> inner, std::vector<int>* alarm_wakes)
      : inner_(std::move(inner)), alarm_wakes_(alarm_wakes) {}
  void start(net::Node& node) override { inner_->start(node); }
  void on_receive(net::Node& node, const net::Frame& frame) override {
    if (frame.type == proto::kAlarm) ++(*alarm_wakes_)[node.id()];
    inner_->on_receive(node, frame);
  }
  void on_overhear(net::Node& node, const net::Frame& frame) override {
    inner_->on_overhear(node, frame);
  }
  void on_send_failed(net::Node& node, const net::Frame& frame) override {
    inner_->on_send_failed(node, frame);
  }

 private:
  std::unique_ptr<net::App> inner_;
  std::vector<int>* alarm_wakes_;
};

struct EpochRecord {
  std::vector<std::string> outcomes;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::uint64_t events = 0;
  std::size_t captured = 0;
  std::uint64_t replays = 0;
  std::vector<int> alarm_wakes;
};

std::string outcome_summary(const core::IcpdaOutcome& o) {
  std::string s = o.result ? std::to_string(o.result->sum) + "/" + std::to_string(o.result->count)
                           : std::string("none");
  for (const std::uint64_t v :
       {std::uint64_t{o.alarms.size()}, std::uint64_t{o.significant_alarms},
        std::uint64_t{o.drop_suspicions}, std::uint64_t{o.heads}, std::uint64_t{o.members},
        std::uint64_t{o.unclustered}, std::uint64_t{o.reporters},
        std::uint64_t{o.clusters_failed}, std::uint64_t{o.pollution_events},
        std::uint64_t{o.compromised_nodes}, std::uint64_t{o.replay_rejections},
        std::uint64_t{o.crosscheck_alarms}}) {
    s += ' ';
    s += std::to_string(v);
  }
  return s + " closed=" + std::to_string(o.closed_at.seconds()) +
         " last=" + std::to_string(o.last_report_at.seconds());
}

/// `epochs` iCPDA epochs on one deployment under `plan`, each app
/// optionally wrapped; the epoch driver of run_icpda_epoch's adversary
/// overload (no faults).
EpochRecord run_epochs(const core::AdversaryPlan& plan, core::IcpdaConfig cfg, int epochs,
                       bool wrap) {
  net::NetworkConfig net_cfg;
  net_cfg.node_count = 30;
  net_cfg.field_width_m = 120.0;
  net_cfg.field_height_m = 120.0;
  net_cfg.range_m = 50.0;
  net_cfg.seed = 0x601D;
  net::Network net(net_cfg);
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(0x601D)};
  const core::AttackPlan no_legacy_attack;
  core::AdversaryState adv;
  EpochRecord rec;
  rec.alarm_wakes.assign(net.size(), 0);
  for (int e = 1; e <= epochs; ++e) {
    if (cfg.hardening.epoch_tag != 0) cfg.hardening.epoch_tag = static_cast<std::uint32_t>(e);
    core::IcpdaOutcome out;
    ++adv.epoch;
    out.compromised_nodes =
        core::resolve_compromised(net, plan, {}, net.rng().fork("adversary"), adv);
    net.attach_apps([&](net::Node&) -> std::unique_ptr<net::App> {
      auto app = std::make_unique<core::IcpdaApp>(cfg, proto::constant_reading(double(e)), &keys,
                                                  &no_legacy_attack, &out, &plan, &adv);
      if (!wrap) return app;
      return std::make_unique<PassThroughApp>(std::move(app), &rec.alarm_wakes);
    });
    net.run(net.now() + sim::seconds(core::nominal_epoch_s(cfg) + core::kEpochDrainGraceS));
    rec.outcomes.push_back(outcome_summary(out));
  }
  rec.counters = net.metrics().counters();
  rec.events = net.executed_events();
  rec.captured = adv.captured.size();
  rec.replays = adv.replays_injected;
  return rec;
}

TEST(OverhearMaskTest, PassThroughWrapperReproducesTheEpochExactly) {
  struct Case {
    const char* name;
    core::AttackClass attack;
    bool hardened;
  };
  for (const Case& c : {Case{"benign", core::AttackClass::kNone, false},
                        Case{"pollution-hardened", core::AttackClass::kPollution, true},
                        Case{"replay-unhardened", core::AttackClass::kReplay, false},
                        Case{"replay-hardened", core::AttackClass::kReplay, true}}) {
    SCOPED_TRACE(c.name);
    core::AdversaryPlan plan;
    plan.attack = c.attack;
    if (c.attack != core::AttackClass::kNone) plan.compromised = {3, 5, 9};
    core::IcpdaConfig cfg;
    cfg.timing.close_slack_s = 2.5;
    if (c.hardened) {
      cfg.hardening.epoch_tag = 1;
      cfg.hardening.digest_crosscheck = true;
    }
    const EpochRecord bare = run_epochs(plan, cfg, 2, false);
    const EpochRecord wrapped = run_epochs(plan, cfg, 2, true);
    EXPECT_EQ(bare.outcomes, wrapped.outcomes);
    EXPECT_EQ(bare.counters, wrapped.counters);
    EXPECT_EQ(bare.events, wrapped.events);
    EXPECT_EQ(bare.captured, wrapped.captured);
    EXPECT_EQ(bare.replays, wrapped.replays);

    // Alarm floods are held: no node's app hears more copies than
    // there were floods.
    const std::uint64_t floods = wrapped.counters.contains("icpda.alarm_raised")
                                     ? wrapped.counters.at("icpda.alarm_raised")
                                     : 0;
    for (const int w : wrapped.alarm_wakes) EXPECT_LE(static_cast<std::uint64_t>(w), floods);
    if (c.attack == core::AttackClass::kPollution) {
      EXPECT_GT(floods, 0u);
    }
    if (c.attack == core::AttackClass::kReplay && c.hardened) {
      EXPECT_GT(wrapped.counters.at("icpda.replay_rejected"), 0u);
    }
  }
}

}  // namespace
}  // namespace icpda
