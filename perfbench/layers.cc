#include "layers.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "core/cpda_algebra.h"
#include "crypto/cipher.h"
#include "proto/epoch.h"
#include "proto/messages.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

// Ledgers are owned by a global list so they outlive the pool threads
// that fill them; each thread finds its own through a thread_local.
std::mutex g_ledgers_mu;
std::vector<std::unique_ptr<Ledger>> g_ledgers;
thread_local Ledger* t_ledger = nullptr;
thread_local int t_span_depth = 0;

Ledger& local_ledger() {
  if (t_ledger == nullptr) {
    const std::lock_guard<std::mutex> lock(g_ledgers_mu);
    g_ledgers.push_back(std::make_unique<Ledger>());
    t_ledger = g_ledgers.back().get();
  }
  return *t_ledger;
}

/// An App callback span. A callback that runs inside another (a MAC
/// purge failing queued frames synchronously) is counted as a call but
/// its time stays with the outermost span, so no time is counted twice.
class Span {
 public:
  explicit Span(std::size_t slot)
      : ledger_(local_ledger()),
        slot_(slot),
        outer_(t_span_depth++ == 0),
        crypto0_(ledger_.crypto_ns),
        t0_(outer_ ? now_ns() : 0) {}
  ~Span() {
    --t_span_depth;
    ++ledger_.app_calls[slot_];
    if (!outer_) return;
    ledger_.app_ns[slot_] += now_ns() - t0_;
    ledger_.app_crypto_ns[slot_] += ledger_.crypto_ns - crypto0_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger& ledger_;
  std::size_t slot_;
  bool outer_;
  std::uint64_t crypto0_;
  std::uint64_t t0_;
};

std::size_t slot_of(net::FrameType type) {
  return type < kTypeSlots ? type : kTypeSlots - 1;
}

/// Keeps replay results observable so the replayed work is not elided.
volatile double g_sink = 0.0;

double ms_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

}  // namespace

const std::vector<std::pair<net::FrameType, std::string>>& icpda_types() {
  static const std::vector<std::pair<net::FrameType, std::string>> types{
      {proto::kHello, "hello"},
      {proto::kClusterHello, "cluster_hello"},
      {proto::kJoin, "join"},
      {proto::kClusterRoster, "cluster_roster"},
      {proto::kShare, "share"},
      {proto::kFAnnounce, "f_announce"},
      {proto::kClusterDigest, "cluster_digest"},
      {proto::kClusterReport, "cluster_report"},
      {proto::kAlarm, "alarm"},
  };
  return types;
}

void Ledger::add(const Ledger& other) {
  for (std::size_t i = 0; i < kSlots; ++i) {
    app_ns[i] += other.app_ns[i];
    app_calls[i] += other.app_calls[i];
    app_crypto_ns[i] += other.app_crypto_ns[i];
  }
  crypto_ns += other.crypto_ns;
  link_keys_calls += other.link_keys_calls;
  link_key_calls += other.link_key_calls;
}

void reset_ledgers() {
  const std::lock_guard<std::mutex> lock(g_ledgers_mu);
  for (auto& l : g_ledgers) *l = Ledger{};
}

Ledger sum_ledgers() {
  const std::lock_guard<std::mutex> lock(g_ledgers_mu);
  Ledger total;
  for (const auto& l : g_ledgers) total.add(*l);
  return total;
}

// ---- Decorators -------------------------------------------------------

void TimedApp::start(net::Node& node) {
  const Span span(kStartSlot);
  inner_->start(node);
}

void TimedApp::on_receive(net::Node& node, const net::Frame& frame) {
  const Span span(slot_of(frame.type));
  inner_->on_receive(node, frame);
}

void TimedApp::on_overhear(net::Node& node, const net::Frame& frame) {
  const Span span(slot_of(frame.type));
  inner_->on_overhear(node, frame);
}

void TimedApp::on_send_failed(net::Node& node, const net::Frame& frame) {
  const Span span(kSendFailedSlot);
  inner_->on_send_failed(node, frame);
}

std::optional<crypto::Key> TimedKeys::link_key(net::NodeId a, net::NodeId b) const {
  Ledger& ledger = local_ledger();
  const std::uint64_t t0 = now_ns();
  auto key = inner_.link_key(a, b);
  ledger.crypto_ns += now_ns() - t0;
  ++ledger.link_key_calls;
  return key;
}

void TimedKeys::link_keys(net::NodeId self, std::span<const net::NodeId> peers,
                          std::vector<std::optional<crypto::Key>>& out) const {
  Ledger& ledger = local_ledger();
  const std::uint64_t t0 = now_ns();
  inner_.link_keys(self, peers, out);
  ledger.crypto_ns += now_ns() - t0;
  ++ledger.link_keys_calls;
}

// ---- Census and kernel replays ---------------------------------------

void FrameCensus::attach(net::Channel& channel) {
  channel.add_tap([this](net::NodeId, const net::Frame& frame) {
    const std::size_t slot = slot_of(frame.type);
    ++frames[slot];
    bytes[slot] += frame.air_bytes();
    if (frame.type != net::kMacAck) payloads.emplace_back(frame.type, frame.payload);
  });
}

double decode_replay_ms(const FrameCensus& census) {
  std::size_t decoded = 0;
  const std::uint64_t t0 = now_ns();
  for (const auto& [type, payload] : census.payloads) {
    switch (type) {
      case proto::kHello: decoded += proto::HelloMsg::from_bytes(payload).has_value(); break;
      case proto::kClusterHello: decoded += proto::ClusterHelloMsg::from_bytes(payload).has_value(); break;
      case proto::kJoin: decoded += proto::JoinMsg::from_bytes(payload).has_value(); break;
      case proto::kClusterRoster: decoded += proto::ClusterRosterMsg::from_bytes(payload).has_value(); break;
      case proto::kShare: decoded += proto::ShareMsg::from_bytes(payload).has_value(); break;
      case proto::kFAnnounce: decoded += proto::FAnnounceMsg::from_bytes(payload).has_value(); break;
      case proto::kClusterDigest: decoded += proto::ClusterDigestMsg::from_bytes(payload).has_value(); break;
      case proto::kClusterReport: decoded += proto::ReportMsg::from_bytes(payload).has_value(); break;
      case proto::kAlarm: decoded += proto::AlarmMsg::from_bytes(payload).has_value(); break;
      default: break;
    }
  }
  const double ms = ms_since(t0);
  g_sink = g_sink + static_cast<double>(decoded);
  return ms;
}

double seal_open_replay_ms(const FrameCensus& census) {
  const crypto::Key key = crypto::Key::from_seed(0x5EA1);
  crypto::Bytes plain, sealed, opened;
  std::size_t ok = 0;
  std::uint64_t nonce = 0;
  const std::uint64_t t0 = now_ns();
  for (const auto& [type, payload] : census.payloads) {
    if (type != proto::kShare) continue;
    plain.assign(std::max<std::size_t>(payload.size(), crypto::kSealOverheadBytes + 1) -
                     crypto::kSealOverheadBytes,
                 0x5A);
    crypto::seal_into(key, ++nonce, plain, sealed);
    ok += crypto::open_into(key, sealed, opened);
  }
  const double ms = ms_since(t0);
  g_sink = g_sink + static_cast<double>(ok);
  return ms;
}

double make_shares_replay_ms(const std::map<std::uint32_t, std::uint32_t>& sizes) {
  sim::Rng rng(0x5AA7E5);
  std::vector<proto::Aggregate> shares;
  double acc = 0.0;
  const std::uint64_t t0 = now_ns();
  for (const auto& [m, clusters] : sizes) {
    if (m == 0) continue;
    const std::vector<double> seeds = core::default_seeds(m);
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(m) * clusters; ++i) {
      core::make_shares_into(proto::Aggregate::of(1.0), seeds, rng, shares);
      acc += shares.back().sum;
    }
  }
  const double ms = ms_since(t0);
  g_sink = g_sink + acc;
  return ms;
}

double solve_replay_ms(const std::map<std::uint32_t, std::uint32_t>& sizes) {
  sim::Rng rng(0x501E);
  double acc = 0.0;
  std::uint64_t total_ns = 0;
  for (const auto& [m, clusters] : sizes) {
    if (m == 0) continue;
    const std::vector<double> seeds = core::default_seeds(m);
    std::vector<proto::Aggregate> assembled;
    core::make_shares_into(proto::Aggregate::of(1.0), seeds, rng, assembled);
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(m) * clusters; ++i) {
      if (const auto v = core::solve_cluster_sum(seeds, assembled)) acc += v->sum;
    }
    total_ns += now_ns() - t0;
  }
  g_sink = g_sink + acc;
  return static_cast<double>(total_ns) / 1e6;
}

// ---- Epochs ----------------------------------------------------------

core::IcpdaOutcome run_untraced(net::Network& net, const EpochSpec& spec,
                                const crypto::KeyScheme& keys,
                                core::AdversaryState& adv) {
  const proto::ReadingProvider readings = proto::constant_reading(spec.reading);
  if (spec.adversary.active()) {
    return core::run_icpda_epoch(net, spec.config, readings, keys, spec.adversary, adv,
                                 spec.faults);
  }
  return core::run_icpda_epoch(net, spec.config, readings, keys, {}, spec.faults);
}

namespace {

/// core::run_icpda_epoch's fold of per-shard outcome parts: per-node
/// tallies are summed, base-station fields are taken where set.
void merge_part(core::IcpdaOutcome& into, core::IcpdaOutcome& part) {
  if (part.result) into.result = std::move(part.result);
  into.closed_at = std::max(into.closed_at, part.closed_at);
  into.last_report_at = std::max(into.last_report_at, part.last_report_at);
  for (auto& alarm : part.alarms) into.alarms.push_back(std::move(alarm));
  into.significant_alarms += part.significant_alarms;
  into.drop_suspicions += part.drop_suspicions;
  into.heads += part.heads;
  into.members += part.members;
  into.unclustered += part.unclustered;
  into.reporters += part.reporters;
  into.degraded_privacy += part.degraded_privacy;
  into.clusters_failed += part.clusters_failed;
  into.pollution_events += part.pollution_events;
  for (const auto& [size, n] : part.cluster_sizes) into.cluster_sizes[size] += n;
  into.nodes_crashed += part.nodes_crashed;
  into.reroutes += part.reroutes;
  into.values_lost += part.values_lost;
  into.compromised_nodes += part.compromised_nodes;
  into.replay_rejections += part.replay_rejections;
  into.withholders_flagged += part.withholders_flagged;
  into.crosscheck_alarms += part.crosscheck_alarms;
  into.rosters_refused += part.rosters_refused;
}

}  // namespace

core::IcpdaOutcome run_traced(net::Network& net, const EpochSpec& spec,
                              const crypto::KeyScheme& keys, core::AdversaryState& adv,
                              EpochTrace& trace) {
  static const core::AttackPlan kNoAttack;
  const proto::ReadingProvider readings = proto::constant_reading(spec.reading);
  const auto wrap = [](std::unique_ptr<net::App> app) {
    return std::make_unique<TimedApp>(std::move(app));
  };
  reset_ledgers();
  const std::uint64_t t0 = now_ns();

  core::IcpdaOutcome outcome;
  std::vector<core::IcpdaOutcome> parts;
  if (spec.adversary.active()) {
    // run_icpda_epoch's adversary order: faults, then the compromised set,
    // then apps sharing one outcome under a serialized engine.
    if (net.shard_count() > 1) net.set_serialize_all(true);
    std::vector<net::NodeId> crashed;
    outcome.nodes_crashed =
        core::schedule_fault_plan(net, spec.faults, net.rng().fork("faults"), &crashed);
    ++adv.epoch;
    outcome.compromised_nodes = core::resolve_compromised(
        net, spec.adversary, crashed, net.rng().fork("adversary"), adv);
    net.attach_apps([&](net::Node&) {
      return wrap(std::make_unique<core::IcpdaApp>(spec.config, readings, &keys, &kNoAttack,
                                                   &outcome, &spec.adversary, &adv));
    });
  } else {
    // Concurrent shards must not share a tally sink: one part per shard.
    parts.resize(net.shard_count() > 1 ? net.shard_count() : 0);
    const sim::ShardPlan& plan = net.shard_plan();
    net.attach_apps([&](net::Node& n) {
      core::IcpdaOutcome* sink = parts.empty() ? &outcome : &parts[plan.shard_of[n.id()]];
      return wrap(
          std::make_unique<core::IcpdaApp>(spec.config, readings, &keys, &kNoAttack, sink));
    });
    outcome.nodes_crashed =
        core::schedule_fault_plan(net, spec.faults, net.rng().fork("faults"));
  }

  // run_icpda_epoch's horizon: the close deadline plus a grace period.
  const core::IcpdaConfig& cfg = spec.config;
  const sim::SimTime horizon =
      net.now() + sim::seconds(cfg.timing.start_delay_s + cfg.phase2_budget_s) +
      cfg.timing.close_delay() + sim::seconds(3.0);
  const std::uint64_t r0 = now_ns();
  net.run(horizon);
  trace.run_ns = now_ns() - r0;

  for (core::IcpdaOutcome& part : parts) merge_part(outcome, part);
  net.tracer().finalize_epoch(net.now());
  const std::size_t live = net.live_count();
  const double live_sensors = live > 0 ? static_cast<double>(live - 1) : 0.0;
  if (outcome.result && live_sensors > 0.0) {
    const double reached = std::min(outcome.result->count, live_sensors);
    outcome.coverage = reached / live_sensors;
    outcome.values_lost = static_cast<std::uint32_t>(std::lround(live_sensors - reached));
  }

  trace.epoch_ns = now_ns() - t0;
  trace.threads = net.shard_count();
  trace.ledger = sum_ledgers();
  return outcome;
}

std::string outcome_diff(const core::IcpdaOutcome& a, const core::IcpdaOutcome& b) {
  if (a.result.has_value() != b.result.has_value()) return "result presence";
  if (a.result && (a.result->count != b.result->count || a.result->sum != b.result->sum ||
                   a.result->sum_sq != b.result->sum_sq)) {
    return "result";
  }
#define PERFBENCH_SAME(field) \
  if (!(a.field == b.field)) return #field
  PERFBENCH_SAME(closed_at);
  PERFBENCH_SAME(last_report_at);
  PERFBENCH_SAME(alarms.size());
  PERFBENCH_SAME(significant_alarms);
  PERFBENCH_SAME(drop_suspicions);
  PERFBENCH_SAME(heads);
  PERFBENCH_SAME(members);
  PERFBENCH_SAME(unclustered);
  PERFBENCH_SAME(reporters);
  PERFBENCH_SAME(degraded_privacy);
  PERFBENCH_SAME(clusters_failed);
  PERFBENCH_SAME(pollution_events);
  PERFBENCH_SAME(cluster_sizes);
  PERFBENCH_SAME(nodes_crashed);
  PERFBENCH_SAME(reroutes);
  PERFBENCH_SAME(values_lost);
  PERFBENCH_SAME(coverage);
  PERFBENCH_SAME(compromised_nodes);
  PERFBENCH_SAME(replay_rejections);
  PERFBENCH_SAME(withholders_flagged);
  PERFBENCH_SAME(crosscheck_alarms);
  PERFBENCH_SAME(rosters_refused);
#undef PERFBENCH_SAME
  return {};
}

// ---- Self times --------------------------------------------------------

void UnitTrace::add(const EpochTrace& t) {
  epoch_thread_ns += t.epoch_ns * t.threads;
  run_thread_ns += t.run_ns * t.threads;
  ledger.add(t.ledger);
}

std::map<std::string, double> layer_times(const UnitTrace& unit) {
  const Ledger& l = unit.ledger;
  std::map<std::string, double> out;
  std::uint64_t app_ns = 0, app_crypto_ns = 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    app_ns += l.app_ns[i];
    app_crypto_ns += l.app_crypto_ns[i];
  }
  const auto self_ms = [&](std::size_t slot) {
    return static_cast<double>(l.app_ns[slot] - l.app_crypto_ns[slot]) / 1e6;
  };
  for (const auto& [type, name] : icpda_types()) out["core.handler_ms." + name] = self_ms(type);
  out["core.handler_ms.send_failed"] = self_ms(kSendFailedSlot);
  out["core.start_ms"] = self_ms(kStartSlot);
  out["crypto.link_keys_ms"] = static_cast<double>(l.crypto_ns) / 1e6;

  // Whatever run time no App callback or KeyScheme call accounts for.
  const std::uint64_t spanned = app_ns + (l.crypto_ns - app_crypto_ns);
  const std::uint64_t run_self = unit.run_thread_ns > spanned ? unit.run_thread_ns - spanned : 0;
  out["net.run_self_ms"] = static_cast<double>(run_self) / 1e6;
  const double self_total = static_cast<double>(run_self + app_ns - app_crypto_ns + l.crypto_ns);
  out["trace.self_time_coverage"] =
      unit.epoch_thread_ns > 0 ? self_total / static_cast<double>(unit.epoch_thread_ns) : 0.0;
  return out;
}

std::map<std::string, double> layer_counts(const Ledger& l) {
  std::map<std::string, double> out;
  for (const auto& [type, name] : icpda_types()) {
    out["core.handler_calls." + name] = static_cast<double>(l.app_calls[type]);
  }
  out["core.handler_calls.send_failed"] = static_cast<double>(l.app_calls[kSendFailedSlot]);
  out["crypto.link_keys_calls"] = static_cast<double>(l.link_keys_calls);
  out["crypto.link_key_calls"] = static_cast<double>(l.link_key_calls);
  return out;
}

}  // namespace perfbench
