#include "core/icpda.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "crypto/cipher.h"

namespace icpda::core {

using proto::Aggregate;
using proto::AlarmMsg;
using proto::ClusterDigestMsg;
using proto::ClusterHelloMsg;
using proto::ClusterRosterMsg;
using proto::FAnnounceMsg;
using proto::HelloMsg;
using proto::JoinMsg;
using proto::ReportMsg;
using proto::ShareMsg;

namespace {

/// |d| exceeds `th`, failing closed: a NaN difference (a non-finite
/// value on either side) counts as exceeding any threshold, where a
/// plain `std::abs(d) > th` would silently pass it.
bool exceeds(double d, double th) { return !(std::abs(d) <= th); }

}  // namespace

// ---------------------------------------------------------------------
// Start & query dissemination

void IcpdaApp::start(net::Node& node) {
  if (!node.is_base_station()) return;
  joined_ = true;
  set_timer(node, sim::seconds(config_.timing.start_delay_s), [this, &node] {
    // The BS opens the epoch: its query flood is Phase I traffic.
    node.tracer().switch_phase(node.id(), sim::TracePhase::kClusterFormation,
                               node.now(), span_tag());
    HelloMsg hello;
    hello.query_id = config_.query_id;
    hello.hop = 0;
    hello.allowed_mask = config_.allowed_mask;
    query_ = hello;
    node.broadcast(proto::kHello, hello.to_bytes());
    node.metrics().add("icpda.query_issued");
    const auto close_at =
        sim::seconds(config_.phase2_budget_s) + config_.timing.close_delay();
    set_timer(node, close_at, [this, &node] { close_epoch(node); });
  });
}

void IcpdaApp::on_receive(net::Node& node, const net::Frame& frame) {
  if (!admit(node, frame)) return;
  switch (frame.type) {
    case proto::kHello:
      handle_hello(node, frame);
      break;
    case proto::kClusterHello:
      handle_cluster_hello(node, frame);
      break;
    case proto::kJoin:
      handle_join(node, frame);
      break;
    case proto::kClusterRoster:
      handle_roster(node, frame);
      break;
    case proto::kShare:
      handle_share(node, frame);
      break;
    case proto::kFAnnounce:
      handle_f_announce(node, frame);
      break;
    case proto::kClusterDigest:
      handle_digest(node, frame);
      break;
    case proto::kClusterReport:
      handle_report(node, frame);
      break;
    case proto::kAlarm:
      handle_alarm(node, frame);
      break;
    default:
      break;
  }
}

std::uint64_t IcpdaApp::overheard_types_for(const IcpdaConfig& config, bool adversary) {
  // overhear_report acts on overheard reports. Beyond that, on_overhear
  // only runs admit(): the freshness gate counts stale frames of the
  // gated types in hardened runs, and replay capture keeps overheard
  // F announcements (and reports) when an adversary is attached.
  std::uint64_t types = std::uint64_t{1} << proto::kClusterReport;
  if (config.hardening.epoch_tag != 0) {
    for (net::FrameType t = 0; t < 64; ++t) {
      if (proto::epoch_tag_gated(t)) types |= std::uint64_t{1} << t;
    }
  }
  if (adversary) types |= std::uint64_t{1} << proto::kFAnnounce;
  return types;
}

void IcpdaApp::on_overhear(net::Node& node, const net::Frame& frame) {
  if (!admit(node, frame)) return;
  switch (frame.type) {
    case proto::kClusterReport:
      overhear_report(node, frame);
      break;
    case proto::kAlarm:
      // Alarms are broadcast, so they arrive via on_receive; nothing
      // extra to do on the promiscuous path.
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------
// Phase I — tree join + cluster formation

void IcpdaApp::handle_hello(net::Node& node, const net::Frame& frame) {
  if (node.is_base_station()) return;
  const auto hello = HelloMsg::from_bytes(frame.payload);
  if (!hello || hello->query_id != config_.query_id) return;
  if (hello->hop >= config_.timing.max_hops) {
    node.metrics().add("icpda.hop_budget_exceeded");
    return;
  }

  // First valid query copy: the node is in Phase I from here until its
  // roster settles (switch_phase is a no-op on later copies).
  node.tracer().switch_phase(node.id(), sim::TracePhase::kClusterFormation,
                             node.now(), span_tag());

  if (frame.src != 0) hello_sources_.insert(frame.src);

  // Forward the flood exactly once, participating or not: excluded
  // nodes still carry the control plane (else the query cannot reach
  // past them), they just cannot be parents or aggregators.
  if (!flood_forwarded_) {
    flood_forwarded_ = true;
    query_ = *hello;
    // A ClusterHello can beat the flood here, when no mask was known
    // yet to check its head against (handle_cluster_hello): forget the
    // heads the mask excludes before any join can pick them.
    const auto excluded = std::erase_if(
        heard_heads_, [this](net::NodeId head) { return !query_.allows(head); });
    if (excluded > 0) node.metrics().add("icpda.head_excluded_ignored", excluded);
    HelloMsg rebroadcast = *hello;
    rebroadcast.hop = static_cast<std::uint16_t>(hello->hop + 1);
    const auto jitter =
        sim::seconds(rng(node).uniform(0.0, config_.timing.hello_jitter_s));
    set_timer(node, jitter, [&node, payload = rebroadcast.to_bytes()]() mutable {
      node.broadcast(proto::kHello, std::move(payload));
    });
  }

  // Tree join: only via a participating parent (the BS, id 0, always
  // participates), and only if we participate ourselves.
  if (joined_) {
    // Late flood copies advertise alternative parents. Keep the
    // strictly shallower ones as Phase III failover candidates (strict
    // depth decrease keeps the reroute graph loop-free).
    if (frame.src != parent_ && hello->hop < hop_ &&
        (frame.src == 0 || hello->allows(frame.src))) {
      backup_parents_[frame.src] = hello->hop;
    }
    return;
  }
  if (!hello->allows(node.id())) return;  // excluded this round
  if (frame.src != 0 && !hello->allows(frame.src)) {
    node.metrics().add("icpda.parent_excluded");
    return;  // wait for a hello from a participating node
  }

  joined_ = true;
  parent_ = frame.src;
  hop_ = static_cast<std::uint16_t>(hello->hop + 1);
  join_time_ = node.now();
  node.metrics().add("icpda.joined_tree");

  // A replaying node is on the air now: schedule this epoch's
  // injections of frames captured in earlier epochs.
  if (attacking(AttackClass::kReplay, node)) schedule_replays(node);

  // Immediate self-election (the CPDA rule: on hearing the query a
  // node becomes a cluster head with probability pc). A compromised
  // node ignores the coin and grabs the aggregator role. In adaptive
  // mode the decision is deferred to decide_role so the density
  // estimate (hello_sources_) can accumulate during join_delay.
  const bool grabs_role =
      attack_->active() && attack_->force_head && attack_->is_polluter(node.id());
  // Disclosure and pollution adversaries maximise the aggregator role;
  // withholders avoid it (they starve clusters from the member side).
  const bool adv_grabs = compromised(node) && adversary_->force_head &&
                         (adversary_->attack == AttackClass::kDisclosure ||
                          adversary_->attack == AttackClass::kPollution);
  const bool adv_avoids = attacking(AttackClass::kWithhold, node);
  if (grabs_role || adv_grabs ||
      (!adv_avoids && !config_.adaptive_pc && rng(node).bernoulli(config_.pc))) {
    become_head(node);
  } else {
    set_timer(node, sim::seconds(config_.join_delay_s),
              [this, &node] { decide_role(node, 1); });
  }

  // Phase III slot, fixed relative to tree join.
  const auto report_at = sim::seconds(config_.phase2_budget_s) +
                         config_.timing.report_delay(hop_);
  set_timer(node, report_at, [this, &node] { send_report(node); });
}

void IcpdaApp::become_head(net::Node& node) {
  role_ = ClusterRole::kHead;
  ++outcome_->heads;
  node.metrics().add("icpda.head");
  ClusterHelloMsg msg;
  msg.query_id = config_.query_id;
  msg.head = node.id();
  msg.hop = hop_;
  const auto jitter =
      sim::seconds(rng(node).uniform(0.0, config_.timing.hello_jitter_s));
  set_timer(node, jitter, [&node, payload = msg.to_bytes()]() mutable {
    node.broadcast(proto::kClusterHello, std::move(payload));
  });
  // Stagger roster closing across heads so the cluster phases of
  // neighbouring clusters do not all contend at the same instants.
  set_timer(node, jitter + sim::seconds(config_.roster_delay_s +
                                        rng(node).uniform(0.0, 0.4)),
            [this, &node] { close_roster(node); });
}

void IcpdaApp::handle_cluster_hello(net::Node& node, const net::Frame& frame) {
  const auto msg = ClusterHelloMsg::from_bytes(frame.payload);
  if (!msg || msg->query_id != config_.query_id) return;
  if (msg->head == node.id()) return;
  if (!query_.allows(msg->head)) {
    // A node barred from aggregating announced itself as a head:
    // ignore it (receiver-side enforcement of the participation mask).
    node.metrics().add("icpda.head_excluded_ignored");
    return;
  }
  if (std::find(heard_heads_.begin(), heard_heads_.end(), msg->head) ==
      heard_heads_.end()) {
    heard_heads_.push_back(msg->head);
  }
  // Heads advertise their tree hop: shallower ones double as Phase III
  // failover parents.
  if (joined_ && msg->head != parent_ && msg->hop < hop_) {
    backup_parents_[msg->head] = msg->hop;
  }
}

void IcpdaApp::send_join(net::Node& node) {
  // Join a uniformly random cluster among those heard (CPDA rule).
  chosen_head_ = heard_heads_[rng(node).below(heard_heads_.size())];
  role_ = ClusterRole::kMember;
  ++join_attempts_;
  JoinMsg join;
  join.query_id = config_.query_id;
  join.member = node.id();
  join.head = chosen_head_;
  const auto jitter = sim::seconds(rng(node).uniform(0.0, config_.join_jitter_s));
  set_timer(node, jitter, [this, &node, payload = join.to_bytes()]() mutable {
    node.send(chosen_head_, proto::kJoin, std::move(payload));
  });
  node.metrics().add("icpda.join_sent");
  // Guard the timeout with the attempt counter: the MAC-failure fast
  // path below can re-join earlier, and a stale timer from the previous
  // join must not cut the new head's answer window short.
  set_timer(node, sim::seconds(config_.roster_timeout_s),
            [this, &node, attempt = join_attempts_] {
    if (role_ == ClusterRole::kMember && !cluster_.has_roster() &&
        join_attempts_ == attempt) {
      node.metrics().add("icpda.roster_missed");
      retry_or_give_up(node);
    }
  });
}

void IcpdaApp::retry_or_give_up(net::Node& node) {
  // Drop the head that failed us; try another if the budget allows.
  std::erase(heard_heads_, chosen_head_);
  if (join_attempts_ <= config_.rejoin_attempts && !heard_heads_.empty()) {
    node.metrics().add("icpda.rejoin");
    role_ = ClusterRole::kUndecided;
    send_join(node);
    return;
  }
  if (heard_heads_.empty()) {
    // Every head we ever heard is gone (crashed or unreachable). That
    // is not "no cluster wanted us" — it is "no cluster exists here":
    // re-enter the role decision at its final round, which makes us a
    // lone head, so our reading still reaches the BS under the
    // small-cluster policy instead of silently vanishing.
    node.metrics().add("icpda.head_failover");
    role_ = ClusterRole::kUndecided;
    decide_role(node, config_.max_join_rounds);
    return;
  }
  role_ = ClusterRole::kUnclustered;
  ++outcome_->unclustered;
  node.metrics().add("icpda.unclustered");
}

void IcpdaApp::decide_role(net::Node& node, std::uint32_t round) {
  if (role_ != ClusterRole::kUndecided || node.is_base_station()) return;

  if (!heard_heads_.empty()) {
    send_join(node);
    return;
  }

  if (round >= config_.max_join_rounds) {
    become_head(node);  // last resort: lone head
    return;
  }
  const double pc_eff =
      config_.adaptive_pc
          ? std::min(1.0, config_.adapt_k /
                              std::max<std::size_t>(1, hello_sources_.size()))
          : config_.pc;
  // Withholders never self-elect (see handle_hello); the final-round
  // lone-head fallback above still applies so they stay reachable.
  if (!attacking(AttackClass::kWithhold, node) && rng(node).bernoulli(pc_eff)) {
    become_head(node);
    return;
  }
  set_timer(node, sim::seconds(config_.join_delay_s),
            [this, &node, round] { decide_role(node, round + 1); });
}

void IcpdaApp::handle_join(net::Node& node, const net::Frame& frame) {
  if (role_ != ClusterRole::kHead || roster_sent_) return;
  const auto join = JoinMsg::from_bytes(frame.payload);
  if (!join || join->query_id != config_.query_id || join->head != node.id()) return;
  if (!query_.allows(join->member)) {
    node.metrics().add("icpda.join_excluded_ignored");
    return;
  }
  if (std::find(joiners_.begin(), joiners_.end(), join->member) == joiners_.end()) {
    joiners_.push_back(join->member);
  }
}

void IcpdaApp::close_roster(net::Node& node) {
  if (role_ != ClusterRole::kHead || roster_sent_) return;
  roster_sent_ = true;

  ClusterRosterMsg roster;
  roster.query_id = config_.query_id;
  roster.head = node.id();
  roster.epoch_tag = config_.hardening.epoch_tag;
  roster.members.push_back(node.id());

  if (attacking(AttackClass::kDisclosure, node)) {
    // Coalition roster engineering (Sen–Maitra setup): admit every
    // compromised joiner and at most ONE honest victim. With a single
    // honest polynomial left unknown, the coalition's pooled shares
    // plus the public digest make the system full rank for the
    // victim's private value.
    std::vector<net::NodeId> keep, honest;
    for (const net::NodeId j : joiners_) {
      (adv_->is_compromised(j) ? keep : honest).push_back(j);
    }
    if (!honest.empty()) keep.push_back(honest.front());
    if (keep.size() != joiners_.size()) {
      ++adv_->rosters_engineered;
      node.metrics().add("icpda.roster_engineered");
      node.tracer().counter(node.id(), sim::TraceCounter::kAdversaryAction,
                            static_cast<std::uint64_t>(AttackClass::kDisclosure),
                            node.now());
      joiners_ = std::move(keep);
    }
  }

  // Cap the roster: the intra-cluster exchange is O(m^2) frames
  // through this node's single radio. Excess joiners see a roster
  // without themselves and re-join elsewhere.
  const std::size_t cap =
      std::max<std::size_t>(1, config_.max_cluster_size) - 1;
  if (joiners_.size() > cap) {
    rng(node).shuffle(joiners_);  // fairness: no id bias in who stays
    node.metrics().add("icpda.joiners_rejected", joiners_.size() - cap);
    joiners_.resize(cap);
  }
  for (const net::NodeId j : joiners_) roster.members.push_back(j);
  const std::size_t m = roster.members.size();
  ++outcome_->cluster_sizes[static_cast<std::uint32_t>(m)];
  node.metrics().observe("icpda.cluster_size", static_cast<double>(m));

  if (m == 1) {
    settle_lone_head(node, /*recovery=*/false);
    return;
  }

  if (m < config_.min_cluster_size) {
    // The algebra still runs (m >= 2) but in-cluster peers can deduce
    // each other's values: privacy degraded for every member.
    outcome_->degraded_privacy += static_cast<std::uint32_t>(m);
    node.metrics().add("icpda.small_cluster");
  }

  // Public seeds: a random permutation of 1..m (values are public; the
  // permutation just avoids structural correlation with node ids).
  std::vector<std::uint32_t> seeds(m);
  for (std::size_t i = 0; i < m; ++i) seeds[i] = static_cast<std::uint32_t>(i + 1);
  rng(node).shuffle(seeds);
  roster.seeds = seeds;
  broadcast_roster(node, roster);
  node.metrics().add("icpda.roster_sent");

  // The head is a member of its own cluster: install the roster and
  // run Phase II alongside everyone else.
  if (cluster_.set_roster(node.id(), roster.members, roster.seeds, node.id())) {
    if (attacking(AttackClass::kDisclosure, node)) observe_roster(node);
    node.tracer().switch_phase(node.id(), sim::TracePhase::kShareExchange,
                               node.now(), span_tag());
    monitor_.set_target(node.id());
    schedule_round(node);
  }
}

void IcpdaApp::settle_lone_head(net::Node& node, bool recovery) {
  // No share algebra is possible for a cluster of one.
  switch (config_.small_cluster_policy) {
    case SmallClusterPolicy::kClearReport:
      clear_report_ = true;
      cluster_value_ = Aggregate::of(readings_(node.id()));
      ++outcome_->degraded_privacy;
      node.metrics().add(recovery ? "icpda.recovery_lone_clear" : "icpda.lone_head_clear");
      break;
    case SmallClusterPolicy::kDrop:
      ++outcome_->clusters_failed;
      node.metrics().add(recovery ? "icpda.recovery_lone_dropped"
                                  : "icpda.lone_head_dropped");
      break;
  }
}

void IcpdaApp::broadcast_roster(net::Node& node, const ClusterRosterMsg& roster) {
  // The roster broadcast has no ARQ: repeat it (members act on the
  // first copy; the MAC's sequence numbers make repeats distinct).
  for (std::uint32_t rep = 0; rep < config_.roster_repeats; ++rep) {
    const auto at = sim::seconds(static_cast<double>(rep) * 0.04 +
                                 rng(node).uniform(0.0, 0.02));
    set_timer(node, at, [&node, payload = roster.to_bytes()]() mutable {
      node.broadcast(proto::kClusterRoster, std::move(payload));
    });
  }
}

void IcpdaApp::schedule_round(net::Node& node) {
  // Deadlines scale with the roster size m: the round's ~m^2 share
  // frames all cross the head's radio.
  const std::size_t m = cluster_.size();
  const bool head = role_ == ClusterRole::kHead;
  const auto jitter = sim::seconds(rng(node).uniform(0.0, config_.share_window_s(m)));
  set_timer(node, jitter, [this, &node] { send_shares(node); });
  // Members spread their F unicasts; the head records its own F in
  // place, so it draws no jitter.
  double announce_at = config_.assemble_at_s(m);
  if (!head) announce_at += rng(node).uniform(0.0, config_.f_jitter_s);
  set_timer(node, sim::seconds(announce_at), [this, &node] { announce_f(node); });
  if (head) {
    set_timer(node, sim::seconds(config_.solve_at_s(m)),
              [this, &node] { solve_and_digest(node); });
  } else if (phase2_round_ == 0) {
    // If the head dies before a digest reaches us, stop waiting: a
    // member with no endorsed cluster sum by this deadline has no
    // value in flight and no head to witness for. The deadline already
    // covers a recovery round, so a recovery roster arms no second one.
    set_timer(node, sim::seconds(config_.digest_deadline_s(m)),
              [this, &node] { digest_deadline(node); });
  }
}

void IcpdaApp::handle_roster(net::Node& node, const net::Frame& frame) {
  // Header peek before the full parse (two vector allocations): a
  // round-0 roster only matters to an unrostered member that chose
  // this head. Nothing above the parse has a side effect, and a
  // payload too short for the header fails the parse too.
  const auto header = proto::decode_prefix<ClusterRosterMsg, 3>(frame.payload);
  if (!header || header->query_id != config_.query_id) return;
  if (header->round == 0 && (role_ != ClusterRole::kMember ||
                             header->head != chosen_head_ || cluster_.has_roster())) {
    return;
  }
  const auto roster = ClusterRosterMsg::from_bytes(frame.payload);
  if (!roster) return;
  if (roster->round > 0) {
    handle_recovery_roster(node, *roster);
    return;
  }

  if (std::find(roster->members.begin(), roster->members.end(), node.id()) ==
      roster->members.end()) {
    // Our join was lost or the roster was full: try another head.
    node.metrics().add("icpda.join_rejected");
    retry_or_give_up(node);
    return;
  }
  if (config_.hardening.min_honest_anonymity > 0 && !compromised(node) &&
      roster->members.size() < config_.hardening.min_honest_anonymity) {
    // Anonymity floor: a tiny roster is exactly the shape a disclosure
    // coalition engineers around one victim. Walk away and try another
    // head rather than accept an anonymity set below the floor.
    // (Compromised members skip this — the attacker does not police
    // itself.)
    node.metrics().add("icpda.roster_refused");
    ++outcome_->rosters_refused;
    node.tracer().counter(node.id(), sim::TraceCounter::kAdversaryDetect,
                          roster->head, node.now());
    retry_or_give_up(node);
    return;
  }
  if (!cluster_.set_roster(roster->head, roster->members, roster->seeds, node.id())) {
    role_ = ClusterRole::kUnclustered;
    ++outcome_->unclustered;
    node.metrics().add("icpda.bad_roster");
    return;
  }
  ++outcome_->members;
  if (attacking(AttackClass::kDisclosure, node)) observe_roster(node);
  monitor_.set_target(roster->head);
  node.metrics().add("icpda.member");
  node.tracer().switch_phase(node.id(), sim::TracePhase::kShareExchange,
                             node.now(), span_tag());

  // Shares that raced ahead of our roster copy are valid now.
  replay_early_shares();
  schedule_round(node);
}

void IcpdaApp::replay_early_shares() {
  for (const auto& [sender, entry] : early_shares_) {
    if (entry.first == phase2_round_ && cluster_.in_roster(sender)) {
      cluster_.record_share(sender, entry.second);
      observe_share(sender, entry.second);
    }
  }
  early_shares_.clear();
}

void IcpdaApp::digest_deadline(net::Node& node) {
  if (role_ != ClusterRole::kMember || monitor_.knows_cluster_sum()) return;
  // No digest by the (recovery-extended) deadline: the head is dead or
  // unreachable, and with Phase II unfinished our reading is provably
  // in no cluster sum. Stand down instead of hanging as a half-armed
  // witness; tree forwarding duties continue regardless of role.
  node.metrics().add("icpda.digest_missed");
  node.tracer().switch_phase(node.id(), sim::TracePhase::kReport, node.now(), span_tag());
  stand_down();
}

void IcpdaApp::stand_down() {
  role_ = ClusterRole::kUnclustered;
  ++outcome_->unclustered;
  if (outcome_->members > 0) --outcome_->members;
}

void IcpdaApp::handle_recovery_roster(net::Node& node, const ClusterRosterMsg& roster) {
  if (role_ != ClusterRole::kMember || !cluster_.has_roster()) return;
  if (roster.head != cluster_.head()) return;
  if (phase2_round_ >= roster.round) return;  // duplicate repeat
  if (monitor_.knows_cluster_sum()) return;   // round 0 finished for us

  if (std::find(roster.members.begin(), roster.members.end(), node.id()) ==
      roster.members.end()) {
    // The head never saw our F: it presumes us dead and our value is
    // out of this epoch's sum. Stand down as a witness.
    node.metrics().add("icpda.recovery_excluded");
    stand_down();
    return;
  }
  // In-place arena reset: set_roster validates fully before mutating,
  // so a bad recovery roster leaves the round-0 state untouched —
  // exactly what the old construct-then-move-assign did.
  if (!cluster_.set_roster(roster.head, roster.members, roster.seeds, node.id())) {
    node.metrics().add("icpda.bad_roster");
    return;
  }
  phase2_round_ = roster.round;
  f_sent_ = false;
  my_f_contributors_.clear();
  replay_early_shares();
  node.metrics().add("icpda.recovery_roster");
  node.tracer().switch_phase(node.id(), sim::TracePhase::kRecovery, node.now(), span_tag());
  // Rerun the exchange at the reduced degree on the recovery clock.
  schedule_round(node);
}

// ---------------------------------------------------------------------
// Phase II — shares, assembly, digest

void IcpdaApp::send_shares(net::Node& node) {
  const Aggregate contribution = Aggregate::of(readings_(node.id()));
  const auto seeds = cluster_.seed_values();
  make_shares_into(contribution, seeds, rng(node), share_scratch_, config_.coeff_scale);
  const auto& shares = share_scratch_;
  const auto& members = cluster_.members();

  cluster_.set_kept_share(shares[cluster_.my_index()]);
  if (attacking(AttackClass::kWithhold, node) && members.size() > 1) {
    // Withholding: keep our own share, send nothing to any peer. The
    // victims' F values become unassemblable (or inconsistent), so the
    // head cannot run the m-point Vandermonde solve — yet we still
    // announce an F below, so naive recovery keeps re-admitting us.
    adv_->shares_withheld += static_cast<std::uint32_t>(members.size() - 1);
    node.metrics().add("icpda.share_withheld");
    node.tracer().counter(node.id(), sim::TraceCounter::kAdversaryAction,
                          static_cast<std::uint64_t>(AttackClass::kWithhold),
                          node.now());
    return;
  }
  // Batched crypto for the cluster round: every pairwise key in one
  // pass (one cached key schedule under MasterPairwiseScheme), the
  // sealed body serialized once as a template with only the 24-byte
  // share patched per peer, and one seal buffer reused across peers.
  // Wire bytes and RNG draw order (coefficients first, then one nonce
  // per actually-sent share in member order) match the old per-share
  // loop exactly — pinned by CryptoBatchTest and the golden traces.
  keys_->link_keys(node.id(), members, link_keys_scratch_);
  ShareBody body;
  body.query_id = config_.query_id;
  body.round = phase2_round_;
  body.epoch_tag = config_.hardening.epoch_tag;
  net::Bytes body_bytes = body.to_bytes();
  ShareMsg msg;
  msg.query_id = config_.query_id;
  msg.sender = node.id();
  msg.epoch_tag = config_.hardening.epoch_tag;
  for (std::size_t j = 0; j < members.size(); ++j) {
    if (j == cluster_.my_index()) continue;
    const net::NodeId peer = members[j];
    const auto& key = link_keys_scratch_[j];
    if (!key) {
      // No pairwise key with this member (possible under EG rings):
      // the share cannot be protected, so it is not sent. The cluster
      // will fail the consistency check unless everyone else also
      // missed this member.
      node.metrics().add("icpda.no_link_key");
      continue;
    }
    ShareBody::patch_share(body_bytes, shares[j]);
    msg.recipient = peer;
    crypto::seal_into(*key, rng(node)(), body_bytes, msg.sealed);
    // Cluster members are all within range of the head but not
    // necessarily of each other (the cluster is a star): member-to-
    // member shares are relayed through the head. The share is sealed
    // end-to-end under the pairwise key k_{sender,recipient}, so the
    // relaying head carries ciphertext it cannot read.
    const net::NodeId next_hop =
        (role_ == ClusterRole::kHead || peer == cluster_.head()) ? peer
                                                                 : cluster_.head();
    node.send(next_hop, proto::kShare, msg.to_bytes());
    node.metrics().add("icpda.share_sent");
  }
}

void IcpdaApp::handle_share(net::Node& node, const net::Frame& frame) {
  const auto msg = ShareMsg::from_bytes(frame.payload);
  if (!msg || msg->query_id != config_.query_id) return;
  if (msg->recipient != node.id()) {
    // Relay leg of a member-to-member share: forward if we are the
    // head of a cluster containing the recipient.
    if (role_ == ClusterRole::kHead && cluster_.has_roster() &&
        cluster_.in_roster(msg->recipient)) {
      node.send(msg->recipient, proto::kShare, frame.payload);
      node.metrics().add("icpda.share_relayed");
    }
    return;
  }
  const auto key = keys_->link_key(msg->sender, node.id());
  if (!key) return;
  // Arena open: the plaintext buffer is a member scratch, so steady-
  // state share reception decrypts without heap allocation.
  if (!crypto::open_into(*key, msg->sealed, opened_scratch_)) {
    node.metrics().add("icpda.share_bad_auth");
    return;
  }
  const auto body = ShareBody::from_bytes(opened_scratch_);
  if (!body || body->query_id != config_.query_id) return;
  if (body->round < phase2_round_) {
    // Round-0 stragglers after a recovery reset: their polynomial has
    // the wrong degree for the current roster — mixing them would
    // corrupt the algebra and fire false tamper alarms downstream.
    node.metrics().add("icpda.share_stale_round");
    return;
  }
  if (!cluster_.has_roster() || body->round > phase2_round_) {
    // A peer's roster copy (normal or recovery) beat ours: hold the
    // share until the matching roster arrives (it is authenticated by
    // the pairwise key either way).
    if (early_shares_.size() < 64) {
      early_shares_[msg->sender] = {body->round, body->share};
    }
    node.metrics().add("icpda.share_stashed");
    return;
  }
  if (f_sent_) {
    // Our F for this round is already out; a share landing now cannot
    // be folded in (everyone's contributor lists would diverge).
    node.metrics().add("icpda.share_late");
    return;
  }
  if (!cluster_.in_roster(msg->sender)) {
    node.metrics().add("icpda.share_unexpected");
    return;
  }
  cluster_.record_share(msg->sender, body->share);
  observe_share(msg->sender, body->share);
  node.metrics().add("icpda.share_received");
}

void IcpdaApp::announce_f(net::Node& node) {
  if (!cluster_.has_roster() || f_sent_) return;
  f_sent_ = true;
  my_f_ = cluster_.assemble(my_f_contributors_);
  const FAnnounceMsg msg = f_announce(node);
  if (role_ == ClusterRole::kHead) {
    // The head's own F goes straight into its context.
    cluster_.record_announce(node.id(), my_f_, my_f_contributors_);
    if (config_.hardening.digest_crosscheck) {
      // Commit the head's own F on the air before the digest exists:
      // listeners pin it and later cross-check the digest's head entry
      // against this commitment (the one digest slot no member
      // endorses).
      node.broadcast(proto::kFAnnounce, msg.to_bytes());
      node.metrics().add("icpda.f_selfannounced");
    }
  } else {
    node.send(cluster_.head(), proto::kFAnnounce, msg.to_bytes());
    node.metrics().add("icpda.f_sent");
  }
}

FAnnounceMsg IcpdaApp::f_announce(const net::Node& node) const {
  FAnnounceMsg msg;
  msg.query_id = config_.query_id;
  msg.member = node.id();
  msg.head = cluster_.head();
  msg.round = phase2_round_;
  msg.f = my_f_;
  msg.contributors = my_f_contributors_;
  msg.epoch_tag = config_.hardening.epoch_tag;
  return msg;
}

void IcpdaApp::handle_f_announce(net::Node& node, const net::Frame& frame) {
  if (role_ != ClusterRole::kHead && !config_.hardening.digest_crosscheck) return;
  const auto msg = FAnnounceMsg::from_bytes(frame.payload);
  if (!msg || msg->query_id != config_.query_id) return;
  if (config_.hardening.digest_crosscheck && msg->member == msg->head &&
      msg->member == frame.src) {
    // A head committing its own F: pin it for the digest cross-check.
    head_f_seen_[msg->member] = msg->f.sum;
  }
  if (role_ != ClusterRole::kHead || msg->head != node.id()) return;
  if (msg->round != phase2_round_) {
    // Round-0 F arriving after a recovery reset (or a probe re-send
    // racing ahead): different-degree polynomials, not comparable.
    node.metrics().add("icpda.f_stale_round");
    return;
  }
  if (!cluster_.in_roster(msg->member)) return;
  cluster_.record_announce(msg->member, msg->f, msg->contributors);
  node.metrics().add("icpda.f_received");
}

void IcpdaApp::solve_and_digest(net::Node& node) {
  if (role_ != ClusterRole::kHead || clear_report_ || cluster_value_) return;
  if (!cluster_.complete() || !cluster_.consistent()) {
    node.metrics().add(cluster_.complete() ? "icpda.cluster_inconsistent"
                                           : "icpda.cluster_incomplete");
    if (!recovery_started_) {
      // A member crashed (or its frames all died) mid-exchange. The
      // degree-(m-1) interpolation cannot run with a missing F, so
      // re-fix the roster to the members that proved alive and rerun
      // the share exchange once at the reduced degree.
      start_phase2_recovery(node);
      return;
    }
    ++outcome_->clusters_failed;
    return;
  }
  // Pollution: a compromised head forges its OWN entry in the digest —
  // the one slot no member endorses (each member checks only its own
  // F). Dividing the injected bias by this entry's Lagrange weight at 0
  // makes the solved cluster sum come out exactly pollution_delta high,
  // so witnesses armed with the (also biased) digest still pass.
  bool forged = false;
  auto f_vals = cluster_.announced_f_values();  // roster order
  if (attacking(AttackClass::kPollution, node) && f_vals.size() >= 2) {
    const auto w = lagrange_weights_at_zero(cluster_.seed_values());
    const std::size_t me = cluster_.my_index();
    if (me < w.size() && w[me] != 0.0) {
      f_vals[me].sum += adversary_->pollution_delta / w[me];
      forged = true;
      ++adv_->digests_forged;
      ++outcome_->pollution_events;
      node.metrics().add("icpda.digest_forged");
      node.tracer().counter(node.id(), sim::TraceCounter::kAdversaryAction,
                            static_cast<std::uint64_t>(AttackClass::kPollution),
                            node.now());
    }
  }

  // Cannot fail: set_roster admitted only distinct non-zero seeds, and
  // f_vals is roster-sized.
  const Aggregate v = (forged ? solve_cluster_sum(cluster_.seed_values(), f_vals)
                              : cluster_.solve())
                          .value();
  cluster_value_ = v;
  monitor_.set_cluster_sum(v);
  node.metrics().add("icpda.cluster_solved");
  node.tracer().switch_phase(node.id(), sim::TracePhase::kHeadAggregation,
                             node.now(), span_tag());

  // Consolidated digest so every member can verify & solve too.
  ClusterDigestMsg digest;
  digest.query_id = config_.query_id;
  digest.head = node.id();
  digest.members = cluster_.members();
  digest.f_values = forged ? f_vals : cluster_.announced_f_values();
  digest.contributors = cluster_.contributor_set();
  digest.epoch_tag = config_.hardening.epoch_tag;
  if (attacking(AttackClass::kDisclosure, node)) observe_digest(node, digest);

  for (std::uint32_t r = 0; r < config_.f_repeats; ++r) {
    const auto jitter = sim::seconds(
        rng(node).uniform(0.0, config_.share_jitter_s) +
        static_cast<double>(r) * 0.03);
    set_timer(node, jitter, [&node, payload = digest.to_bytes()]() mutable {
      node.broadcast(proto::kClusterDigest, std::move(payload));
    });
  }
  if (recovery_started_) node.metrics().add("icpda.cluster_recovered");
}

void IcpdaApp::start_phase2_recovery(net::Node& node) {
  recovery_started_ = true;
  node.metrics().add("icpda.phase2_recovery");
  node.tracer().switch_phase(node.id(), sim::TracePhase::kRecovery, node.now(), span_tag());

  // Survivors: members whose F arrived (proof of life past the
  // assemble deadline), keeping roster order and their original seeds
  // (a subset of distinct non-zero seeds is still distinct non-zero).
  // The head's own F is always recorded, so it is always survivors[0].
  ClusterRosterMsg roster;
  roster.query_id = config_.query_id;
  roster.head = node.id();
  roster.round = 1;
  roster.epoch_tag = config_.hardening.epoch_tag;
  const auto& all = cluster_.members();
  const auto& all_seeds = cluster_.seed_ints();
  for (std::size_t j = 0; j < all.size(); ++j) {
    if (!cluster_.announced(all[j])) continue;
    if (config_.hardening.attribute_withholders && all[j] != node.id() &&
        cluster_.announces_received() >= 3 && cluster_.included_by(all[j]) == 0) {
      // Announced an F (alive, unicast path working) yet appears in
      // NOBODY else's contributor list: with >= 3 announcers the ARQ'd
      // share unicasts cannot all have died one-sidedly, so this member
      // withheld its shares. Exclude it from the recovery roster instead
      // of re-admitting the starver for a second round of the same.
      node.metrics().add("icpda.withholder_flagged");
      ++outcome_->withholders_flagged;
      node.tracer().counter(node.id(), sim::TraceCounter::kAdversaryDetect,
                            all[j], node.now());
      raise_alarm(node, all[j], AlarmMsg::kDropSuspect, 0.0, 0.0);
      continue;
    }
    roster.members.push_back(all[j]);
    roster.seeds.push_back(all_seeds[j]);
  }
  const std::size_t m = roster.members.size();
  const std::size_t orig_m = all.size();

  if (m <= 1) {
    // Nobody else proved alive: collapse to the lone-head policy so at
    // least our own reading survives the epoch.
    settle_lone_head(node, /*recovery=*/true);
    return;
  }

  if (m < config_.min_cluster_size && orig_m >= config_.min_cluster_size) {
    // The crash shrank a healthy cluster below the privacy floor.
    outcome_->degraded_privacy += static_cast<std::uint32_t>(m);
    node.metrics().add("icpda.recovery_small_cluster");
  }
  broadcast_roster(node, roster);

  phase2_round_ = 1;
  // In-place arena reset; cannot fail here (the head is survivors[0]
  // and the seeds are a distinct non-zero subset of the round-0 ones).
  cluster_.set_roster(node.id(), roster.members, roster.seeds, node.id());
  f_sent_ = false;
  my_f_contributors_.clear();
  schedule_round(node);
}

void IcpdaApp::handle_digest(net::Node& node, const net::Frame& frame) {
  const bool member_path = role_ == ClusterRole::kMember && cluster_.has_roster();
  if (!member_path && !config_.hardening.digest_crosscheck) return;
  // Header peek mirroring handle_roster: without the crosscheck sweep
  // only our own head's digest can matter, and with overhear degrees
  // of ~45 almost every digest heard belongs to a foreign cluster.
  // The peeked checks replicate discard branches below, which run
  // before any side effect.
  if (!config_.hardening.digest_crosscheck) {
    const auto header = proto::decode_prefix<ClusterDigestMsg, 2>(frame.payload);
    if (!header || header->query_id != config_.query_id ||
        header->head != cluster_.head()) {
      return;
    }
  }
  const auto digest = ClusterDigestMsg::from_bytes(frame.payload);
  if (!digest || digest->query_id != config_.query_id) return;
  if (config_.hardening.digest_crosscheck) crosscheck_digest(node, *digest);
  if (!member_path) return;
  if (digest->head != cluster_.head()) return;
  if (monitor_.knows_cluster_sum()) return;  // duplicate repeat
  if (digest->members != cluster_.members() ||
      digest->f_values.size() != digest->members.size()) {
    node.metrics().add("icpda.digest_malformed");
    return;
  }
  if (attacking(AttackClass::kDisclosure, node)) observe_digest(node, *digest);

  // Endorsement check 1: our own F entry must be exactly what we sent.
  const std::size_t my_idx = cluster_.my_index();
  if (f_sent_ && digest->f_values[my_idx] != my_f_) {
    // Provable forgery by the head.
    node.metrics().add("icpda.digest_forged_f");
    raise_alarm(node, cluster_.head(), AlarmMsg::kValueTamper, my_f_.sum,
                digest->f_values[my_idx].sum);
    return;
  }
  // Endorsement check 2: the claimed common contributor set must match
  // our own assembly (otherwise we cannot vouch for the solution).
  if (f_sent_ && digest->contributors != my_f_contributors_) {
    node.metrics().add("icpda.digest_contributor_mismatch");
    return;
  }

  // Cannot fail: our roster's seeds are distinct and non-zero, and the
  // f_values were checked roster-sized above.
  const Aggregate v = solve_cluster_sum(cluster_.seed_values(), digest->f_values).value();
  cluster_value_ = v;
  monitor_.set_cluster_sum(v);
  node.metrics().add("icpda.witness_armed");
  node.tracer().switch_phase(node.id(), sim::TracePhase::kPeerMonitoring,
                             node.now(), span_tag());

  // Head failover: the first member after the head in roster order is
  // the designated backup reporter for the endorsed cluster sum.
  if (f_sent_ && cluster_.size() >= 2 &&
      cluster_.members()[1] == node.id()) {
    arm_backup_reporter(node);
  }
}

void IcpdaApp::arm_backup_reporter(net::Node& node) {
  // The backup probes the head with a unicast shortly before the last
  // report slot; the MAC ACK doubles as a liveness check. Only a head
  // that neither ACKs the probe nor is overheard reporting triggers
  // the takeover — under the head's reporter id, so the BS dedupes if
  // the head did report and we merely missed it.
  const sim::SimTime last_slot = join_time_ +
                                 sim::seconds(config_.phase2_budget_s) +
                                 config_.timing.report_delay(0);
  const auto probe_at = last_slot - sim::seconds(config_.backup_probe_lead_s);
  const auto report_at = last_slot + sim::seconds(config_.backup_slot_slack_s +
                                                  rng(node).uniform(0.0, 0.05));
  const auto now = node.now();
  set_timer(node, probe_at > now ? probe_at - now : sim::SimTime{}, [this, &node] {
    if (head_report_seen_ || role_ != ClusterRole::kMember || !f_sent_) return;
    probe_sent_ = true;
    node.send(cluster_.head(), proto::kFAnnounce, f_announce(node).to_bytes());
    node.metrics().add("icpda.backup_probe");
  });
  set_timer(node, report_at > now ? report_at - now : sim::SimTime{},
            [this, &node] { backup_report(node); });
}

void IcpdaApp::backup_report(net::Node& node) {
  if (role_ != ClusterRole::kMember || head_report_seen_ || !cluster_value_) return;
  // Without positive evidence of death (an un-ACKed probe), stay
  // quiet: a duplicate under the head's id is only safe when the BS
  // can dedupe it, and an absorbed aggregate hides the head's id.
  if (!probe_sent_ || !probe_failed_) return;
  ReportMsg report;
  report.query_id = config_.query_id;
  report.reporter = cluster_.head();
  report.aggregate = *cluster_value_;
  report.epoch_tag = config_.hardening.epoch_tag;
  report.items.push_back(proto::ReportItem{cluster_.head(), *cluster_value_});
  node.metrics().add("icpda.backup_report");
  node.tracer().counter(node.id(), sim::TraceCounter::kBackupReport,
                        cluster_.head(), node.now());
  if (joined_) dispatch_up(node, report.reporter, report.to_bytes());
}

// ---------------------------------------------------------------------
// Phase III — up-tree aggregation + peer monitoring

void IcpdaApp::handle_report(net::Node& node, const net::Frame& frame) {
  const auto report = ReportMsg::from_bytes(frame.payload);
  if (!report || report->query_id != config_.query_id) return;
  if (frame.src != 0 && !query_.allows(frame.src)) {
    // Excluded nodes must not inject aggregation traffic.
    node.metrics().add("icpda.report_from_excluded");
    return;
  }

  // Reporter-level dedupe: a report instance is identified by its
  // reporter id (one aggregate per node per epoch). Re-hands from a
  // watchdog miss and app-level retransmissions would otherwise be
  // merged twice — silently corrupting the sum.
  const bool already_merged =
      std::any_of(items_.begin(), items_.end(), [&](const proto::ReportItem& it) {
        return it.id == report->reporter;
      });

  // Only the base station and cluster heads that have not reported yet
  // aggregate (heads are witness-audited by their members); everyone
  // else forwards verbatim so the watchdog check is exact. That
  // includes a head's re-hand of something it already claimed in its
  // sent report: re-emitting it lets the child's watchdog see the
  // hand-off.
  const bool bs = node.is_base_station();
  if (!bs && (role_ != ClusterRole::kHead || reported_)) {
    forward_verbatim(node, frame);
    return;
  }
  if (already_merged) {
    node.metrics().add("icpda.report_duplicate");
    return;
  }
  pending_.merge(report->aggregate);
  items_.push_back(proto::ReportItem{report->reporter, report->aggregate});
  if (bs) outcome_->last_report_at = node.now();
  node.metrics().add(bs ? "icpda.report_at_bs" : "icpda.report_merged");
}

void IcpdaApp::forward_verbatim(net::Node& node, const net::Frame& frame) {
  if (!joined_) return;
  auto report = ReportMsg::from_bytes(frame.payload);
  if (!report) return;

  net::Bytes payload = frame.payload;
  if (attack_->is_polluter(node.id())) {
    // A compromised relay tampers with the values it is asked to carry.
    report->aggregate.sum += attack_->delta;
    payload = report->to_bytes();
    node.metrics().add("icpda.pollution_injected");
    ++outcome_->pollution_events;
  }

  // A repeat hand-off (the child missed our first transmission and
  // re-handed): re-transmit so the child can overhear, but do NOT arm
  // another expectation of our own — our duty upward was discharged by
  // the first forward. Without this, re-hands cascade up the whole
  // path and congestion feeds on itself.
  for (const auto& exp : watchdog_) {
    if (exp.payload == payload) {
      node.send(parent_, proto::kClusterReport, payload);
      node.metrics().add("icpda.report_reforwarded");
      return;
    }
  }
  dispatch_up(node, report->reporter, payload);
  node.metrics().add("icpda.report_forwarded");
}

void IcpdaApp::dispatch_up(net::Node& node, net::NodeId reporter,
                           const net::Bytes& payload, std::uint32_t attempt) {
  node.send(parent_, proto::kClusterReport, payload);
  if (parent_ != 0) {
    // The record arms the watchdog and also drives the app-level
    // retransmission in on_send_failed.
    expect_forward(node, reporter, payload, attempt);
  }
}

void IcpdaApp::send_report(net::Node& node) {
  if (reported_ || node.is_base_station() || !joined_) return;
  reported_ = true;
  // The report slot opens Phase III for every tree node: heads
  // originate, everyone else is on pure forwarding duty from here.
  node.tracer().switch_phase(node.id(), sim::TracePhase::kReport, node.now(), span_tag());

  if (role_ != ClusterRole::kHead) {
    // Members and unclustered nodes originate nothing: their readings
    // travel inside cluster sums; in-transit reports were forwarded
    // verbatim on arrival.
    return;
  }

  ReportMsg report;
  report.query_id = config_.query_id;
  report.reporter = node.id();
  report.aggregate = pending_;
  report.items = items_;
  report.epoch_tag = config_.hardening.epoch_tag;

  if (cluster_value_) {
    // The head's own cluster sum rides as an item under its own id.
    report.aggregate.merge(*cluster_value_);
    report.items.push_back(proto::ReportItem{node.id(), *cluster_value_});
  }

  const bool polluting = attack_->is_polluter(node.id());
  if (polluting && !report.items.empty()) {
    // The attacker must corrupt a concrete item (the itemized format
    // makes total-only smearing trivially detectable); the naive
    // attacker modelled here inflates its own cluster item if it has
    // one, else the first child item, and keeps the total consistent.
    auto& victim = report.items.back();
    victim.value.sum += attack_->delta;
    report.aggregate.sum += attack_->delta;
    node.metrics().add("icpda.pollution_injected");
    ++outcome_->pollution_events;
  }

  if (report.items.empty()) {
    // Failed cluster and no child inputs: nothing to carry.
    node.metrics().add("icpda.report_skipped");
    return;
  }
  dispatch_up(node, report.reporter, report.to_bytes());
  node.metrics().add("icpda.report_sent");
  ++outcome_->reporters;
}

void IcpdaApp::expect_forward(net::Node& node, net::NodeId reporter,
                              net::Bytes payload, std::uint32_t attempt) {
  watchdog_.push_back(Expectation{
      .reporter = reporter, .payload = std::move(payload), .send_attempts = attempt});
  const std::size_t idx = watchdog_.size() - 1;
  // The parent may legitimately hold the data until its own report
  // slot (it aggregates if it is a head): the deadline must cover that
  // slot — computed from the parent's hop = ours - 1 — plus grace.
  const std::uint16_t parent_hop = hop_ > 0 ? static_cast<std::uint16_t>(hop_ - 1) : 0;
  const sim::SimTime parent_slot = join_time_ +
                                   sim::seconds(config_.phase2_budget_s) +
                                   config_.timing.report_delay(parent_hop);
  const sim::SimTime fire_at =
      std::max(node.now(), parent_slot) + sim::seconds(config_.watchdog_timeout_s);
  set_timer(node, fire_at - node.now(), [this, &node, idx] {
    if (idx >= watchdog_.size() || watchdog_[idx].satisfied) return;
    watchdog_[idx].satisfied = true;  // this entry's verdict is final
    const auto exp = watchdog_[idx];
    if (exp.send_attempts < 3 && rehands_used_ < kMaxRehandsPerEpoch) {
      // First miss: we may simply have failed to overhear the hand-off
      // (collision at us). Re-hand the report — an honest parent
      // re-forwards or re-claims it; only a second miss alarms. The
      // per-epoch budget keeps a congested neighbourhood from feeding
      // on its own retransmissions.
      ++rehands_used_;
      node.metrics().add("icpda.watchdog_rehand");
      node.send(parent_, proto::kClusterReport, exp.payload);
      expect_forward(node, exp.reporter, exp.payload, /*attempt=*/3);
      return;
    }
    // The MAC confirmed both deliveries and the parent still never
    // forwarded or claimed the data. A parent that has also been
    // completely silent since more likely died holding it than dropped
    // it on purpose: fail over to a backup parent instead of accusing
    // a corpse (the advisory alarm stays for the active case).
    if (parent_reports_overheard_ == 0 && reroute_to_backup(node)) {
      redispatch(node, exp.payload);
      return;
    }
    node.metrics().add("icpda.watchdog_alarm");
    node.metrics().add(parent_reports_overheard_ > 0
                           ? "icpda.watchdog_alarm_parent_active"
                           : "icpda.watchdog_alarm_parent_silent");
    raise_alarm(node, parent_, AlarmMsg::kDropSuspect,
            /*expected=*/1.0, /*observed=*/0.0);
  });
}

void IcpdaApp::on_send_failed(net::Node& node, const net::Frame& frame) {
  if (frame.type == proto::kJoin) {
    // The MAC exhausted its retries without one ACK from the chosen
    // head: the head is dead or out of range. Fail over immediately
    // instead of sitting out the roster timeout (the timeout's attempt
    // guard keeps the stale timer from firing on the next join).
    const auto join = JoinMsg::from_bytes(frame.payload);
    if (join && join->head == chosen_head_ &&
        role_ == ClusterRole::kMember && !cluster_.has_roster()) {
      node.metrics().add("icpda.join_unreachable");
      retry_or_give_up(node);
    }
    return;
  }
  if (frame.type == proto::kFAnnounce) {
    if (probe_sent_ && frame.dst == cluster_.head()) {
      probe_failed_ = true;  // the head never ACKed: presumed dead
      node.metrics().add("icpda.backup_probe_failed");
    }
    return;
  }
  if (frame.type != proto::kClusterReport) return;
  node.metrics().add("icpda.report_send_failed");
  // Our own unicast never reached its destination, so no watchdog
  // alarm is warranted for it: retire the live expectation armed for
  // this send.
  Expectation* exp = nullptr;
  for (auto& e : watchdog_) {
    if (e.payload == frame.payload && !e.failure_handled) {
      e.failure_handled = true;
      e.satisfied = true;
      exp = &e;
      break;
    }
  }
  if (frame.dst != parent_) {
    // Stale destination: this frame was purged from (or drained its
    // ladder against) a parent we have already failed over from. The
    // verdict on that parent is in — just resend through the current
    // one.
    redispatch(node, frame.payload);
    return;
  }
  if (exp == nullptr) return;
  const std::uint32_t attempt = exp->send_attempts + 1;
  // A full retry ladder with zero ACKs from a parent we have never
  // overheard transmit a report is a death verdict — reroute now,
  // while the close deadline can still be met, instead of burning
  // another ladder into a black hole. An active parent gets the
  // benefit of the doubt (congestion) and one same-parent retry, once
  // the congestion that killed the MAC's retries has had time to clear.
  if (attempt > 2 || parent_reports_overheard_ == 0) {
    if (reroute_to_backup(node)) {
      redispatch(node, exp->payload);
      return;
    }
    if (attempt > 2) {
      node.metrics().add("icpda.report_lost");
      return;
    }
    // No backup available: give the same parent its retry after all.
  }
  set_timer(
      node, sim::seconds(0.1 + rng(node).uniform(0.0, 0.1)),
      [this, &node, reporter = exp->reporter, payload = exp->payload, attempt] {
        dispatch_up(node, reporter, payload, attempt);
        node.metrics().add("icpda.report_retried");
      });
}

bool IcpdaApp::reroute_to_backup(net::Node& node) {
  if (reroutes_used_ >= config_.reroute_attempts) return false;
  failed_parents_.insert(parent_);
  // Best surviving candidate: smallest advertised hop (every candidate
  // was strictly shallower than us at flood time, so parent chains
  // keep descending toward the BS and cannot loop).
  net::NodeId best = net::kNoNode;
  std::uint16_t best_hop = std::numeric_limits<std::uint16_t>::max();
  for (const auto& [cand, cand_hop] : backup_parents_) {
    if (failed_parents_.contains(cand)) continue;
    if (cand_hop < best_hop) {
      best = cand;
      best_hop = cand_hop;
    }
  }
  if (best == net::kNoNode) {
    node.metrics().add("icpda.reroute_exhausted");
    return false;
  }
  ++reroutes_used_;
  const net::NodeId dead = parent_;
  parent_ = best;
  parent_reports_overheard_ = 0;  // fresh ledger for the new parent
  // Everything still queued for the dead parent would serialise a full
  // retry ladder per frame (head-of-line blocking live traffic for
  // seconds); fail it all now — the failures re-enter on_send_failed
  // with a stale dst and get redispatched through the new parent.
  node.purge_sends_to(dead);
  node.metrics().add("icpda.reroute");
  node.tracer().counter(node.id(), sim::TraceCounter::kReroute, best, node.now());
  ++outcome_->reroutes;
  return true;
}

void IcpdaApp::redispatch(net::Node& node, const net::Bytes& payload) {
  const auto backoff = sim::seconds(
      config_.reroute_backoff_s * (1.0 + rng(node).uniform(0.0, 1.0)));
  set_timer(node, backoff, [this, &node, payload] {
    const auto report = ReportMsg::from_bytes(payload);
    if (!report) return;
    dispatch_up(node, report->reporter, payload);
    node.metrics().add("icpda.report_rerouted");
  });
}

void IcpdaApp::check_watchdog(net::Node& node, const ReportMsg& report,
                              const net::Bytes& payload) {
  for (auto& exp : watchdog_) {
    if (exp.satisfied) continue;
    // (a) verbatim forward, or (b) the parent is a head and its own
    // aggregate claims our reporter as a contributor.
    if (payload == exp.payload) {
      exp.satisfied = true;
      continue;
    }
    if (report.reporter == parent_ && report.claims(exp.reporter)) {
      exp.satisfied = true;
      continue;
    }
    // (c) the parent re-emitted OUR reporter's record with different
    // bytes: that is provable in-transit tampering, not loss.
    if (report.reporter == exp.reporter && report.reporter != parent_) {
      const auto original = ReportMsg::from_bytes(exp.payload);
      exp.satisfied = true;  // verdict reached either way
      node.metrics().add("icpda.watchdog_tamper");
      raise_alarm(node, parent_, AlarmMsg::kValueTamper,
                  original ? original->aggregate.sum : 0.0,
                  report.aggregate.sum);
    }
  }
}

void IcpdaApp::overhear_report(net::Node& node, const net::Frame& frame) {
  // Decide from the frame header alone whether this report can matter
  // before paying for the parse (items vector and all): with overhear
  // degrees of ~45 the typical report concerns neither our parent nor
  // our monitored head. Parsing is side-effect-free (no metrics, no
  // RNG), so skipping it for frames no branch below would touch is
  // observationally identical.
  const bool from_parent = frame.src == parent_;
  const bool monitoring =
      role_ == ClusterRole::kMember && monitor_.target() != net::kNoNode;
  if (!from_parent && !(monitoring && (frame.dst == monitor_.target() ||
                                       frame.src == monitor_.target()))) {
    return;
  }
  const auto report = ReportMsg::from_bytes(frame.payload);
  if (!report || report->query_id != config_.query_id) return;

  // Watchdog: anything our tree parent transmits may satisfy our
  // pending forward expectations.
  if (frame.src == parent_) {
    ++parent_reports_overheard_;
    if (!watchdog_.empty()) check_watchdog(node, *report, frame.payload);
  }

  // Witness monitoring (cluster members only).
  if (role_ != ClusterRole::kMember || monitor_.target() == net::kNoNode) return;

  if (frame.dst == monitor_.target()) {
    // An input arriving at our head.
    monitor_.record_input(*report, node.now());
    return;
  }
  if (frame.src == monitor_.target() && report->reporter == monitor_.target()) {
    // Our head's own aggregated report: audit it. (Verbatim forwards
    // by the head keep the original reporter and are covered by the
    // originator's watchdog instead.)
    head_report_seen_ = true;  // the backup reporter stands down
    const auto verdict = monitor_.audit(*report, node.now());
    switch (verdict.kind) {
      case WitnessMonitor::Verdict::Kind::kClean:
        node.metrics().add("icpda.audit_clean");
        break;
      case WitnessMonitor::Verdict::Kind::kPartialClean:
        node.metrics().add("icpda.audit_partial_clean");
        break;
      case WitnessMonitor::Verdict::Kind::kNoKnowledge:
        node.metrics().add("icpda.audit_no_knowledge");
        break;
      case WitnessMonitor::Verdict::Kind::kMismatch:
        node.metrics().add("icpda.audit_alarm");
        raise_alarm(node, monitor_.target(), AlarmMsg::kValueTamper,
                    verdict.expected_sum, verdict.observed_sum);
        break;
      case WitnessMonitor::Verdict::Kind::kOmission:
        // An input we heard is missing from the head's claim. The head
        // may genuinely never have received it (collision at the head
        // while we heard it cleanly), so -- like relay drops -- this is
        // advisory: it feeds rerouting/reputation, and deliberate
        // VALUE changes remain the epoch-rejecting offence. The child
        // itself tracks the fate of its data via the watchdog.
        node.metrics().add("icpda.audit_omission");
        raise_alarm(node, monitor_.target(), AlarmMsg::kDropSuspect,
                    verdict.expected_sum, verdict.observed_sum);
        break;
    }
  }
}

void IcpdaApp::raise_alarm(net::Node& node, net::NodeId accused,
                           AlarmMsg::Kind kind, double expected, double observed) {
  // One alarm per accused node per epoch: repeated evidence against
  // the same neighbour adds nothing and alarm floods are expensive.
  if (!alarms_forwarded_.insert({node.id(), accused})) return;
  AlarmMsg alarm;
  alarm.query_id = config_.query_id;
  alarm.kind = kind;
  alarm.witness = node.id();
  alarm.accused = accused;
  alarm.expected_sum = expected;
  alarm.observed_sum = observed;
  alarm.epoch_tag = config_.hardening.epoch_tag;
  // Tag the flood and hold it here: this node drops every copy that
  // comes back, so the channel need not deliver them.
  const std::uint16_t flood = node.open_flood();
  node.hold_flood(flood);
  node.broadcast(proto::kAlarm, alarm.to_bytes(), flood);
  node.metrics().add("icpda.alarm_raised");
}

void IcpdaApp::handle_alarm(net::Node& node, const net::Frame& frame) {
  // An alarm flood re-delivers one (witness, accused) pair roughly
  // `degree` times per node: peek the (query_id, kind, witness,
  // accused) header and drop repeats before the full decode.
  const auto header = proto::decode_prefix<AlarmMsg, 4>(frame.payload);
  if (!header || header->query_id != config_.query_id) return;
  if (alarms_forwarded_.contains({header->witness, header->accused})) return;
  const auto alarm = AlarmMsg::from_bytes(frame.payload);
  if (!alarm) return;
  alarms_forwarded_.insert({alarm->witness, alarm->accused});
  // Every further copy of this flood carries the same payload and dies
  // at the peek above: let the channel stop them (Channel::hold_flood).
  node.hold_flood(frame.flood);

  if (!node.is_base_station()) {
    // Flood: rebroadcast each distinct (witness, accused) once.
    node.broadcast(proto::kAlarm, frame.payload, frame.flood);
    return;
  }
  outcome_->alarms.push_back(*alarm);
  if (alarm->kind == AlarmMsg::kDropSuspect) {
    ++outcome_->drop_suspicions;
  } else if (exceeds(alarm->expected_sum - alarm->observed_sum, config_.th)) {
    ++outcome_->significant_alarms;
  }
  node.metrics().add("icpda.alarm_at_bs");
}

void IcpdaApp::close_epoch(net::Node& node) {
  reported_ = true;
  outcome_->result = pending_;
  outcome_->closed_at = node.now();
  node.metrics().add("icpda.epoch_closed");
}

// ---------------------------------------------------------------------
// Active-adversary interception helpers

bool IcpdaApp::replay_gate(net::Node& node, const net::Frame& frame) {
  if (!proto::epoch_tag_gated(frame.type)) return false;
  if (!proto::epoch_tag_stale(frame.payload, config_.hardening.epoch_tag)) {
    return false;
  }
  // A gated frame without this epoch's freshness trailer: either a
  // replay of a capture from an earlier epoch or a pre-hardening
  // capture (no trailer at all). Drop it before any handler runs.
  node.metrics().add("icpda.replay_rejected");
  ++outcome_->replay_rejections;
  node.tracer().counter(node.id(), sim::TraceCounter::kAdversaryDetect,
                        frame.src, node.now());
  return true;
}

void IcpdaApp::maybe_capture(net::Node& node, const net::Frame& frame) {
  if (!attacking(AttackClass::kReplay, node)) return;
  if (frame.type != proto::kFAnnounce && frame.type != proto::kClusterReport) {
    return;
  }
  if (adv_->captured.size() >= AdversaryState::kCaptureCap) return;
  auto& mine = adv_->capture_counts[{adv_->epoch, node.id()}];
  if (mine >= AdversaryState::kCapturePerNode) return;
  ++mine;
  adv_->captured.push_back(AdversaryState::CapturedFrame{
      node.id(), adv_->epoch, frame.type, frame.dst, frame.payload});
}

void IcpdaApp::schedule_replays(net::Node& node) {
  std::uint32_t budget = adversary_->replays_per_epoch;
  for (const auto& cap : adv_->captured) {
    if (budget == 0) break;
    if (cap.capturer != node.id() || cap.epoch >= adv_->epoch) continue;
    --budget;
    // Reports are most damaging near the Phase III slots; everything
    // else goes out mid-Phase II. Copy the capture into the closure —
    // the vector may grow while these callbacks are pending.
    const double at = cap.type == proto::kClusterReport
                          ? config_.phase2_budget_s + rng(node).uniform(0.0, 0.4)
                          : 0.6 + rng(node).uniform(0.0, 0.6);
    set_timer(node, sim::seconds(at), [this, &node, type = cap.type, dst = cap.dst,
                                       payload = cap.payload] {
      ++adv_->replays_injected;
      node.metrics().add("icpda.replay_injected");
      node.tracer().counter(node.id(), sim::TraceCounter::kAdversaryAction,
                            static_cast<std::uint64_t>(AttackClass::kReplay),
                            node.now());
      if (dst == net::kBroadcast) {
        node.broadcast(type, payload);
      } else {
        node.send(dst, type, payload);
      }
    });
  }
}

void IcpdaApp::observe_roster(net::Node& node) {
  if (!attacking(AttackClass::kDisclosure, node) || !cluster_.has_roster()) return;
  auto& obs = adv_->clusters[{adv_->epoch, cluster_.head()}];
  obs.members = cluster_.members();
  obs.seeds = cluster_.seed_ints();
  obs.shares.clear();
  obs.f_values.clear();
  obs.digest_seen = false;
}

void IcpdaApp::observe_share(net::NodeId sender, const proto::Aggregate& share) {
  if (adv_ == nullptr || adversary_ == nullptr ||
      adversary_->attack != AttackClass::kDisclosure || !cluster_.has_roster()) {
    return;
  }
  const net::NodeId self = cluster_.members()[cluster_.my_index()];
  if (!adv_->is_compromised(self)) return;
  // The coalition pools every share a compromised member receives:
  // p_sender(x_self), keyed (recipient, sender).
  adv_->clusters[{adv_->epoch, cluster_.head()}].shares[{self, sender}] = share;
}

void IcpdaApp::observe_digest(net::Node& node, const proto::ClusterDigestMsg& digest) {
  if (!attacking(AttackClass::kDisclosure, node)) return;
  const auto it = adv_->clusters.find({adv_->epoch, digest.head});
  if (it == adv_->clusters.end()) return;
  if (it->second.members != digest.members) return;
  it->second.f_values = digest.f_values;
  it->second.digest_seen = true;
}

void IcpdaApp::crosscheck_digest(net::Node& node, const proto::ClusterDigestMsg& digest) {
  if (compromised(node)) return;  // the attacker does not police itself
  const auto seen = head_f_seen_.find(digest.head);
  if (seen == head_f_seen_.end()) return;
  for (std::size_t j = 0; j < digest.members.size() && j < digest.f_values.size();
       ++j) {
    if (digest.members[j] != digest.head) continue;
    if (exceeds(digest.f_values[j].sum - seen->second, config_.witness_tolerance)) {
      // The head published a different F for itself than it committed
      // on the air before solving: the one digest slot no member
      // endorses, forged. Attributable — alarm on the head.
      node.metrics().add("icpda.digest_crosscheck_alarm");
      ++outcome_->crosscheck_alarms;
      node.tracer().counter(node.id(), sim::TraceCounter::kAdversaryDetect,
                            digest.head, node.now());
      raise_alarm(node, digest.head, AlarmMsg::kValueTamper, seen->second,
                  digest.f_values[j].sum);
    }
    return;
  }
}

// ---------------------------------------------------------------------

namespace {

/// Fold one shard's outcome part into the final outcome. Every field an
/// app writes during the run is either a per-node tally (summed — each
/// node bumps exactly one part) or written only by the base station
/// (result / closed_at / last_report_at / alarms: taken from the single
/// part that has them; max() is take-if-set since the zero default
/// never exceeds a real time). coverage / values_lost are computed
/// after the merge, and nodes_crashed / compromised_nodes are set by
/// the driver on the final outcome before the run (parts hold zero).
void merge_outcome_part(IcpdaOutcome& into, IcpdaOutcome& part) {
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

/// Shared epoch tail: bounded horizon, trace finalization, coverage.
/// `outcome` is the SAME object the attached apps point at — by
/// reference, so everything the BS writes during net.run() lands here.
/// Sharded runs instead hand each app its shard's entry in `parts`
/// (concurrent drains must not share a tally sink); the parts fold into
/// `outcome` here, in shard order, before coverage is computed.
void run_epoch_tail(net::Network& net, const IcpdaConfig& config,
                    IcpdaOutcome& outcome, std::vector<IcpdaOutcome>& parts) {
  // Bounded horizon: the epoch is over shortly after the BS closes;
  // whatever straggler events remain (late alarms, MAC drain) cannot
  // matter beyond a grace period, and a hard bound keeps any
  // congestion pathology from running the simulation forever. Relative
  // to now() so a second epoch can run on the same Network.
  const auto horizon =
      net.now() + sim::seconds(nominal_epoch_s(config) + kEpochDrainGraceS);
  net.run(horizon);
  for (IcpdaOutcome& part : parts) merge_outcome_part(outcome, part);
  // Balance the trace: close every span still open (stragglers, nodes
  // that crashed after their last event) and stamp the epoch boundary.
  net.tracer().finalize_epoch(net.now());
  // Coverage is judged against the nodes still alive at epoch end: a
  // crashed node's reading is gone by definition, but every survivor's
  // reading should have made it into the accepted aggregate.
  const std::size_t live = net.live_count();
  const double live_sensors =
      live > 0 ? static_cast<double>(live - 1) : 0.0;  // minus the BS
  if (outcome.result && live_sensors > 0.0) {
    const double reached = std::min(outcome.result->count, live_sensors);
    outcome.coverage = reached / live_sensors;
    outcome.values_lost =
        static_cast<std::uint32_t>(std::lround(live_sensors - reached));
  }
}

}  // namespace

IcpdaOutcome run_icpda_epoch(net::Network& net, const IcpdaConfig& config,
                             const proto::ReadingProvider& readings,
                             const crypto::KeyScheme& keys, const AttackPlan& attack,
                             const FaultPlan& faults) {
  IcpdaOutcome outcome;
  // Sharded run: apps on concurrent shards cannot share one tally sink,
  // so each shard accumulates into its own part (folded by the tail).
  std::vector<IcpdaOutcome> parts(net.shard_count() > 1 ? net.shard_count() : 0);
  if (parts.empty()) {
    net.attach_apps([&](net::Node&) {
      return std::make_unique<IcpdaApp>(config, readings, &keys, &attack, &outcome);
    });
  } else {
    const sim::ShardPlan& plan = net.shard_plan();
    net.attach_apps([&](net::Node& n) {
      return std::make_unique<IcpdaApp>(config, readings, &keys, &attack,
                                        &parts[plan.shard_of[n.id()]]);
    });
  }
  outcome.nodes_crashed = schedule_fault_plan(net, faults, net.rng().fork("faults"));
  run_epoch_tail(net, config, outcome, parts);
  return outcome;
}

IcpdaOutcome run_icpda_epoch(net::Network& net, const IcpdaConfig& config,
                             const proto::ReadingProvider& readings,
                             const crypto::KeyScheme& keys,
                             const AdversaryPlan& adversary, AdversaryState& adv,
                             const FaultPlan& faults) {
  IcpdaOutcome outcome;
  // An adversary run shares AdversaryState across every compromised
  // node: arbitrary cross-shard state, so the engine must serialize.
  // Identical results (the gate replays the canonical order), and the
  // apps can then safely share the one outcome sink as well.
  std::vector<IcpdaOutcome> parts;
  if (net.shard_count() > 1) net.set_serialize_all(true);
  // Faults first: the crash set must be materialized before the
  // compromised set resolves, so crashed-and-compromised deterministically
  // resolves to crashed (a dead node mounts no attack).
  std::vector<net::NodeId> crashed;
  outcome.nodes_crashed =
      schedule_fault_plan(net, faults, net.rng().fork("faults"), &crashed);
  ++adv.epoch;
  outcome.compromised_nodes =
      resolve_compromised(net, adversary, crashed, net.rng().fork("adversary"), adv);
  static const AttackPlan kNoLegacyAttack;
  net.attach_apps([&](net::Node&) {
    return std::make_unique<IcpdaApp>(config, readings, &keys, &kNoLegacyAttack,
                                      &outcome, &adversary, &adv);
  });
  run_epoch_tail(net, config, outcome, parts);
  return outcome;
}

}  // namespace icpda::core
