// iCPDA: the cluster-based integrity-enforcing, privacy-preserving
// data aggregation protocol (the paper's contribution).
//
// One epoch runs three phases on top of the shared substrate:
//
//  Phase I   — the base station floods the query; every node joins the
//              spanning tree, then self-elects cluster head with
//              probability pc or joins a head it heard. Heads fix a
//              roster + public seeds and broadcast it.
//  Phase II  — CPDA share exchange inside each cluster: encrypted
//              shares (member-to-member legs relayed through the head,
//              sealed end-to-end), assembled F values unicast to the
//              head, and a consolidated digest broadcast back, which
//              every member endorses (its own entry must match) and
//              from which every member interpolates the cluster sum.
//  Phase III — heads inject their cluster sums into a TAG-style
//              depth-scheduled ascent of the spanning tree with
//              itemized reports; cluster members act as witnesses,
//              overhear their head's inputs and output, and flood an
//              ALARM on any value discrepancy; relays forward verbatim
//              under the sender's watchdog. The base station rejects
//              the epoch on any value-tamper alarm whose deviation
//              exceeds Th.
//
// See DESIGN.md for the reconstruction notes (which details come from
// the companion papers and which are engineering choices).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/adversary.h"
#include "core/cluster.h"
#include "core/flat_set.h"
#include "core/config.h"
#include "core/faults.h"
#include "core/integrity.h"
#include "crypto/cipher.h"
#include "crypto/keys.h"
#include "net/network.h"
#include "net/node.h"
#include "proto/aggregate.h"
#include "proto/epoch.h"
#include "proto/messages.h"

namespace icpda::core {

/// Epoch outcome, written by the base station (plus per-node tallies
/// written by everyone). One instance per epoch, owned by the driver.
struct IcpdaOutcome {
  std::optional<proto::Aggregate> result;
  sim::SimTime closed_at;
  /// When the last report merged at the base station (zero if none):
  /// the settle time, vs closed_at which is the fixed epoch deadline.
  sim::SimTime last_report_at;
  std::vector<proto::AlarmMsg> alarms;
  /// Value-tamper alarms whose |expected - observed| exceeded Th.
  std::uint32_t significant_alarms = 0;
  /// Advisory drop-suspicion alarms (watchdog): feed rerouting, do not
  /// reject the epoch (a single watchdog cannot tell drop from loss).
  std::uint32_t drop_suspicions = 0;
  [[nodiscard]] bool accepted() const { return significant_alarms == 0; }

  // Tallies (whole network).
  std::uint32_t heads = 0;
  std::uint32_t members = 0;
  std::uint32_t unclustered = 0;
  std::uint32_t reporters = 0;
  /// Nodes whose values travelled with degraded privacy (clusters
  /// below min_cluster_size under kClearReport, incl. lone heads).
  std::uint32_t degraded_privacy = 0;
  /// Clusters that failed Phase II (missing/inconsistent shares or F).
  std::uint32_t clusters_failed = 0;
  /// Times a polluter actually tampered with a value this epoch.
  std::uint32_t pollution_events = 0;
  /// Cluster size -> number of clusters (at roster time).
  std::map<std::uint32_t, std::uint32_t> cluster_sizes;

  // Fault tolerance (filled when a FaultPlan is active; zero otherwise).
  /// Nodes the fault plan crashed this epoch (base station exempt).
  std::uint32_t nodes_crashed = 0;
  /// Phase III parent switches after a dead/silent parent.
  std::uint32_t reroutes = 0;
  /// Live sensors whose value never reached the base station.
  std::uint32_t values_lost = 0;
  /// result.count / live sensors at epoch end (1.0 when nothing runs).
  double coverage = 0.0;

  // Active adversary (filled when an AdversaryPlan runs; zero otherwise).
  /// Nodes resolved compromised this epoch (after crashed-first).
  std::uint32_t compromised_nodes = 0;
  /// Stale-epoch frames dropped by the freshness gate (hardening).
  std::uint32_t replay_rejections = 0;
  /// Members flagged as share withholders by the recovery round.
  std::uint32_t withholders_flagged = 0;
  /// Digest-vs-announcement mismatches caught by the cross-check.
  std::uint32_t crosscheck_alarms = 0;
  /// Rosters refused by members under the anonymity floor.
  std::uint32_t rosters_refused = 0;
};

class IcpdaApp final : public net::App {
 public:
  IcpdaApp(IcpdaConfig config, proto::ReadingProvider readings,
           const crypto::KeyScheme* keys, const AttackPlan* attack,
           IcpdaOutcome* outcome, const AdversaryPlan* adversary = nullptr,
           AdversaryState* adv = nullptr, sim::Rng* rng_override = nullptr)
      : config_(config),
        readings_(std::move(readings)),
        keys_(keys),
        attack_(attack),
        outcome_(outcome),
        adversary_(adversary),
        adv_(adv),
        rng_override_(rng_override),
        monitor_(WitnessMonitor::Config{config.witness_tolerance,
                                        config.omission_guard_s}) {}

  void start(net::Node& node) override;
  void on_receive(net::Node& node, const net::Frame& frame) override;
  void on_overhear(net::Node& node, const net::Frame& frame) override;
  void on_send_failed(net::Node& node, const net::Frame& frame) override;

  // Introspection for tests & the privacy auditor.
  [[nodiscard]] ClusterRole role() const { return role_; }
  [[nodiscard]] const ClusterContext& cluster() const { return cluster_; }
  [[nodiscard]] std::optional<proto::Aggregate> cluster_value() const {
    return cluster_value_;
  }
  [[nodiscard]] std::uint16_t hop() const { return hop_; }
  [[nodiscard]] bool joined_tree() const { return joined_; }

 private:
  // Phase I.
  void handle_hello(net::Node& node, const net::Frame& frame);
  void handle_cluster_hello(net::Node& node, const net::Frame& frame);
  void handle_join(net::Node& node, const net::Frame& frame);
  void handle_roster(net::Node& node, const net::Frame& frame);
  void decide_role(net::Node& node, std::uint32_t round);
  void send_join(net::Node& node);
  void retry_or_give_up(net::Node& node);
  void become_head(net::Node& node);
  void close_roster(net::Node& node);
  void broadcast_roster(net::Node& node, const proto::ClusterRosterMsg& roster);
  /// A cluster shrunk to its head alone (at roster time, or when a
  /// recovery round finds no other survivor): apply the small-cluster
  /// policy to the head's own reading.
  void settle_lone_head(net::Node& node, bool recovery);

  // Phase II.
  /// Arm the current round's timers (shares, F, then the head's solve
  /// or a round-0 member's digest deadline) once its roster is set.
  void schedule_round(net::Node& node);
  void handle_share(net::Node& node, const net::Frame& frame);
  void send_shares(net::Node& node);
  void announce_f(net::Node& node);
  [[nodiscard]] proto::FAnnounceMsg f_announce(const net::Node& node) const;
  void handle_f_announce(net::Node& node, const net::Frame& frame);
  void solve_and_digest(net::Node& node);
  void handle_digest(net::Node& node, const net::Frame& frame);

  // Phase II crash recovery (head re-fixes the roster to survivors and
  // reruns the exchange at reduced degree; see DESIGN.md fault model).
  void start_phase2_recovery(net::Node& node);
  void handle_recovery_roster(net::Node& node, const proto::ClusterRosterMsg& roster);
  void replay_early_shares();
  void digest_deadline(net::Node& node);
  /// A member whose value is in no cluster sum stops witnessing.
  void stand_down();

  // Phase III.
  void handle_report(net::Node& node, const net::Frame& frame);
  void send_report(net::Node& node);
  void forward_verbatim(net::Node& node, const net::Frame& frame);
  /// Hand a report to the tree parent and record the hand-off (the
  /// watchdog's expectation, `attempt` counting app-level resends).
  void dispatch_up(net::Node& node, net::NodeId reporter, const net::Bytes& payload,
                   std::uint32_t attempt = 1);
  void overhear_report(net::Node& node, const net::Frame& frame);
  void raise_alarm(net::Node& node, net::NodeId accused,
                   proto::AlarmMsg::Kind kind, double expected, double observed);
  void handle_alarm(net::Node& node, const net::Frame& frame);
  void close_epoch(net::Node& node);

  // Watchdog on the tree parent.
  void expect_forward(net::Node& node, net::NodeId reporter, net::Bytes payload,
                      std::uint32_t attempt);
  void check_watchdog(net::Node& node, const proto::ReportMsg& report,
                      const net::Bytes& payload);

  // Phase III crash failover.
  bool reroute_to_backup(net::Node& node);
  void redispatch(net::Node& node, const net::Bytes& payload);
  void arm_backup_reporter(net::Node& node);
  void backup_report(net::Node& node);

  // Active adversary (core/adversary.h). `compromised` is true when the
  // adversary layer is attached AND this node is in the resolved set;
  // `attacking` additionally matches the plan's attack class. Honest
  // nodes (and every node in a benign run) take none of these branches.
  [[nodiscard]] bool compromised(const net::Node& node) const {
    return adv_ != nullptr && adversary_ != nullptr &&
           adv_->is_compromised(node.id());
  }
  [[nodiscard]] bool attacking(AttackClass c, const net::Node& node) const {
    return compromised(node) && adversary_->attack == c;
  }
  /// Prologue of both delivery paths: the freshness gate, then replay
  /// capture. False drops the frame before any handler runs. The tag
  /// test comes first so an unhardened run pays one compare per frame.
  bool admit(net::Node& node, const net::Frame& frame) {
    if (config_.hardening.epoch_tag != 0 && replay_gate(node, frame)) return false;
    if (adv_ != nullptr) maybe_capture(node, frame);
    return true;
  }
  /// The freshness gate (hardened runs only): true iff it drops this
  /// frame for a stale epoch tag.
  bool replay_gate(net::Node& node, const net::Frame& frame);
  /// kReplay: squirrel away interesting Phase II/III frames.
  void maybe_capture(net::Node& node, const net::Frame& frame);
  /// kReplay: schedule this epoch's injections of past captures.
  void schedule_replays(net::Node& node);
  /// kDisclosure: pool roster/share/digest knowledge into the ledger.
  void observe_roster(net::Node& node);
  void observe_share(net::NodeId sender, const proto::Aggregate& share);
  void observe_digest(net::Node& node, const proto::ClusterDigestMsg& digest);
  /// Hardened digest cross-check (all receivers, incl. foreign heads).
  void crosscheck_digest(net::Node& node, const proto::ClusterDigestMsg& digest);

  /// Protocol randomness: the node's own substream by default. The
  /// service layer injects a per-(node, query) override so each query's
  /// draws are a function of (seed, node, query) alone — independent of
  /// how many other queries share the node's substream — which is what
  /// makes pipelined and serial executions of the same query set
  /// byte-comparable.
  [[nodiscard]] sim::Rng& rng(net::Node& node) {
    return rng_override_ != nullptr ? *rng_override_ : node.rng();
  }
  /// Span tag for phase spans (query id when trace_query_spans is on).
  [[nodiscard]] std::uint64_t span_tag() const {
    return config_.trace_query_spans ? config_.query_id : 0;
  }

  IcpdaConfig config_;
  proto::ReadingProvider readings_;
  const crypto::KeyScheme* keys_;
  const AttackPlan* attack_;
  IcpdaOutcome* outcome_;
  const AdversaryPlan* adversary_ = nullptr;
  AdversaryState* adv_ = nullptr;
  sim::Rng* rng_override_ = nullptr;
  /// digest_crosscheck: head id -> F sum it self-announced on the air.
  std::map<net::NodeId, double> head_f_seen_;

  // Tree state.
  bool joined_ = false;           ///< has a (participating) tree parent
  bool flood_forwarded_ = false;  ///< re-broadcast the query once
  net::NodeId parent_ = net::kNoNode;
  std::uint16_t hop_ = 0;
  bool allowed_aggregator_ = true;
  proto::HelloMsg query_;  ///< the query as first heard (mask checks)
  sim::SimTime join_time_; ///< when we joined the tree

  // Cluster state.
  ClusterRole role_ = ClusterRole::kUndecided;
  /// Distinct neighbours whose query re-broadcast we heard; the
  /// density estimate behind adaptive head election.
  FlatSet<net::NodeId> hello_sources_;
  std::vector<net::NodeId> heard_heads_;
  net::NodeId chosen_head_ = net::kNoNode;
  std::uint32_t join_attempts_ = 0;
  std::vector<net::NodeId> joiners_;  ///< heads: members that joined us
  bool roster_sent_ = false;
  ClusterContext cluster_;
  std::optional<proto::Aggregate> cluster_value_;
  bool clear_report_ = false;  ///< lone head reporting in the clear

  // Phase II state.
  proto::Aggregate my_f_;                     ///< the F this node sent
  std::vector<std::uint32_t> my_f_contributors_;
  bool f_sent_ = false;
  /// Scratch arenas for the share hot path (send_shares/handle_share):
  /// capacity persists across rounds and epochs, so the warm loop cuts,
  /// seals and opens shares without heap allocation. Values never leak
  /// across uses — every consumer overwrites before reading.
  std::vector<proto::Aggregate> share_scratch_;
  std::vector<std::optional<crypto::Key>> link_keys_scratch_;
  crypto::Bytes opened_scratch_;
  /// Shares that arrived before the matching roster (decrypted, keyed
  /// by sender, tagged with their round); replayed into the context
  /// once the roster for that round is installed.
  std::map<net::NodeId, std::pair<std::uint8_t, proto::Aggregate>> early_shares_;
  /// Current Phase II round (0 = normal, 1 = crash recovery).
  std::uint8_t phase2_round_ = 0;
  bool recovery_started_ = false;  ///< heads: one recovery per epoch

  // Phase III state.
  proto::Aggregate pending_;  ///< inputs aggregated so far (heads/BS)
  std::vector<proto::ReportItem> items_;  ///< itemized inputs (heads)
  bool reported_ = false;
  WitnessMonitor monitor_;
  FlatSet<std::pair<net::NodeId, net::NodeId>> alarms_forwarded_;  ///< (witness, accused)

  /// Watchdog expectations on the tree parent: after handing a report
  /// up, the sender waits to overhear either a verbatim forward or an
  /// aggregate claiming the reporter.
  struct Expectation {
    net::NodeId reporter;
    net::Bytes payload;
    bool satisfied = false;       ///< watchdog: no alarm needed
    bool failure_handled = false; ///< retry bookkeeping (one per entry)
    std::uint32_t send_attempts = 1;
  };
  std::vector<Expectation> watchdog_;
  std::uint32_t parent_reports_overheard_ = 0;
  static constexpr std::uint32_t kMaxRehandsPerEpoch = 4;
  std::uint32_t rehands_used_ = 0;

  // Fault-failover state.
  /// Strictly-shallower neighbours heard during the flood (id -> hop):
  /// the candidate pool for Phase III parent failover.
  std::map<net::NodeId, std::uint16_t> backup_parents_;
  std::set<net::NodeId> failed_parents_;
  std::uint32_t reroutes_used_ = 0;
  /// Backup-reporter bookkeeping (first member after the head).
  bool head_report_seen_ = false;
  bool probe_sent_ = false;
  bool probe_failed_ = false;
};

/// Run one iCPDA epoch on `net`; `attack` and `faults` may be empty
/// (honest, fully-live run).
IcpdaOutcome run_icpda_epoch(net::Network& net, const IcpdaConfig& config,
                             const proto::ReadingProvider& readings,
                             const crypto::KeyScheme& keys,
                             const AttackPlan& attack = {},
                             const FaultPlan& faults = {});

/// Active-adversary epoch: faults are scheduled FIRST and the
/// compromised set is resolved against the materialized crash set
/// (crashed-and-compromised resolves to crashed), then apps attach with
/// the adversary layer. `adv` persists across epochs of one scenario —
/// its epoch counter is bumped here — so replay captures and the
/// disclosure coalition's ledger accumulate.
IcpdaOutcome run_icpda_epoch(net::Network& net, const IcpdaConfig& config,
                             const proto::ReadingProvider& readings,
                             const crypto::KeyScheme& keys,
                             const AdversaryPlan& adversary, AdversaryState& adv,
                             const FaultPlan& faults = {});

}  // namespace icpda::core
