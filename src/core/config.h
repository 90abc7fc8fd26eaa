// Configuration knobs of the iCPDA protocol and its attack plans.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "net/topology.h"
#include "net/wire.h"
#include "proto/epoch.h"

namespace icpda::core {

/// What a cluster head does when its cluster ends up smaller than the
/// minimum size the share algebra needs for privacy (3).
enum class SmallClusterPolicy : std::uint8_t {
  /// Report the members' values in the clear (no privacy for them,
  /// full accuracy). Degraded nodes are counted in the outcome.
  kClearReport,
  /// Suppress the cluster's contribution entirely (full privacy,
  /// data loss).
  kDrop,
};

struct IcpdaConfig {
  std::uint32_t query_id = 1;
  proto::TreeTiming timing;

  /// Stamp query_id as the span tag (TraceEvent::value of begin events)
  /// on every protocol phase span, so overlapping queries' latency
  /// decomposes per query in the trace. Off by default: single-query
  /// runs keep the tag at 0 and their golden digests unchanged.
  bool trace_query_spans = false;

  /// Cluster-head self-election probability on hearing the query.
  double pc = 0.3;

  /// Density-adaptive election (the family's iPDA rule p = k/N_heard,
  /// transplanted to cluster-head election): instead of the fixed pc,
  /// a node elects with probability min(1, adapt_k / hellos_heard), so
  /// the number of heads per radio neighbourhood stays ~adapt_k
  /// regardless of density. Off by default (the ICDCS paper uses a
  /// fixed pc); bench_adaptive_pc measures the difference.
  bool adaptive_pc = false;
  double adapt_k = 2.0;

  /// Minimum cluster size for the share algebra (m >= 3 keeps any
  /// single member from solving for a peer's value).
  std::uint32_t min_cluster_size = 3;
  SmallClusterPolicy small_cluster_policy = SmallClusterPolicy::kClearReport;
  /// Heads cap their roster at this size: the intra-cluster exchange is
  /// O(m^2) frames through one radio, so unbounded clusters in dense
  /// neighbourhoods collapse Phase II. Excess joiners re-join another
  /// head (see rejoin_attempts).
  std::uint32_t max_cluster_size = 8;
  /// How many times a member whose join was rejected/lost tries a
  /// different head before giving up as unclustered.
  std::uint32_t rejoin_attempts = 2;

  // -- Phase I timing (offsets from a node hearing the query) --------
  /// Non-heads wait this long collecting ClusterHello before joining.
  double join_delay_s = 0.10;
  /// A node that heard no ClusterHello retries its role decision every
  /// join_delay_s, self-electing with pc each round; after this many
  /// rounds it becomes a head unconditionally (so isolated nodes still
  /// report, as lone heads, under the small-cluster policy).
  std::uint32_t max_join_rounds = 4;
  /// Jitter window for sending the join (desynchronises the join wave).
  double join_jitter_s = 0.05;
  /// Heads close their roster this long after announcing.
  double roster_delay_s = 0.30;
  /// Roster broadcasts have no ARQ; repeat them this many times.
  std::uint32_t roster_repeats = 2;
  /// Members give up waiting for their head's roster after this long
  /// (measured from sending the join).
  double roster_timeout_s = 0.70;

  // -- Phase II timing (offsets from a member receiving the roster) --
  // A cluster of size m exchanges ~m^2 share frames, all serialized
  // through the head's radio (member-to-member shares relay via the
  // head), so the deadlines scale with m: every member knows m from
  // the roster.
  /// Base jitter window for sending the encrypted shares.
  double share_jitter_s = 0.10;
  /// Base delay until each member unicasts its assembled F value.
  double assemble_delay_s = 0.50;
  /// Jitter window on the F unicast.
  double f_jitter_s = 0.12;
  /// How many times the head repeats the digest broadcast (no ARQ).
  std::uint32_t f_repeats = 2;
  /// Base delay until the head solves and broadcasts the digest.
  double solve_delay_s = 0.95;
  /// Added to the share window (x0.6), assemble and solve deadlines
  /// per roster member.
  double per_member_slack_s = 0.08;

  [[nodiscard]] double share_window_s(std::size_t m) const {
    return share_jitter_s + 0.6 * per_member_slack_s * static_cast<double>(m);
  }
  [[nodiscard]] double assemble_at_s(std::size_t m) const {
    return assemble_delay_s + per_member_slack_s * static_cast<double>(m);
  }
  [[nodiscard]] double solve_at_s(std::size_t m) const {
    return solve_delay_s + per_member_slack_s * static_cast<double>(m);
  }

  /// Extra head-start added before the tree report slots so Phase II
  /// completes below every report (added to TreeTiming::report_delay).
  /// Must cover max_join_rounds * join_delay + roster_delay +
  /// solve_delay plus jitters.
  double phase2_budget_s = 4.0;

  /// Bound on the uniform random polynomial coefficients.
  double coeff_scale = 1000.0;

  // -- Phase III: witness auditing ------------------------------------
  /// Numeric tolerance when a witness compares the head's outgoing sum
  /// with its own reconstruction (floating-point slack only; losses
  /// are handled by claim matching, not by this threshold).
  double witness_tolerance = 1e-6;
  /// Inputs overheard within this window before the head's report are
  /// exempt from omission alarms: the head builds the report payload at
  /// its slot but the frame airs only after MAC queueing/backoff (up to
  /// ~0.4 s under contention), so inputs landing in between were
  /// legitimately missed — the head forwards them verbatim instead, and
  /// the child's watchdog covers genuine drops in this window.
  double omission_guard_s = 0.6;

  /// Watchdog: after sending/forwarding a report to a (non-BS) parent,
  /// the sender overhears the medium and expects the parent either to
  /// forward the payload verbatim (relays) or to claim the reporter in
  /// its own aggregate (heads) within this window; otherwise it alarms.
  double watchdog_timeout_s = 1.0;

  /// Base-station acceptance threshold on |alarm.expected - observed|;
  /// alarms with deviation below Th are ignored (loss tolerance).
  double th = 0.5;

  // -- Fault tolerance (crash/outage degradation) ---------------------
  // A head whose solve deadline passes with F values missing or
  // inconsistent re-fixes the roster to the members whose F arrived and
  // reruns the share exchange once at the reduced degree (Phase II
  // recovery); the member digest deadline covers that second round.
  /// Grace past the (recovery-extended) solve deadline before a member
  /// that never received a digest writes its cluster off and marks
  /// itself unclustered instead of witnessing for a dead head.
  double digest_grace_s = 0.4;
  [[nodiscard]] double digest_deadline_s(std::size_t m) const {
    return solve_at_s(m) * 2.0 + digest_grace_s;
  }
  /// Phase III failover: a reporter whose parent exhausts MAC retries
  /// (or stays watchdog-silent) adopts a backup parent — the best
  /// strictly-shallower neighbour heard during the flood — and
  /// re-dispatches after a short backoff, at most this many parent
  /// switches per node per epoch.
  std::uint32_t reroute_attempts = 2;
  /// Base backoff before re-dispatching through the new parent.
  double reroute_backoff_s = 0.15;
  /// Head failover: the first roster member after the head re-issues
  /// the endorsed cluster sum (under the head's reporter id, so the BS
  /// dedupes) when the head dies between digest and report. The backup
  /// first probes the head with a unicast; only a probe the MAC gives
  /// up on (no ACK from the head) triggers the takeover. The probe goes
  /// this long before the last report slot (covers a full MAC
  /// retry ladder so the verdict is in by the backup's slot).
  double backup_probe_lead_s = 0.9;
  /// The backup's own slot sits this far past the last regular slot.
  double backup_slot_slack_s = 0.12;

  /// Optional aggregator-eligibility bitset carried in the query flood
  /// (bit per node id). Empty = every node may head/aggregate. The
  /// bisection localizer narrows this set round by round.
  net::Bytes allowed_mask;

  /// Active-adversary countermeasures (see core/adversary.h). ALL off
  /// by default: with the defaults the protocol's behaviour — and its
  /// wire bytes — are identical to the unhardened build (golden trace).
  struct HardeningConfig {
    /// Epoch-freshness tag stamped into every Phase II/III frame
    /// (0 = off). Receivers drop gated frame types whose trailer
    /// mismatches, so frames captured in earlier epochs are rejected
    /// at the first hop. The epoch driver bumps this every epoch.
    std::uint32_t epoch_tag = 0;
    /// Heads broadcast their own F announcement on the air before the
    /// digest; every listener (members AND adjacent heads) cross-checks
    /// it against the entry the head later publishes for itself —
    /// catching a head that forges its own digest slot (the one slot
    /// no member endorses) even when all its members collude.
    bool digest_crosscheck = false;
    /// Phase II recovery flags members that announced an F (proved
    /// alive, unicast path working) yet appear in NOBODY else's
    /// contributor list — shares withheld, not lost — and excludes
    /// them from the recovery roster instead of re-admitting the
    /// starver. Requires >= 3 announcers so genuine loss cannot be
    /// misattributed.
    bool attribute_withholders = false;
    /// Members refuse rosters smaller than this many nodes (0 = off):
    /// a disclosure coalition engineers tiny rosters to isolate one
    /// honest victim, so honest members walk away and re-join rather
    /// than accept an anonymity set below the floor.
    std::uint32_t min_honest_anonymity = 0;
  };
  HardeningConfig hardening;
};

/// Data-pollution attack plan: `polluters` tamper with the aggregate
/// they forward in Phase III by adding `delta` to the sum component.
struct AttackPlan {
  std::unordered_set<net::NodeId> polluters;
  double delta = 0.0;
  /// Attackers maximise their aggregation role: a polluter always
  /// self-elects as cluster head instead of drawing pc (a compromised
  /// node is not bound by the honest protocol's coin flips).
  bool force_head = true;

  [[nodiscard]] bool is_polluter(net::NodeId id) const {
    return polluters.contains(id);
  }
  [[nodiscard]] bool active() const { return !polluters.empty() && delta != 0.0; }
};

}  // namespace icpda::core
