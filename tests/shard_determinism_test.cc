// Differential determinism for the sharded conservative-PDES engine
// (DESIGN.md §5j): a run at --shards=S must be observationally
// IDENTICAL to the single-shard reference — same protocol outcome,
// field for field, and the same per-node event history — for every
// scenario class the repository models: benign, crash-faulted, and
// actively adversarial with the hardening on.
//
// What "identical" means here and why:
//   * IcpdaOutcome — byte-for-byte (doubles by bit pattern). This is
//     what campaign rows are built from, so equality here is what
//     makes `icpda_bench --shards=8` reproduce `--shards=1` output.
//   * canonical_trace_digest — per-node event subsequences with seq
//     excluded. The global seq interleaving of same-instant events on
//     DIFFERENT nodes is an engine artifact (single-heap FIFO vs
//     per-shard rings); each node's own history is not, and any
//     protocol-visible divergence (a frame lost here but not there, a
//     backoff drawn differently) shows up in it.
// The classic golden digest (tests/golden/) continues to pin the
// shards=1 stream bit-for-bit, seq included.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_report.h"
#include "core/faults.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "proto/epoch.h"
#include "sim/trace.h"

namespace icpda::core {
namespace {

enum class Scenario { kBenign, kFaulted, kAdversary };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kBenign:
      return "benign";
    case Scenario::kFaulted:
      return "faulted";
    case Scenario::kAdversary:
      return "adversary";
  }
  return "?";
}

/// Every IcpdaOutcome field, doubles by bit pattern, as one string —
/// a new field that is forgotten here still fails the sizeof tripwire
/// in OutcomeFingerprintCoversTheStruct below.
std::string outcome_fingerprint(const IcpdaOutcome& o) {
  std::ostringstream ss;
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  ss << "result=";
  if (o.result) {
    ss << bits(o.result->sum) << ',' << bits(o.result->count) << ','
       << bits(o.result->sum_sq);
  } else {
    ss << "none";
  }
  ss << " closed=" << bits(o.closed_at.seconds())
     << " last_report=" << bits(o.last_report_at.seconds())
     << " alarms=" << o.alarms.size() << " sig=" << o.significant_alarms
     << " drop_susp=" << o.drop_suspicions << " heads=" << o.heads
     << " members=" << o.members << " unclustered=" << o.unclustered
     << " reporters=" << o.reporters << " degraded=" << o.degraded_privacy
     << " cfailed=" << o.clusters_failed << " pollution=" << o.pollution_events
     << " crashed=" << o.nodes_crashed << " reroutes=" << o.reroutes
     << " lost=" << o.values_lost << " coverage=" << bits(o.coverage)
     << " compromised=" << o.compromised_nodes
     << " replay_rej=" << o.replay_rejections
     << " withheld=" << o.withholders_flagged
     << " crosscheck=" << o.crosscheck_alarms
     << " refused=" << o.rosters_refused << " sizes=";
  for (const auto& [size, count] : o.cluster_sizes) {
    ss << size << ':' << count << ';';
  }
  for (const auto& a : o.alarms) {
    ss << " alarm=" << a.query_id << '/' << unsigned{a.kind} << '/' << a.witness
       << '/' << a.accused << '/' << bits(a.expected_sum) << '/'
       << bits(a.observed_sum) << '/' << a.epoch_tag;
  }
  return ss.str();
}

struct RunResult {
  std::string rows;             // outcome fingerprints, one per epoch
  std::uint64_t digest = 0;     // canonical (engine-independent) digest
  std::uint64_t events = 0;     // merged stream length
  std::uint64_t violations = 0; // engine lookahead violations (0 for S=1)
  std::uint64_t executed = 0;   // scheduler events, summed over shards
  std::uint64_t gate_accounted = 0;  // engine gate + parallel events
};

RunResult run_scenario(std::uint32_t nodes, double field_m, std::size_t shards,
                       Scenario scenario) {
  net::NetworkConfig ncfg;
  ncfg.node_count = nodes;
  ncfg.field_width_m = field_m;
  ncfg.field_height_m = field_m;
  ncfg.range_m = 50.0;
  ncfg.seed = 0x601D;
  ncfg.shards = shards;
  net::Network net(ncfg);
  EXPECT_TRUE(net.topology().connected())
      << "pick a field size that keeps the deployment connected";

  net.enable_trace();

  const auto keys = crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x601D)};
  FaultPlan faults;
  if (scenario == Scenario::kFaulted) {
    // Deterministic permanent crashes spread over the epoch phases.
    faults.crash_at_s[3] = 0.4;                // during the query flood
    faults.crash_at_s[nodes / 2] = 2.5;        // during clustering
    faults.crash_at_s[nodes - 2] = 11.0;       // during the report phase
  }
  AdversaryPlan plan;
  AdversaryState st;
  if (scenario == Scenario::kAdversary) {
    plan.attack = AttackClass::kPollution;
    plan.compromised = {3, nodes / 2, nodes - 2};
  }

  RunResult out;
  for (std::uint32_t e = 1; e <= 2; ++e) {
    IcpdaConfig cfg;
    IcpdaOutcome outcome;
    if (scenario == Scenario::kAdversary) {
      cfg.hardening.epoch_tag = e;
      cfg.hardening.digest_crosscheck = true;
      cfg.hardening.attribute_withholders = true;
      outcome = run_icpda_epoch(net, cfg, proto::constant_reading(1.0), keys,
                                plan, st);
    } else {
      outcome = run_icpda_epoch(net, cfg, proto::constant_reading(1.0), keys,
                                {}, faults);
      faults = {};  // permanent crashes only schedule once
    }
    out.rows += outcome_fingerprint(outcome);
    out.rows += '\n';
    // Engine stats reset at every run(): fold in this epoch's share.
    if (const net::ShardEngine* eng = net.shard_engine()) {
      out.gate_accounted +=
          eng->stats().gate_events + eng->stats().parallel_events;
      out.violations += eng->stats().lookahead_violations;
    }
  }
  EXPECT_EQ(net.tracer().dropped(), 0u) << "ring wrap truncates the stream";
  const auto events = net.tracer().merged();
  out.digest = analysis::canonical_trace_digest(events);
  out.events = events.size();
  out.executed = net.executed_events();
  if (net.shard_engine() != nullptr) {
    EXPECT_EQ(net.shard_count(), shards);
  } else {
    out.gate_accounted = out.executed;
  }
  return out;
}

class ShardDeterminismTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, Scenario>> {};

TEST_P(ShardDeterminismTest, AllShardCountsMatchTheReference) {
  const auto [nodes, scenario] = GetParam();
  // Roughly constant density: 30 nodes on a 120 m square, scaled.
  const double field_m = nodes <= 30 ? 120.0 : 310.0;

  const RunResult ref = run_scenario(nodes, field_m, 1, scenario);
  ASSERT_FALSE(ref.rows.empty());
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(std::string(scenario_name(scenario)) + " N=" +
                 std::to_string(nodes) + " shards=" + std::to_string(shards));
    const RunResult got = run_scenario(nodes, field_m, shards, scenario);
    EXPECT_EQ(got.rows, ref.rows);
    EXPECT_EQ(got.events, ref.events);
    EXPECT_EQ(got.digest, ref.digest);
    EXPECT_EQ(got.violations, 0u);
    // Dispatch-count reconciliation, EXACTLY: a gate order that
    // diverges from the single scheduler's snowballs through carrier
    // sense into different event counts (the first sharded engine ran
    // ~8% more events at large N). Every shard and the gate order by
    // one shard-independent key, so sharded runs execute the same
    // number of events as the reference — and the engine's own
    // gate/parallel split must account for every one of them.
    EXPECT_EQ(got.executed, ref.executed);
    EXPECT_EQ(got.gate_accounted, got.executed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ShardDeterminismTest,
    ::testing::Combine(::testing::Values(30u, 200u),
                       ::testing::Values(Scenario::kBenign, Scenario::kFaulted,
                                         Scenario::kAdversary)),
    [](const auto& info) {
      return std::string("N") + std::to_string(std::get<0>(info.param)) + "_" +
             scenario_name(std::get<1>(info.param));
    });

// The outcome fingerprint above must cover the whole struct: if a
// field is added to IcpdaOutcome without extending the fingerprint,
// this static size check goes stale and fails the build review here.
TEST(ShardDeterminismTest, OutcomeFingerprintCoversTheStruct) {
  // Update outcome_fingerprint() FIRST, then this expected size.
  struct Expected {
    std::optional<proto::Aggregate> result;
    sim::SimTime closed_at, last_report_at;
    std::vector<proto::AlarmMsg> alarms;
    std::uint32_t u32[15];
    std::map<std::uint32_t, std::uint32_t> cluster_sizes;
    double coverage;
    std::uint32_t tail[2];
  };
  EXPECT_LE(sizeof(IcpdaOutcome), sizeof(Expected) + 16)
      << "IcpdaOutcome grew: extend outcome_fingerprint() to cover the "
         "new field, then relax this bound";
}

// Network::footprint() is what the footprint probe and its CI gate
// report: every component must be counted, the shard plan only when
// there is one, and the channel's pools at their high-water mark.
TEST(NetworkFootprintTest, CountsEveryComponentAndThePlanOnlyWhenSharded) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    net::NetworkConfig ncfg;
    ncfg.node_count = 200;
    ncfg.field_width_m = 310.0;
    ncfg.field_height_m = 310.0;
    ncfg.seed = 0x601D;
    ncfg.shards = shards;
    net::Network net(ncfg);
    const net::Network::Footprint before = net.footprint();
    const crypto::MasterPairwiseScheme keys(crypto::Key::from_seed(0x7357));
    run_icpda_epoch(net, IcpdaConfig{}, proto::constant_reading(1.0), keys);
    const net::Network::Footprint after = net.footprint();
    EXPECT_GT(after.topology, 0u);
    EXPECT_GT(after.schedulers, 0u);
    EXPECT_GT(after.macs, 0u);
    EXPECT_GT(after.metrics, 0u);
    EXPECT_GT(after.objects, 0u);
    EXPECT_GT(after.channel, before.channel);  // in-flight frame pools filled
    EXPECT_EQ(after.plan > 0, shards > 1);
  }
}

}  // namespace
}  // namespace icpda::core
