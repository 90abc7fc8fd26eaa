// Continuous-query service: pipelined-epoch determinism, admission
// control, deadline accounting and mux routing.
//
// The load-bearing case is PipelinedMatchesSerialExactly: the same
// query set run overlapped (max_in_flight=4) and fully serialized
// (max_in_flight=1) must produce byte-identical per-query result
// triples. The test network uses pc=1.0 (every sensor a lone cluster
// head reporting its reading in the clear) with integer readings, so
// every per-query answer is an exact integer sum — merge order,
// clustering and MAC interleaving provably cannot move it, and any
// cross-query state leak in the mux shows up as a changed triple or a
// lost reading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "crypto/keyring.h"
#include "net/network.h"
#include "proto/messages.h"
#include "service/dispatcher.h"
#include "sim/trace.h"

namespace icpda {
namespace {

crypto::MasterPairwiseScheme master_keys() {
  return crypto::MasterPairwiseScheme{crypto::Key::from_seed(0xFEEDFACE)};
}

/// Small, dense, fully-connected deployment: 16 nodes in a 120 m
/// square with 80 m range — everyone hears everyone, coverage is 1.0
/// in benign runs.
net::NetworkConfig dense_network(std::uint64_t seed) {
  net::NetworkConfig cfg;
  cfg.node_count = 16;
  cfg.field_width_m = 120.0;
  cfg.field_height_m = 120.0;
  cfg.range_m = 80.0;
  cfg.seed = seed;
  return cfg;
}

double integer_reading(std::uint32_t id) { return static_cast<double>(id); }

/// Service config whose per-query epochs are exact: every node a lone
/// head (pc = 1), readings integers, so result triples are integer
/// sums no interleaving can perturb.
service::ServiceConfig exact_service(std::uint32_t max_in_flight) {
  service::ServiceConfig cfg;
  cfg.protocol.pc = 1.0;
  cfg.offered_load_qps = 0.5;  // nominal epoch ~6.6 s: heavy overlap
  cfg.query_count = 4;
  cfg.max_in_flight = max_in_flight;
  cfg.deadline_s = 500.0;  // serial run queues instead of dropping
  cfg.seed = 0x5EA50E7;
  return cfg;
}

TEST(ServiceTest, PipelinedMatchesSerialExactly) {
  const auto keys = master_keys();

  net::Network pipelined_net(dense_network(11));
  ASSERT_TRUE(pipelined_net.topology().connected());
  service::Dispatcher pipelined(pipelined_net, exact_service(4), &keys,
                                integer_reading);
  pipelined.run();

  net::Network serial_net(dense_network(11));
  service::Dispatcher serial(serial_net, exact_service(1), &keys,
                             integer_reading);
  serial.run();

  const auto& pr = pipelined.records();
  const auto& sr = serial.records();
  ASSERT_EQ(pr.size(), 4u);
  ASSERT_EQ(sr.size(), 4u);

  // Exact ground truth over sensors 1..15: count 15, sum 120, sum_sq 1240.
  const double n = 15.0, sum = 120.0, sum_sq = 1240.0;
  for (std::size_t i = 0; i < pr.size(); ++i) {
    SCOPED_TRACE(pr[i].id);
    ASSERT_EQ(pr[i].status, service::QueryStatus::kCompleted);
    ASSERT_EQ(sr[i].status, service::QueryStatus::kCompleted);
    ASSERT_TRUE(pr[i].outcome.result.has_value());
    ASSERT_TRUE(sr[i].outcome.result.has_value());
    // Identical per-query results, pipelined vs serial — bitwise.
    EXPECT_EQ(pr[i].outcome.result->count, sr[i].outcome.result->count);
    EXPECT_EQ(pr[i].outcome.result->sum, sr[i].outcome.result->sum);
    EXPECT_EQ(pr[i].outcome.result->sum_sq, sr[i].outcome.result->sum_sq);
    EXPECT_EQ(pr[i].value, sr[i].value);
    EXPECT_TRUE(pr[i].accepted);
    EXPECT_TRUE(sr[i].accepted);
    // And both equal the exact answer (full coverage).
    EXPECT_EQ(pr[i].outcome.result->count, n);
    EXPECT_EQ(pr[i].outcome.result->sum, sum);
    EXPECT_EQ(pr[i].outcome.result->sum_sq, sum_sq);
    EXPECT_EQ(pr[i].coverage, 1.0);
    EXPECT_EQ(pr[i].abs_error, 0.0);
  }

  // The pipelined run must actually pipeline: some query launches while
  // an earlier one is still open.
  bool overlapped = false;
  for (std::size_t i = 1; i < pr.size(); ++i) {
    if (pr[i].launched < pr[i - 1].closed) overlapped = true;
  }
  EXPECT_TRUE(overlapped);

  // The serial run never overlaps epochs.
  for (std::size_t i = 1; i < sr.size(); ++i) {
    EXPECT_GE(sr[i].launched.seconds(), sr[i - 1].closed.seconds());
  }

  // Queueing shows up as latency: the serialized tail waits longer.
  EXPECT_GT(service::latency_percentile(sr, 99.0),
            service::latency_percentile(pr, 99.0));
}

TEST(ServiceTest, PipelinedAlgebraRemainsAccurateUnderOverlap) {
  // Full CPDA share algebra (default pc) with two heavily overlapping
  // queries: the interpolation error stays numerical-noise-sized and
  // both epochs are accepted — no cross-query interference in Phase II.
  const auto keys = master_keys();
  net::Network network(dense_network(23));
  ASSERT_TRUE(network.topology().connected());

  service::ServiceConfig cfg;
  cfg.offered_load_qps = 0.5;
  cfg.query_count = 2;
  cfg.max_in_flight = 2;
  cfg.deadline_s = 100.0;
  cfg.seed = 0xACC;
  cfg.kind_cycle = {service::AggregateKind::kSum};
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);
  dispatcher.run();

  ASSERT_EQ(dispatcher.completed(), 2u);
  for (const auto& r : dispatcher.records()) {
    SCOPED_TRACE(r.id);
    EXPECT_TRUE(r.accepted);
    // The count rides through the share algebra too, so full coverage
    // is exact only up to interpolation noise.
    EXPECT_NEAR(r.coverage, 1.0, 1e-9);
    EXPECT_NEAR(r.value, 120.0, 1e-6);  // sum of 1..15, algebra tolerance
  }
}

TEST(ServiceTest, DeadlineDropsAndQueueRejectionsAreAccounted) {
  const auto keys = master_keys();
  net::Network network(dense_network(5));

  // Offered load ~13x the service rate with one slot and a 2-deep
  // queue: the backlog grows, queue waits blow the deadline, and late
  // arrivals find the queue full.
  service::ServiceConfig cfg;
  cfg.protocol.pc = 1.0;
  cfg.offered_load_qps = 2.0;
  cfg.query_count = 12;
  cfg.max_in_flight = 1;
  cfg.max_queue = 2;
  cfg.deadline_s = 12.0;  // < 2 epochs of queue wait
  cfg.seed = 0xD0D0;
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);
  dispatcher.run();

  const auto& records = dispatcher.records();
  ASSERT_EQ(records.size(), 12u);
  EXPECT_EQ(dispatcher.completed() + dispatcher.dropped() + dispatcher.rejected(),
            12u);
  EXPECT_GT(dispatcher.completed(), 0u);
  EXPECT_GT(dispatcher.dropped(), 0u);
  EXPECT_GT(dispatcher.rejected(), 0u);

  for (const auto& r : records) {
    SCOPED_TRACE(r.id);
    switch (r.status) {
      case service::QueryStatus::kCompleted:
        // A completed query met its deadline (drop-at-launch policy).
        EXPECT_LE(r.latency_s, cfg.deadline_s + 1e-9);
        EXPECT_TRUE(r.accepted);
        break;
      case service::QueryStatus::kDroppedDeadline:
      case service::QueryStatus::kRejectedQueue:
        // Never launched: no epoch, no result.
        EXPECT_EQ(r.launched.seconds(), 0.0);
        EXPECT_FALSE(r.outcome.result.has_value());
        break;
    }
  }
}

TEST(ServiceTest, AdmissionCapBoundsConcurrency) {
  const auto keys = master_keys();
  net::Network network(dense_network(31));

  service::ServiceConfig cfg;
  cfg.protocol.pc = 1.0;
  cfg.offered_load_qps = 1.0;
  cfg.query_count = 8;
  cfg.max_in_flight = 2;
  cfg.deadline_s = 500.0;
  cfg.seed = 0xCAFE;
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);
  dispatcher.run();
  ASSERT_EQ(dispatcher.completed(), 8u);

  // Sweep launch/close events: concurrency never exceeds the cap.
  std::vector<std::pair<double, int>> events;
  for (const auto& r : dispatcher.records()) {
    events.emplace_back(r.launched.seconds(), +1);
    events.emplace_back(r.closed.seconds(), -1);
  }
  std::sort(events.begin(), events.end());
  int active = 0, peak = 0;
  for (const auto& [t, d] : events) {
    active += d;
    peak = std::max(peak, active);
  }
  EXPECT_LE(peak, 2);
  EXPECT_EQ(peak, 2);  // the load is high enough to fill both slots
}

TEST(ServiceTest, AvgAndVarFinishersMatchGroundTruth) {
  // Kind cycle SUM/AVG/VAR over exact epochs: each finisher applied to
  // a full-coverage integer triple reproduces the exact answer.
  const auto keys = master_keys();
  net::Network network(dense_network(47));

  service::ServiceConfig cfg;
  cfg.protocol.pc = 1.0;
  cfg.offered_load_qps = 0.2;
  cfg.query_count = 3;
  cfg.max_in_flight = 2;
  cfg.deadline_s = 500.0;
  cfg.seed = 0xF1;
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);
  dispatcher.run();
  ASSERT_EQ(dispatcher.completed(), 3u);

  const double n = 15.0, sum = 120.0, sum_sq = 1240.0;
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  const auto& r = dispatcher.records();
  EXPECT_EQ(r[0].kind, service::AggregateKind::kSum);
  EXPECT_EQ(r[0].value, sum);
  EXPECT_EQ(r[1].kind, service::AggregateKind::kAvg);
  EXPECT_EQ(r[1].value, mean);
  EXPECT_EQ(r[2].kind, service::AggregateKind::kVar);
  EXPECT_NEAR(r[2].value, var, 1e-12);
  for (const auto& rec : r) EXPECT_EQ(rec.abs_error, 0.0);
}

TEST(ServiceTest, NameHelpersCoverEveryEnumerator) {
  EXPECT_STREQ(service::aggregate_kind_name(service::AggregateKind::kSum), "sum");
  EXPECT_STREQ(service::aggregate_kind_name(service::AggregateKind::kAvg), "avg");
  EXPECT_STREQ(service::aggregate_kind_name(service::AggregateKind::kVar), "var");
  EXPECT_STREQ(service::query_status_name(service::QueryStatus::kCompleted),
               "completed");
  EXPECT_STREQ(service::query_status_name(service::QueryStatus::kDroppedDeadline),
               "dropped_deadline");
  EXPECT_STREQ(service::query_status_name(service::QueryStatus::kRejectedQueue),
               "rejected_queue");
}

TEST(ServiceTest, MuxDropsUnknownAndRetiredQueries) {
  const auto keys = master_keys();
  net::Network network(dense_network(3));

  service::ServiceState state;
  state.readings = integer_reading;
  state.keys = &keys;
  state.seed = 7;
  service::QueryMux mux(&state);

  auto& node = network.node(1);
  proto::HelloMsg hello;
  hello.query_id = 99;  // never registered
  net::Frame frame;
  frame.src = 0;
  frame.type = proto::kHello;
  frame.payload = hello.to_bytes();
  mux.on_receive(node, frame);
  EXPECT_EQ(mux.instance_count(), 0u);
  EXPECT_EQ(network.metrics().counter("service.frame_unknown_query"), 1u);

  // Registered but retired: dropped before any instance is created.
  auto& q = state.queries[99];
  q.config.query_id = 99;
  q.active = false;
  mux.on_receive(node, frame);
  EXPECT_EQ(mux.instance_count(), 0u);
  EXPECT_EQ(network.metrics().counter("service.frame_retired_query"), 1u);

  // Activated: the frame now builds the per-query instance and routes.
  q.active = true;
  mux.on_receive(node, frame);
  EXPECT_EQ(mux.instance_count(), 1u);
  ASSERT_NE(mux.instance_for(99), nullptr);
  EXPECT_TRUE(mux.instance_for(99)->joined_tree());

  // Truncated payload (no QueryId prefix): dropped, never routed.
  net::Frame junk;
  junk.src = 0;
  junk.type = proto::kHello;
  junk.payload = {0x01, 0x02};
  mux.on_receive(node, junk);
  EXPECT_EQ(network.metrics().counter("service.frame_unreadable"), 1u);
  EXPECT_EQ(mux.instance_count(), 1u);
}

TEST(ServiceTest, QuerySpansAndLifecycleCountersAppearInTrace) {
  const auto keys = master_keys();
  net::Network network(dense_network(11));
  network.enable_trace();

  auto cfg = exact_service(4);
  cfg.protocol.trace_query_spans = true;
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);
  dispatcher.run();
  ASSERT_EQ(dispatcher.completed(), 4u);

  std::set<std::uint64_t> launched, completed, span_tags;
  for (const auto& ev : network.tracer().merged()) {
    if (ev.kind == sim::TraceEvent::Kind::kCounter) {
      const auto c = static_cast<sim::TraceCounter>(ev.tag);
      if (c == sim::TraceCounter::kQueryLaunch) launched.insert(ev.value);
      if (c == sim::TraceCounter::kQueryComplete) completed.insert(ev.value);
    }
    if (ev.kind == sim::TraceEvent::Kind::kBegin && ev.value != 0 &&
        ev.node != sim::kTraceGlobalNode) {
      span_tags.insert(ev.value);  // phase span tagged with its query id
    }
  }
  const std::set<std::uint64_t> all{1, 2, 3, 4};
  EXPECT_EQ(launched, all);
  EXPECT_EQ(completed, all);
  // Tagged phase spans are best-effort (switch_phase no-ops when two
  // overlapping queries put a node in the same phase, DESIGN.md §5h),
  // so we require attribution to exist, not to be exhaustive: only
  // known query ids appear, and more than one query is attributable.
  EXPECT_FALSE(span_tags.empty());
  EXPECT_GT(span_tags.size(), 1u);
  for (const auto tag : span_tags) EXPECT_TRUE(all.count(tag)) << tag;
}

}  // namespace
}  // namespace icpda
