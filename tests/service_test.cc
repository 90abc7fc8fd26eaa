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
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
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
  // queries (a SUM, then an AVG): the interpolation error stays
  // numerical-noise-sized and both epochs are accepted — no
  // cross-query interference in Phase II.
  const auto keys = master_keys();
  net::Network network(dense_network(23));
  ASSERT_TRUE(network.topology().connected());

  service::ServiceConfig cfg;
  cfg.offered_load_qps = 0.5;
  cfg.query_count = 2;
  cfg.max_in_flight = 2;
  cfg.deadline_s = 100.0;
  cfg.seed = 0xACC;
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);
  dispatcher.run();

  ASSERT_EQ(dispatcher.completed(), 2u);
  for (const auto& r : dispatcher.records()) {
    SCOPED_TRACE(r.id);
    EXPECT_TRUE(r.accepted);
    // The count rides through the share algebra too, so full coverage
    // is exact only up to interpolation noise.
    EXPECT_NEAR(r.coverage, 1.0, 1e-9);
    // Readings 1..15: count 15, sum 120, sum of squares 1240. Each
    // record meets its own kind's finisher up to algebra tolerance.
    const proto::Aggregate exact{15.0, 120.0, 1240.0};
    EXPECT_NEAR(r.value, service::finish_aggregate(r.kind, exact), 1e-6);
    EXPECT_NEAR(r.abs_error, 0.0, 1e-6);
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
      case service::QueryStatus::kPending:
      case service::QueryStatus::kRunning:
        ADD_FAILURE() << "unresolved after the run: " << service::query_status_name(r.status);
        break;
    }
  }
}

TEST(ServiceTest, OnlyResolvedQueriesAreCounted) {
  // Every record exists from the start of the run, pending; completed(),
  // dropped() and rejected() count a query only once it is resolved.
  const auto keys = master_keys();
  net::Network network(dense_network(5));
  service::ServiceConfig cfg;
  cfg.protocol.pc = 1.0;
  cfg.offered_load_qps = 2.0;
  cfg.query_count = 12;
  cfg.max_in_flight = 1;
  cfg.max_queue = 2;
  cfg.deadline_s = 12.0;
  cfg.seed = 0xD0D0;
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);

  std::vector<std::uint32_t> unresolved_at;  // at t = 0 s, then 8 s
  for (const double t : {0.0, 8.0}) {
    network.scheduler().at(sim::seconds(t), [&] {
      std::uint32_t unresolved = 0;
      for (const auto& r : dispatcher.records()) {
        unresolved += r.status == service::QueryStatus::kPending ||
                      r.status == service::QueryStatus::kRunning;
      }
      EXPECT_EQ(dispatcher.completed() + dispatcher.dropped() + dispatcher.rejected() +
                    unresolved,
                cfg.query_count);
      unresolved_at.push_back(unresolved);
    });
  }
  dispatcher.run();
  ASSERT_EQ(unresolved_at.size(), 2u);
  EXPECT_EQ(unresolved_at[0], cfg.query_count);
  EXPECT_GT(unresolved_at[1], 0u);
  EXPECT_LT(unresolved_at[1], cfg.query_count);
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
  EXPECT_STREQ(service::query_status_name(service::QueryStatus::kPending), "pending");
  EXPECT_STREQ(service::query_status_name(service::QueryStatus::kRunning), "running");
}

TEST(ServiceTest, MuxDropsUnknownAndRetiredQueries) {
  const auto keys = master_keys();
  net::Network network(dense_network(3));

  service::ServiceState state;
  state.records.resize(2);
  state.readings = integer_reading;
  state.keys = &keys;
  state.seed = 7;
  service::QueryMux mux(&state);

  // Query 2 has not launched yet: unknown to the mux.
  auto& node = network.node(1);
  proto::HelloMsg hello;
  hello.query_id = 2;
  net::Frame frame;
  frame.src = 0;
  frame.type = proto::kHello;
  frame.payload = hello.to_bytes();
  mux.on_receive(node, frame);
  EXPECT_EQ(mux.instance_count(), 0u);
  EXPECT_EQ(network.metrics().counter("service.frame_unknown_query"), 1u);

  // Completed (retired): dropped before any instance is created.
  auto& q = state.records[1];
  q.status = service::QueryStatus::kCompleted;
  mux.on_receive(node, frame);
  EXPECT_EQ(mux.instance_count(), 0u);
  EXPECT_EQ(network.metrics().counter("service.frame_retired_query"), 1u);

  // Running: the frame now builds the per-query instance and routes.
  q.status = service::QueryStatus::kRunning;
  mux.on_receive(node, frame);
  EXPECT_EQ(mux.instance_count(), 1u);
  ASSERT_NE(mux.instance_for(2), nullptr);
  EXPECT_TRUE(mux.instance_for(2)->joined_tree());

  // Truncated payload (no QueryId prefix): dropped, never routed.
  net::Frame junk;
  junk.src = 0;
  junk.type = proto::kHello;
  junk.payload = {0x01, 0x02};
  mux.on_receive(node, junk);
  EXPECT_EQ(network.metrics().counter("service.frame_unreadable"), 1u);
  EXPECT_EQ(mux.instance_count(), 1u);
}

TEST(ServiceTest, MuxCountsOutOfRangeQueryIdsAsUnknown) {
  // The id is peeked off the wire, so it must be range-checked before
  // it indexes a record. Both records are running: a missing check
  // would read one past the end (ASan reports it) or far beyond it.
  const auto keys = master_keys();
  net::Network network(dense_network(3));

  service::ServiceState state;
  state.records = std::vector<service::CompletionRecord>(2);
  for (auto& r : state.records) r.status = service::QueryStatus::kRunning;
  state.readings = integer_reading;
  state.keys = &keys;
  state.seed = 7;
  service::QueryMux mux(&state);

  for (const std::uint32_t id : {3u, 0xFFFFFFFFu}) {
    EXPECT_EQ(state.record(id), nullptr) << id;
    proto::HelloMsg hello;
    hello.query_id = id;
    net::Frame frame;
    frame.src = 0;
    frame.type = proto::kHello;
    frame.payload = hello.to_bytes();
    mux.on_receive(network.node(1), frame);
  }
  EXPECT_EQ(mux.instance_count(), 0u);
  EXPECT_EQ(network.metrics().counter("service.frame_unknown_query"), 2u);
  EXPECT_EQ(network.metrics().counter("service.frame_retired_query"), 0u);
}

/// Query `id` set running in `state` (whose records must already
/// cover it), and the base station's hop-0 query flood for it:
/// delivered to a sensor, it builds the query's instance there and
/// joins it to the tree, which arms its Phase III report timer.
net::Frame activate(service::ServiceState& state, std::uint32_t id) {
  state.records[id - 1].status = service::QueryStatus::kRunning;
  proto::HelloMsg hello;
  hello.query_id = id;
  net::Frame frame;
  frame.src = 0;
  frame.type = proto::kHello;
  frame.payload = hello.to_bytes();
  return frame;
}

TEST(ServiceTest, RetiredInstanceOutlivesItsPendingTimers) {
  const auto keys = master_keys();
  net::Network network(dense_network(3));

  service::ServiceState state;
  state.records.resize(3);
  state.readings = integer_reading;
  state.keys = &keys;
  state.seed = 7;
  service::QueryMux mux(&state);
  auto& node = network.node(1);

  mux.on_receive(node, activate(state, 1));
  const core::IcpdaApp* a = mux.instance_for(1);
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->joined_tree());
  ASSERT_GT(a->timers_pending(), 0u);

  // A retires with timers queued: creating B's instance must keep it,
  // or those timers would fire into freed memory.
  state.records[0].status = service::QueryStatus::kCompleted;
  mux.on_receive(node, activate(state, 2));
  ASSERT_EQ(mux.instance_for(1), a);
  EXPECT_EQ(mux.live_instances(), 2u);

  // Past A's last timer it is reclaimable, and the next creation frees
  // it. B is still active, so it stays whatever its timers.
  network.scheduler().run();
  EXPECT_EQ(a->timers_pending(), 0u);
  EXPECT_EQ(mux.instance_for(1), a);
  mux.on_receive(node, activate(state, 3));
  EXPECT_EQ(mux.instance_for(1), nullptr);
  EXPECT_NE(mux.instance_for(2), nullptr);
  EXPECT_NE(mux.instance_for(3), nullptr);
  EXPECT_EQ(mux.live_instances(), 2u);
  EXPECT_EQ(mux.instance_count(), 3u);
}

/// Owns a sensor's mux and forwards every upcall to it, as a tracing
/// wrapper does; `after` (if set) runs after each upcall.
class WrappedMux final : public net::App {
 public:
  using Hook = std::function<void(net::Node&, service::QueryMux&)>;
  WrappedMux(std::unique_ptr<service::QueryMux> mux, Hook after)
      : mux_(std::move(mux)), after_(std::move(after)) {}

  void start(net::Node& node) override {
    mux_->start(node);
    done(node);
  }
  void on_receive(net::Node& node, const net::Frame& frame) override {
    mux_->on_receive(node, frame);
    done(node);
  }
  void on_overhear(net::Node& node, const net::Frame& frame) override {
    mux_->on_overhear(node, frame);
    done(node);
  }
  void on_send_failed(net::Node& node, const net::Frame& frame) override {
    mux_->on_send_failed(node, frame);
    done(node);
  }

 private:
  void done(net::Node& node) {
    if (after_) after_(node, *mux_);
  }
  std::unique_ptr<service::QueryMux> mux_;
  Hook after_;
};

/// Re-attach every sensor's app at t = 0, before any query arrives:
/// a fresh mux, inside a WrappedMux running `after` when `wrap` is
/// set. Fresh muxes go to `muxes` if given. The Dispatcher addresses
/// the base station's mux directly, so that one stays as attached. The
/// bare and wrapped variants schedule the same one event, so their
/// runs compare event for event.
void rewrap_sensors(net::Network& network, service::Dispatcher& dispatcher,
                    const WrappedMux::Hook& after, bool wrap,
                    std::vector<service::QueryMux*>* muxes = nullptr) {
  network.scheduler().at(sim::SimTime::zero(), [&network, &dispatcher, after, wrap, muxes] {
    for (net::NodeId id = 1; id < network.size(); ++id) {
      auto mux = std::make_unique<service::QueryMux>(&dispatcher.state());
      if (muxes != nullptr) muxes->push_back(mux.get());
      if (wrap) {
        network.node(id).attach_app(std::make_unique<WrappedMux>(std::move(mux), after));
      } else {
        network.node(id).attach_app(std::move(mux));
      }
    }
  });
}

struct InstancePeaks {
  std::size_t live = 0;     ///< most instances any sensor held
  std::size_t created = 0;  ///< fewest instances any sensor created
};

/// A service run at 4 slots whose sensors check, right after every
/// instance creation, that they hold at most `max_in_flight` instances
/// beyond the retired ones still waiting on a timer.
InstancePeaks run_counting_instances(std::uint32_t query_count) {
  const auto keys = master_keys();
  net::Network network(dense_network(19));
  service::ServiceConfig cfg;
  cfg.offered_load_qps = 0.3;
  cfg.query_count = query_count;
  cfg.max_in_flight = 4;
  cfg.deadline_s = 60.0;
  cfg.seed = 0xB0B;
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);

  InstancePeaks peaks;
  std::vector<std::size_t> seen(network.size(), 0);
  const auto check = [&](net::Node& node, service::QueryMux& mux) {
    if (mux.instance_count() == seen[node.id()]) return;
    seen[node.id()] = mux.instance_count();
    std::size_t waiting = 0;
    for (std::uint32_t q = 1; q <= query_count; ++q) {
      const core::IcpdaApp* app = mux.instance_for(q);
      const bool running = dispatcher.records()[q - 1].status == service::QueryStatus::kRunning;
      if (app != nullptr && !running && app->timers_pending() > 0) ++waiting;
    }
    EXPECT_LE(mux.live_instances(), cfg.max_in_flight + waiting)
        << "node " << node.id() << " after instance " << mux.instance_count();
    peaks.live = std::max(peaks.live, mux.live_instances());
  };
  std::vector<service::QueryMux*> muxes;
  rewrap_sensors(network, dispatcher, check, /*wrap=*/true, &muxes);
  dispatcher.run();
  EXPECT_EQ(dispatcher.completed(), query_count);
  peaks.created = query_count;
  for (const service::QueryMux* mux : muxes) {
    peaks.created = std::min(peaks.created, mux->instance_count());
  }
  return peaks;
}

TEST(ServiceTest, LiveInstancesStayBoundedAsQueriesGrow) {
  const InstancePeaks few = run_counting_instances(8);
  const InstancePeaks many = run_counting_instances(64);
  // Every sensor served every query...
  EXPECT_EQ(few.created, 8u);
  EXPECT_EQ(many.created, 64u);
  // ...while holding no more instances at 64 queries than at 8.
  EXPECT_GT(few.live, 0u);
  EXPECT_LE(many.live, few.live);
}

std::vector<std::string> record_summaries(const service::Dispatcher& d) {
  std::vector<std::string> out;
  for (const service::CompletionRecord& r : d.records()) {
    const core::IcpdaOutcome& o = r.outcome;
    std::string s = std::to_string(r.id);
    s += ' ';
    s += service::query_status_name(r.status);
    const auto field = [&s](const std::string& v, char sep) {
      s += sep;
      s += v;
    };
    for (const double v : {r.launched.seconds(), r.closed.seconds(), r.latency_s, r.settle_s,
                           r.value, r.abs_error, r.coverage, o.last_report_at.seconds()}) {
      field(std::to_string(v), ' ');
    }
    if (o.result) {
      field(std::to_string(o.result->count), ' ');
      field(std::to_string(o.result->sum), '/');
      field(std::to_string(o.result->sum_sq), '/');
    }
    for (const std::uint64_t v :
         {std::uint64_t{r.accepted}, std::uint64_t{o.alarms.size()},
          std::uint64_t{o.drop_suspicions}, std::uint64_t{o.heads}, std::uint64_t{o.members},
          std::uint64_t{o.unclustered}, std::uint64_t{o.reporters},
          std::uint64_t{o.clusters_failed}, std::uint64_t{o.reroutes}}) {
      field(std::to_string(v), ' ');
    }
    out.push_back(s);
  }
  return out;
}

TEST(ServiceTest, WrappedMuxesReproduceTheRunExactly) {
  // Default pc: clusters, shares and watchdogs, so instances retire
  // with timers still queued. The reclaim must not depend on whether
  // node.app() is the mux itself.
  const auto keys = master_keys();
  service::ServiceConfig cfg;
  cfg.offered_load_qps = 0.5;
  cfg.query_count = 12;
  cfg.max_in_flight = 4;
  cfg.deadline_s = 30.0;
  cfg.seed = 0x3A9;

  net::Network bare_net(dense_network(29));
  service::Dispatcher bare(bare_net, cfg, &keys, integer_reading);
  rewrap_sensors(bare_net, bare, {}, /*wrap=*/false);
  bare.run();

  net::Network wrapped_net(dense_network(29));
  service::Dispatcher wrapped(wrapped_net, cfg, &keys, integer_reading);
  std::vector<service::QueryMux*> muxes;
  rewrap_sensors(wrapped_net, wrapped, {}, /*wrap=*/true, &muxes);
  wrapped.run();

  EXPECT_EQ(bare.completed(), cfg.query_count);
  EXPECT_EQ(record_summaries(bare), record_summaries(wrapped));
  EXPECT_EQ(bare_net.executed_events(), wrapped_net.executed_events());
  EXPECT_EQ(bare_net.metrics().counters(), wrapped_net.metrics().counters());

  // The wrapped muxes did reclaim.
  std::size_t created = 0, live = 0;
  for (const service::QueryMux* mux : muxes) {
    created += mux->instance_count();
    live += mux->live_instances();
  }
  EXPECT_EQ(created, cfg.query_count * muxes.size());
  EXPECT_LT(live, created);
}

/// Owns a sensor's mux and forwards every upcall to it like WrappedMux,
/// but declares the mux's own overhear mask; records the type of every
/// overheard frame the node hands it.
class MaskForwardingMux final : public net::App {
 public:
  MaskForwardingMux(std::unique_ptr<service::QueryMux> mux, std::set<net::FrameType>* overheard)
      : mux_(std::move(mux)), overheard_(overheard) {}

  void start(net::Node& node) override { mux_->start(node); }
  void on_receive(net::Node& node, const net::Frame& frame) override {
    mux_->on_receive(node, frame);
  }
  void on_overhear(net::Node& node, const net::Frame& frame) override {
    overheard_->insert(frame.type);
    mux_->on_overhear(node, frame);
  }
  void on_send_failed(net::Node& node, const net::Frame& frame) override {
    mux_->on_send_failed(node, frame);
  }
  [[nodiscard]] std::uint64_t overheard_types() const override {
    return mux_->overheard_types();
  }

 private:
  std::unique_ptr<service::QueryMux> mux_;
  std::set<net::FrameType>* overheard_;
};

TEST(ServiceTest, SensorsOverhearOnlyWhatTheirInstancesRead) {
  // The WrappedMuxesReproduceTheRunExactly config: clusters, so reports
  // travel the tree and other types are unicast within earshot.
  const auto keys = master_keys();
  service::ServiceConfig cfg;
  cfg.offered_load_qps = 0.5;
  cfg.query_count = 12;
  cfg.max_in_flight = 4;
  cfg.deadline_s = 30.0;
  cfg.seed = 0x3A9;

  net::Network bare_net(dense_network(29));
  service::Dispatcher bare(bare_net, cfg, &keys, integer_reading);
  rewrap_sensors(bare_net, bare, {}, /*wrap=*/false);
  bare.run();

  net::Network network(dense_network(29));
  service::Dispatcher dispatcher(network, cfg, &keys, integer_reading);
  std::set<net::FrameType> overheard;
  network.scheduler().at(sim::SimTime::zero(), [&] {
    for (net::NodeId id = 1; id < network.size(); ++id) {
      network.node(id).attach_app(std::make_unique<MaskForwardingMux>(
          std::make_unique<service::QueryMux>(&dispatcher.state()), &overheard));
    }
  });
  dispatcher.run();

  // A plain (unhardened, adversary-free) instance reads overheard
  // reports only, so no other overheard type reaches a sensor's app...
  EXPECT_EQ(overheard, (std::set<net::FrameType>{proto::kClusterReport}));
  // ...and the wrapper changes nothing the run reports.
  EXPECT_EQ(dispatcher.completed(), cfg.query_count);
  EXPECT_EQ(record_summaries(bare), record_summaries(dispatcher));
  EXPECT_EQ(bare_net.executed_events(), network.executed_events());
  EXPECT_EQ(bare_net.metrics().counters(), network.metrics().counters());
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
