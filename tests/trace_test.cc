// Tracer unit behaviour and the trace fold: span stacks, ring
// overflow, epoch finalization, folding and digesting — plus the
// determinism contract (tracing is purely observational; identical
// runs yield identical digests).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/trace_report.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace icpda::sim {
namespace {

using analysis::fold_trace;
using analysis::trace_digest;

SimTime at(double s) { return seconds(s); }

// ---------------------------------------------------------------------
// Disabled tracer: every recorder is a no-op.

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer tr;
  EXPECT_FALSE(tr.enabled());
  tr.begin_span(0, TracePhase::kReport, at(1.0));
  tr.counter(0, TraceCounter::kTxBytes, 42, at(1.0));
  tr.end_span(0, TracePhase::kReport, at(2.0));
  tr.finalize_epoch(at(2.0));
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
  EXPECT_EQ(tr.epoch(), 0u);
  EXPECT_TRUE(tr.merged().empty());
  EXPECT_EQ(tr.current_phase(0), TracePhase::kNone);
}

// ---------------------------------------------------------------------
// Span stack semantics.

TEST(TraceTest, SpanStackTracksInnermostPhase) {
  Tracer tr;
  tr.enable(2);
  EXPECT_EQ(tr.current_phase(0), TracePhase::kNone);
  tr.begin_span(0, TracePhase::kClusterFormation, at(0.1));
  EXPECT_EQ(tr.current_phase(0), TracePhase::kClusterFormation);
  tr.begin_span(0, TracePhase::kShareExchange, at(0.2));
  EXPECT_EQ(tr.current_phase(0), TracePhase::kShareExchange);
  // The other node's stack is independent.
  EXPECT_EQ(tr.current_phase(1), TracePhase::kNone);
  tr.end_span(0, TracePhase::kShareExchange, at(0.3));
  EXPECT_EQ(tr.current_phase(0), TracePhase::kClusterFormation);
  tr.end_span(0, TracePhase::kClusterFormation, at(0.4));
  EXPECT_EQ(tr.current_phase(0), TracePhase::kNone);
}

TEST(TraceTest, EndSpanUnwindsNestedSpans) {
  Tracer tr;
  tr.enable(1);
  tr.begin_span(0, TracePhase::kClusterFormation, at(0.1));
  tr.begin_span(0, TracePhase::kShareExchange, at(0.2));
  // Ending the outer phase implies the inner one is over too.
  tr.end_span(0, TracePhase::kClusterFormation, at(0.3));
  EXPECT_EQ(tr.current_phase(0), TracePhase::kNone);
  // 2 begins + 2 ends (the nested span was closed on the way out).
  EXPECT_EQ(tr.recorded(), 4u);
}

TEST(TraceTest, StrayEndIsDropped) {
  Tracer tr;
  tr.enable(1);
  tr.end_span(0, TracePhase::kReport, at(1.0));
  EXPECT_EQ(tr.recorded(), 0u);
  tr.begin_span(0, TracePhase::kReport, at(1.0));
  tr.end_span(0, TracePhase::kShareExchange, at(2.0));  // no such begin
  EXPECT_EQ(tr.current_phase(0), TracePhase::kReport);
  EXPECT_EQ(tr.recorded(), 1u);  // just the begin
}

TEST(TraceTest, SwitchPhaseIsNoOpOnSamePhase) {
  Tracer tr;
  tr.enable(1);
  tr.switch_phase(0, TracePhase::kReport, at(1.0));
  const auto before = tr.recorded();
  tr.switch_phase(0, TracePhase::kReport, at(2.0));
  EXPECT_EQ(tr.recorded(), before);
  tr.switch_phase(0, TracePhase::kRecovery, at(3.0));
  EXPECT_EQ(tr.current_phase(0), TracePhase::kRecovery);
}

TEST(TraceTest, DepthClampKeepsBeginsAndEndsBalanced) {
  Tracer tr;
  tr.enable(1);
  // Push far past the fixed stack depth, then close everything.
  for (int i = 0; i < 20; ++i) {
    tr.begin_span(0, TracePhase::kShareExchange, at(0.1 * (i + 1)));
  }
  tr.finalize_epoch(at(10.0));
  std::uint64_t begins = 0, ends = 0;
  for (const TraceEvent& ev : tr.merged()) {
    if (ev.kind == TraceEvent::Kind::kBegin) ++begins;
    if (ev.kind == TraceEvent::Kind::kEnd) ++ends;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(fold_trace(tr.merged()).unmatched_ends, 0u);
}

// ---------------------------------------------------------------------
// Ring overflow is counted, never silent.

TEST(TraceTest, RingOverflowCountsDropped) {
  Tracer::Config cfg;
  cfg.capacity = 4;
  Tracer tr;
  tr.enable(1, cfg);
  for (int i = 0; i < 10; ++i) {
    tr.counter(0, TraceCounter::kTxBytes, static_cast<std::uint64_t>(i), at(i));
  }
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  const auto events = tr.merged();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, oldest first.
  EXPECT_EQ(events.front().value, 6u);
  EXPECT_EQ(events.back().value, 9u);
}

// ---------------------------------------------------------------------
// Crash and epoch-end paths stamp their reasons.

TEST(TraceTest, InterruptClosesSpansWithInterruptedReason) {
  Tracer tr;
  tr.enable(1);
  tr.begin_span(0, TracePhase::kShareExchange, at(1.0));
  tr.interrupt(0, at(2.0));
  EXPECT_EQ(tr.current_phase(0), TracePhase::kNone);
  const auto events = tr.merged();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kEnd);
  EXPECT_EQ(events[1].value, kSpanEndInterrupted);
}

TEST(TraceTest, FinalizeEpochWritesMarkerAndAdvancesEpoch) {
  Tracer tr;
  tr.enable(2);
  tr.begin_span(1, TracePhase::kReport, at(1.0));
  tr.finalize_epoch(at(5.0));
  EXPECT_EQ(tr.epoch(), 1u);

  const auto events = tr.merged();
  ASSERT_EQ(events.size(), 3u);  // begin, finalized end, marker
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kEnd);
  EXPECT_EQ(events[1].value, kSpanEndFinalized);
  EXPECT_EQ(events[2].kind, TraceEvent::Kind::kMarker);
  EXPECT_EQ(events[2].node, kTraceGlobalNode);
  EXPECT_EQ(events[2].value, 0u);  // the epoch that just closed

  // Subsequent events carry the new epoch index.
  tr.counter(0, TraceCounter::kTxBytes, 1, at(6.0));
  EXPECT_EQ(tr.merged().back().epoch, 1u);
}

TEST(TraceTest, MergedIsSortedBySeqAcrossNodes) {
  Tracer tr;
  tr.enable(3);
  tr.counter(2, TraceCounter::kTxBytes, 1, at(0.1));
  tr.counter(0, TraceCounter::kTxBytes, 2, at(0.2));
  tr.counter(1, TraceCounter::kTxBytes, 3, at(0.3));
  tr.counter(0, TraceCounter::kRxBytes, 4, at(0.4));
  const auto events = tr.merged();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i) << "merged() must be seq-ordered";
  }
}

// ---------------------------------------------------------------------
// fold_trace: attribution, unmatched ends.

TEST(TraceTest, FoldAttributesCountersToInnermostOpenSpan) {
  Tracer tr;
  tr.enable(2);
  tr.counter(0, TraceCounter::kTxBytes, 10, at(0.1));  // outside any span
  tr.begin_span(0, TracePhase::kShareExchange, at(1.0));
  tr.counter(0, TraceCounter::kTxBytes, 100, at(1.5));
  tr.counter(1, TraceCounter::kTxBytes, 7, at(1.6));  // node 1: no span
  tr.begin_span(0, TracePhase::kReport, at(2.0));
  tr.counter(0, TraceCounter::kTxBytes, 1000, at(2.5));
  tr.end_span(0, TracePhase::kReport, at(3.0));
  tr.end_span(0, TracePhase::kShareExchange, at(4.0));

  const auto report = fold_trace(tr.merged());
  const auto& ep0 = report.tx_bytes.at(0);
  const auto idx = [](TracePhase p) { return static_cast<std::size_t>(p); };
  EXPECT_EQ(ep0[idx(TracePhase::kNone)], 17u);
  EXPECT_EQ(ep0[idx(TracePhase::kShareExchange)], 100u);
  EXPECT_EQ(ep0[idx(TracePhase::kReport)], 1000u);
  EXPECT_EQ(report.epoch_tx_bytes(0), 1117u);
  EXPECT_EQ(report.unmatched_ends, 0u);
}

// ---------------------------------------------------------------------
// Digest.

TEST(TraceTest, DigestIsStableAndSensitive) {
  Tracer tr;
  tr.enable(1);
  tr.begin_span(0, TracePhase::kReport, at(1.0));
  tr.counter(0, TraceCounter::kTxBytes, 42, at(1.5));
  tr.end_span(0, TracePhase::kReport, at(2.0));
  const auto a = tr.merged();
  EXPECT_EQ(trace_digest(a), trace_digest(a));

  auto b = a;
  b[1].value = 43;
  EXPECT_NE(trace_digest(a), trace_digest(b));
}

// ---------------------------------------------------------------------
// The determinism contract, end to end on a real protocol run.

crypto::MasterPairwiseScheme master_keys() {
  return crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x7357)};
}

net::NetworkConfig tiny_network(std::uint64_t seed) {
  net::NetworkConfig cfg;
  cfg.node_count = 3;
  cfg.seed = seed;
  return cfg;
}

net::Topology triangle() {
  return net::Topology{{{0, 0}, {40, 0}, {30, 30}}, 50.0};
}

TEST(TraceTest, TracingIsPurelyObservational) {
  const auto keys = master_keys();
  const core::IcpdaConfig cfg;

  net::Network plain(triangle(), tiny_network(42));
  core::run_icpda_epoch(plain, cfg, proto::constant_reading(1.0), keys);

  net::Network traced(triangle(), tiny_network(42));
  traced.enable_trace();
  core::run_icpda_epoch(traced, cfg, proto::constant_reading(1.0), keys);

  // Same seed, same world: every metric identical whether traced or not.
  EXPECT_EQ(plain.metrics().counter("channel.tx_bytes"),
            traced.metrics().counter("channel.tx_bytes"));
  EXPECT_EQ(plain.metrics().counter("channel.tx_frames"),
            traced.metrics().counter("channel.tx_frames"));
  EXPECT_EQ(plain.scheduler().executed(), traced.scheduler().executed());
  EXPECT_GT(traced.tracer().recorded(), 0u);
}

TEST(TraceTest, IdenticalRunsYieldIdenticalDigests) {
  const auto keys = master_keys();
  const core::IcpdaConfig cfg;
  std::uint64_t digests[2];
  for (int i = 0; i < 2; ++i) {
    net::Network network(triangle(), tiny_network(42));
    network.enable_trace();
    core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    EXPECT_EQ(network.tracer().dropped(), 0u);
    digests[i] = trace_digest(network.tracer().merged());
  }
  EXPECT_EQ(digests[0], digests[1]);

  // A different seed must move the digest.
  net::Network network(triangle(), tiny_network(43));
  network.enable_trace();
  core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
  EXPECT_NE(trace_digest(network.tracer().merged()), digests[0]);
}

}  // namespace
}  // namespace icpda::sim
