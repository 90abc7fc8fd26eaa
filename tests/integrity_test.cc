// WitnessMonitor: itemized audits on synthetic traces.
#include <gtest/gtest.h>

#include <limits>

#include "core/integrity.h"

namespace icpda::core {
namespace {

using proto::Aggregate;
using proto::ReportItem;
using proto::ReportMsg;
using Kind = WitnessMonitor::Verdict::Kind;

constexpr net::NodeId kHead = 7;

WitnessMonitor armed_monitor(const Aggregate& cluster_sum,
                             WitnessMonitor::Config cfg = {}) {
  WitnessMonitor m(cfg);
  m.set_target(kHead);
  m.set_cluster_sum(cluster_sum);
  return m;
}

ReportMsg head_report(std::vector<ReportItem> items) {
  ReportMsg r;
  r.query_id = 1;
  r.reporter = kHead;
  for (const auto& item : items) r.aggregate.merge(item.value);
  r.items = std::move(items);
  return r;
}

ReportMsg child_report(net::NodeId reporter, const Aggregate& agg) {
  ReportMsg r;
  r.query_id = 1;
  r.reporter = reporter;
  r.aggregate = agg;
  r.items.push_back({reporter, agg});
  return r;
}

TEST(WitnessMonitorTest, NoKnowledgeWithoutClusterSum) {
  WitnessMonitor m;
  m.set_target(kHead);
  const auto v = m.audit(head_report({{kHead, Aggregate{1, 1, 1}}}), sim::seconds(1));
  EXPECT_EQ(v.kind, Kind::kNoKnowledge);
  EXPECT_FALSE(v.alarming());
}

TEST(WitnessMonitorTest, CleanWhenEverythingMatches) {
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster);
  const Aggregate child{2, 5, 13};
  m.record_input(child_report(3, child), sim::seconds(1.0));
  const auto v = m.audit(head_report({{kHead, cluster}, {3, child}}), sim::seconds(2.0));
  EXPECT_EQ(v.kind, Kind::kClean);
  EXPECT_EQ(v.unverified_items, 0u);
}

TEST(WitnessMonitorTest, TotalItemMismatchCaughtByAnyWitness) {
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster);
  auto report = head_report({{kHead, cluster}});
  report.aggregate.sum += 100.0;  // smeared total
  const auto v = m.audit(report, sim::seconds(2.0));
  EXPECT_EQ(v.kind, Kind::kMismatch);
  EXPECT_TRUE(v.alarming());
}

TEST(WitnessMonitorTest, ForgedClusterItemCaught) {
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster);
  Aggregate forged = cluster;
  forged.sum += 50.0;
  const auto v = m.audit(head_report({{kHead, forged}}), sim::seconds(2.0));
  EXPECT_EQ(v.kind, Kind::kMismatch);
  EXPECT_DOUBLE_EQ(v.expected_sum, 10.0);
  EXPECT_DOUBLE_EQ(v.observed_sum, 60.0);
}

TEST(WitnessMonitorTest, ForgedChildItemCaughtIfOverheard) {
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster);
  const Aggregate child{1, 4, 16};
  m.record_input(child_report(3, child), sim::seconds(1.0));
  Aggregate forged = child;
  forged.sum -= 2.5;
  const auto v =
      m.audit(head_report({{kHead, cluster}, {3, forged}}), sim::seconds(2.0));
  EXPECT_EQ(v.kind, Kind::kMismatch);
}

TEST(WitnessMonitorTest, UnheardChildItemSkipped) {
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster);
  const auto v = m.audit(
      head_report({{kHead, cluster}, {99, Aggregate{1, 2, 3}}}), sim::seconds(2.0));
  EXPECT_EQ(v.kind, Kind::kPartialClean);
  EXPECT_EQ(v.unverified_items, 1u);
  EXPECT_FALSE(v.alarming());
}

TEST(WitnessMonitorTest, OmittedClusterSumIsOmission) {
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster);
  const Aggregate child{1, 4, 16};
  m.record_input(child_report(3, child), sim::seconds(1.0));
  const auto v = m.audit(head_report({{3, child}}), sim::seconds(2.0));
  EXPECT_EQ(v.kind, Kind::kOmission);
}

TEST(WitnessMonitorTest, OmittedChildBeyondGuardIsOmission) {
  WitnessMonitor::Config cfg;
  cfg.omission_guard_s = 0.5;
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster, cfg);
  m.record_input(child_report(3, Aggregate{1, 4, 16}), sim::seconds(1.0));
  // Audit 2 s later: the child input is clearly old -> omission.
  const auto v = m.audit(head_report({{kHead, cluster}}), sim::seconds(3.0));
  EXPECT_EQ(v.kind, Kind::kOmission);
}

TEST(WitnessMonitorTest, LateChildInsideGuardForgiven) {
  WitnessMonitor::Config cfg;
  cfg.omission_guard_s = 0.5;
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster, cfg);
  m.record_input(child_report(3, Aggregate{1, 4, 16}), sim::seconds(1.8));
  const auto v = m.audit(head_report({{kHead, cluster}}), sim::seconds(2.0));
  EXPECT_EQ(v.kind, Kind::kClean);
}

TEST(WitnessMonitorTest, ToleranceScalesWithMagnitude) {
  const Aggregate cluster{1e9, 1e12, 1e15};
  auto m = armed_monitor(cluster);
  Aggregate near = cluster;
  near.sum += 0.5;  // relative error 5e-13, far below tolerance
  const auto v = m.audit(head_report({{kHead, near}}), sim::seconds(1.0));
  EXPECT_EQ(v.kind, Kind::kClean);
}

TEST(WitnessMonitorTest, InfiniteValueAgainstFiniteWitnessIsMismatch) {
  // The tolerance scales with max(|x|, |y|), so an unguarded compare
  // reads +Inf against a finite value as Inf <= Inf and matches. Each
  // case below keeps the rest of the report finite so that exactly one
  // compare sees the infinity.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Aggregate cluster{3, 10, 40};
  const Aggregate child{1, 4, 16};

  {  // Head item +Inf, claimed total left at the finite cluster sum.
    auto m = armed_monitor(cluster);
    auto report = head_report({{kHead, cluster}});
    report.items[0].value.sum = kInf;
    EXPECT_EQ(m.audit(report, sim::seconds(2.0)).kind, Kind::kMismatch);
  }
  {  // Claimed total +Inf over finite items.
    auto m = armed_monitor(cluster);
    auto report = head_report({{kHead, cluster}});
    report.aggregate.sum = kInf;
    EXPECT_EQ(m.audit(report, sim::seconds(2.0)).kind, Kind::kMismatch);
  }
  {  // Overheard child item replaced by +Inf.
    auto m = armed_monitor(cluster);
    m.record_input(child_report(3, child), sim::seconds(1.0));
    auto report = head_report({{kHead, cluster}, {3, child}});
    report.items[1].value.sum_sq = kInf;
    EXPECT_EQ(m.audit(report, sim::seconds(2.0)).kind, Kind::kMismatch);
  }
}

TEST(WitnessMonitorTest, RetransmittedInputOverwrites) {
  const Aggregate cluster{3, 10, 40};
  auto m = armed_monitor(cluster);
  const Aggregate child{1, 4, 16};
  m.record_input(child_report(3, child), sim::seconds(1.0));
  m.record_input(child_report(3, child), sim::seconds(1.1));  // duplicate
  const auto v =
      m.audit(head_report({{kHead, cluster}, {3, child}}), sim::seconds(2.0));
  EXPECT_EQ(v.kind, Kind::kClean);
}

}  // namespace
}  // namespace icpda::core
