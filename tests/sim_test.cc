// Simulation kernel: scheduler, RNG, metrics, time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace icpda::sim {
namespace {

// ---- SimTime --------------------------------------------------------

TEST(SimTimeTest, ArithmeticAndOrdering) {
  const SimTime a = seconds(1.5);
  const SimTime b = millis(500);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.0);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 1.0);
  EXPECT_DOUBLE_EQ((2.0 * b).millis(), 1000.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(micros(1000), millis(1));
  EXPECT_TRUE(SimTime::zero().is_finite());
  EXPECT_FALSE(SimTime::infinity().is_finite());
}

// ---- Scheduler ------------------------------------------------------

TEST(SchedulerTest, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(seconds(3.0), [&] { order.push_back(3); });
  sched.at(seconds(1.0), [&] { order.push_back(1); });
  sched.at(seconds(2.0), [&] { order.push_back(2); });
  EXPECT_EQ(sched.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now().seconds(), 3.0);
}

TEST(SchedulerTest, EqualTimesFireInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, EventsScheduledDuringRunAreExecuted) {
  Scheduler sched;
  int fired = 0;
  sched.at(seconds(1.0), [&] {
    ++fired;
    sched.after(seconds(1.0), [&] { ++fired; });
  });
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sched.now().seconds(), 2.0);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.at(seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, CancelAfterFireIsHarmless) {
  Scheduler sched;
  const EventId id = sched.at(seconds(1.0), [] {});
  sched.run();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler sched;
  std::vector<double> fired_at;
  for (int i = 1; i <= 5; ++i) {
    sched.at(seconds(i), [&fired_at, &sched] { fired_at.push_back(sched.now().seconds()); });
  }
  sched.run_until(seconds(2.5));
  EXPECT_EQ(fired_at.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.now().seconds(), 2.5);
  sched.run();
  EXPECT_EQ(fired_at.size(), 5u);
}

TEST(SchedulerTest, RunStepsBoundsExecution) {
  Scheduler sched;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sched.at(seconds(i + 1), [&] { ++fired; });
  EXPECT_EQ(sched.run_steps(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(SchedulerTest, RejectsPastAndEmptyEvents) {
  Scheduler sched;
  sched.at(seconds(5.0), [] {});
  sched.run();
  EXPECT_THROW(sched.at(seconds(1.0), [] {}), std::invalid_argument);
  EXPECT_THROW(sched.at(seconds(10.0), EventFn{}), std::invalid_argument);
}

TEST(SchedulerTest, RejectsNonFiniteFireTimes) {
  // NaN passes a bare `t < now()` check; scheduled, it would fire after
  // every finite event and leave the clock at NaN.
  Scheduler sched;
  bool fired = false;
  sched.at(seconds(2.0), [&] { fired = true; });
  sched.run();
  ASSERT_TRUE(fired);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(sched.at(SimTime{bad}, [] {}), std::invalid_argument) << bad;
    EXPECT_THROW(sched.after(SimTime{bad}, [] {}), std::invalid_argument) << bad;
    EXPECT_EQ(sched.now(), seconds(2.0)) << bad;
    EXPECT_EQ(sched.pending(), 0u) << bad;
  }
  // The clock still refuses the past afterwards.
  EXPECT_THROW(sched.at(seconds(1.0), [] {}), std::invalid_argument);
}

TEST(SchedulerTest, ResetClearsQueueAndClock) {
  Scheduler sched;
  bool fired = false;
  sched.at(seconds(1.0), [&] { fired = true; });
  sched.reset();
  EXPECT_EQ(sched.pending(), 0u);
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sched.now().seconds(), 0.0);
}

// ---- canonical event key (creator, counter) -------------------------

// At an equal (fire, schedule) time, the creator — the owner of the
// dispatch that scheduled an event — decides, whatever order the
// creators' dispatches ran in.
TEST(SchedulerTest, TiedEventsOfTwoCreatorsPopInCreatorOrder) {
  for (const bool high_first : {true, false}) {
    Scheduler sched;
    std::vector<std::string> order;
    const auto parent = [&](std::uint32_t owner, const char* tag) {
      sched.at(
          seconds(1.0),
          [&sched, &order, tag] {
            for (int i = 0; i < 2; ++i) {
              sched.at(seconds(2.0), [&order, tag, i] {
                order.push_back(tag + std::to_string(i));
              });
            }
          },
          owner);
    };
    if (high_first) {
      parent(5, "five");
      parent(3, "three");
    } else {
      parent(3, "three");
      parent(5, "five");
    }
    sched.run();
    EXPECT_EQ(order, (std::vector<std::string>{"three0", "three1", "five0",
                                               "five1"}))
        << "high_first=" << high_first;
  }
}

// One creator's tied events pop in the order it scheduled them, across
// several of its dispatches.
TEST(SchedulerTest, OneCreatorsEventsPopInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int d = 0; d < 3; ++d) {
    sched.at(
        seconds(1.0),
        [&sched, &order, d] {
          for (int i = 0; i < 4; ++i) {
            sched.at(seconds(2.0), [&order, d, i] { order.push_back(d * 4 + i); });
          }
        },
        7);
  }
  sched.run();
  std::vector<int> expected(12);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

// Events scheduled outside any dispatch order by the install sequence,
// not by their owners, across every scheduler that shares the counter
// table — and after runtime-scheduled events at a (fire, schedule)
// time tie.
TEST(SchedulerTest, InstallTimeEventsOrderByInstallSequence) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(seconds(1.0), [&order] { order.push_back(9); }, 9);
  sched.at(seconds(1.0), [&order] { order.push_back(1); }, 1);
  sched.at(
      SimTime::zero(),
      [&sched, &order] {
        sched.at(seconds(1.0), [&order] { order.push_back(2); }, 2);
      },
      4);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 9, 1}));

  const auto counters = std::make_shared<CreatorCounters>(16);
  Scheduler a(counters);
  Scheduler b(counters);
  b.at(seconds(1.0), [] {}, 3);
  a.at(seconds(1.0), [] {}, 2);
  EXPECT_EQ(b.next_key().creator, kNoEventOwner);
  EXPECT_LT(b.next_key(), a.next_key());
}

// The creator is the acting dispatch's owner even when it schedules on
// another scheduler (the sharded gate's cross-shard delivery), and the
// counter is shared with that scheduler.
TEST(SchedulerTest, CreatorFollowsTheDispatchAcrossSchedulers) {
  const auto counters = std::make_shared<CreatorCounters>(16);
  Scheduler home(counters);
  Scheduler other(counters);
  home.at(
      seconds(1.0),
      [&home, &other] {
        home.at(seconds(2.0), [] {}, 4);
        other.advance_to(home.now());
        other.at(seconds(2.0), [] {}, 6);
      },
      4);
  ASSERT_TRUE(home.run_one());
  const EventKey mine = home.next_key();
  const EventKey theirs = other.next_key();
  EXPECT_EQ(mine.creator, 4u);
  EXPECT_EQ(theirs.creator, 4u);
  EXPECT_EQ(theirs.sched_at, seconds(1.0));
  EXPECT_EQ(theirs.counter, mine.counter + 1);
  EXPECT_LT(mine, theirs);
}

TEST(SchedulerTest, CounterOverflowGuardThrows) {
  std::uint32_t next = std::numeric_limits<std::uint32_t>::max() - 1;
  EXPECT_EQ(take_counter(next), std::numeric_limits<std::uint32_t>::max() - 1);
  EXPECT_THROW((void)take_counter(next), std::overflow_error);
  EXPECT_EQ(next, std::numeric_limits<std::uint32_t>::max());  // not wrapped

  // A fixed table refuses creators outside its range instead of
  // growing; a private one grows.
  CreatorCounters fixed(4);
  EXPECT_EQ(fixed.take(3), 0u);
  EXPECT_THROW((void)fixed.take(4), std::out_of_range);
  CreatorCounters growable;
  EXPECT_EQ(growable.take(1000), 0u);
  EXPECT_EQ(growable.take(1000), 1u);
}

// ---- Rng ------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.below(10)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 600);
  EXPECT_THROW((void)rng.below(0), std::invalid_argument);
}

TEST(RngTest, RangeInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(19);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 50000.0, 0.5, 0.02);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(23);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 2.0, 0.05);
}

TEST(RngTest, ForkIsIndependentAndStable) {
  const Rng root(42);
  Rng f1 = root.fork("alpha");
  Rng f2 = root.fork("beta");
  EXPECT_NE(f1(), f2());
  // Same name -> same stream, and forking does not perturb the parent.
  Rng f1_a = root.fork("alpha");
  Rng f1_b = root.fork("alpha");
  for (int i = 0; i < 16; ++i) EXPECT_EQ(f1_a(), f1_b());
}

TEST(RngTest, IndexedForksDiffer) {
  const Rng root(42);
  Rng a = root.fork("node", 1);
  Rng b = root.fork("node", 2);
  EXPECT_NE(a(), b());
}

TEST(RngTest, SampleIndicesDistinctAndComplete) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    auto s = rng.sample_indices(20, 7);
    ASSERT_EQ(s.size(), 7u);
    std::sort(s.begin(), s.end());
    EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    EXPECT_LT(s.back(), 20u);
  }
  auto all = rng.sample_indices(5, 5);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_THROW((void)rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// ---- Metrics --------------------------------------------------------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsCombinedStream) {
  Rng rng(37);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  RunningStats b;
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  RunningStats c;
  a.merge(c);
  EXPECT_EQ(a.count(), 1u);
}

TEST(MetricRegistryTest, CountersAndStats) {
  MetricRegistry m;
  m.add("x");
  m.add("x", 4);
  m.observe("lat", 1.0);
  m.observe("lat", 3.0);
  EXPECT_EQ(m.counter("x"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(m.stat("lat").mean(), 2.0);
  EXPECT_EQ(m.stat("missing").count(), 0u);
  m.clear();
  EXPECT_EQ(m.counter("x"), 0u);
}

}  // namespace
}  // namespace icpda::sim
