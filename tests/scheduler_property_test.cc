// Scheduler semantics pinned as properties, against a naive reference
// model. Written BEFORE the indexed-heap rewrite (PR 4) so the
// observable contract — (time, schedule-order) dispatch order, exact
// cancel semantics, monotone clock — is frozen independently of the
// queue's internal representation. Any future scheduler change must
// keep every test here green without edits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/scheduler.h"

namespace icpda::sim {
namespace {

/// Reference model: a flat list of (time, schedule-seq) pairs, sorted
/// stably. Dispatch order of the real scheduler must equal a stable
/// sort by time — i.e. ties broken by schedule order.
struct RefEvent {
  double at;
  std::uint64_t seq;
  bool cancelled = false;
};

std::vector<std::uint64_t> reference_order(std::vector<RefEvent> evs) {
  std::stable_sort(evs.begin(), evs.end(),
                   [](const RefEvent& a, const RefEvent& b) { return a.at < b.at; });
  std::vector<std::uint64_t> order;
  for (const RefEvent& e : evs) {
    if (!e.cancelled) order.push_back(e.seq);
  }
  return order;
}

/// Online differential rig over the same reference model. Events may
/// be scheduled from the test body or from inside callbacks; either
/// way the schedule clock never runs back (no reset() inside one rig),
/// so ordering by (time, schedule time, sequence) — the canonical key
/// of events that all share one creator — is exactly the stable sort
/// by time that reference_order() performs.
struct DiffRig {
  Scheduler sched;
  std::vector<RefEvent> ref;
  std::vector<EventId> ids;
  std::vector<bool> done;
  std::vector<std::uint64_t> fired;

  std::uint64_t schedule(double t, std::function<void()> then = {}) {
    const std::uint64_t seq = ref.size();
    ref.push_back({t, seq});
    done.push_back(false);
    ids.push_back(sched.at(seconds(t), [this, seq, then = std::move(then)] {
      fired.push_back(seq);
      done[seq] = true;
      if (then) then();
    }));
    return seq;
  }

  /// Cancel `seq`; cancel() must report exactly whether it was pending.
  void cancel(std::uint64_t seq) {
    const bool live = !done[seq] && !ref[seq].cancelled;
    EXPECT_EQ(sched.cancel(ids[seq]), live) << "seq " << seq;
    if (live) ref[seq].cancelled = true;
  }

  [[nodiscard]] std::size_t live() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) n += !done[i] && !ref[i].cancelled;
    return n;
  }
};

TEST(SchedulerPropertyTest, SameTimestampBatchesFireInScheduleOrder) {
  // Many events across few distinct timestamps: every tie must resolve
  // to schedule order, for any interleaving of the timestamps.
  Rng rng(0xA11CE);
  for (int trial = 0; trial < 50; ++trial) {
    Scheduler sched;
    std::vector<std::uint64_t> fired;
    std::vector<RefEvent> ref;
    const int n = 200;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(rng.below(7)) * 0.5;
      ref.push_back({t, i});
      sched.at(seconds(t), [&fired, i] { fired.push_back(i); });
    }
    sched.run();
    EXPECT_EQ(fired, reference_order(ref)) << "trial " << trial;
  }
}

TEST(SchedulerPropertyTest, CancelThenFireNeverDispatches) {
  // Cancel every third event, including some in same-timestamp batches;
  // a cancelled event must never run and cancel() must report exactly
  // whether the event was still pending.
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 50; ++trial) {
    Scheduler sched;
    std::vector<std::uint64_t> fired;
    std::vector<RefEvent> ref;
    std::vector<EventId> ids;
    const int n = 150;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(rng.below(5)) * 0.25;
      ref.push_back({t, i});
      ids.push_back(sched.at(seconds(t), [&fired, i] { fired.push_back(i); }));
    }
    for (std::uint64_t i = 0; i < n; i += 3) {
      ref[i].cancelled = true;
      EXPECT_TRUE(sched.cancel(ids[i]));
      EXPECT_FALSE(sched.cancel(ids[i]));  // double-cancel: no-op, reported
    }
    EXPECT_EQ(sched.pending(), ref.size() - (ref.size() + 2) / 3);
    sched.run();
    EXPECT_EQ(fired, reference_order(ref)) << "trial " << trial;
    // After the run everything has fired: cancel is a universal no-op.
    for (const EventId id : ids) EXPECT_FALSE(sched.cancel(id));
  }
}

TEST(SchedulerPropertyTest, InterleavedScheduleCancelStressMatchesReference) {
  // Randomized workload mirroring what the MAC does to the scheduler:
  // schedule bursts, cancel a random live subset (ACK timers), fire,
  // schedule more from inside callbacks. The reference model only
  // understands stable-sort-by-time; the scheduler must agree exactly.
  Rng rng(0xD15EA5E);
  for (int trial = 0; trial < 25; ++trial) {
    Scheduler sched;
    std::vector<std::uint64_t> fired;
    std::vector<RefEvent> ref;
    std::vector<std::pair<std::uint64_t, EventId>> live;
    std::uint64_t next_seq = 0;

    const auto schedule_one = [&](double t) {
      const std::uint64_t seq = next_seq++;
      ref.push_back({t, seq});
      live.emplace_back(seq, sched.at(seconds(t), [&fired, seq] { fired.push_back(seq); }));
    };

    // Phase A: a burst with heavy timestamp collisions.
    for (int i = 0; i < 300; ++i) {
      schedule_one(1.0 + static_cast<double>(rng.below(20)) * 0.125);
    }
    // Phase B: cancel a random half of what is live, in random order.
    rng.shuffle(live);
    const std::size_t keep = live.size() / 2;
    while (live.size() > keep) {
      const auto [seq, id] = live.back();
      live.pop_back();
      ref[seq].cancelled = true;
      EXPECT_TRUE(sched.cancel(id));
    }
    // Phase C: more events straddling the cancelled ones' timestamps,
    // plus one event that cancels another from inside its callback.
    for (int i = 0; i < 100; ++i) {
      schedule_one(1.0 + static_cast<double>(rng.below(25)) * 0.1);
    }
    {
      const std::uint64_t victim_seq = next_seq++;
      ref.push_back({9.0, victim_seq});
      const EventId victim =
          sched.at(seconds(9.0), [&fired, victim_seq] { fired.push_back(victim_seq); });
      ref[victim_seq].cancelled = true;
      const std::uint64_t killer_seq = next_seq++;
      ref.push_back({8.0, killer_seq});
      sched.at(seconds(8.0), [&fired, killer_seq, victim, &sched] {
        fired.push_back(killer_seq);
        EXPECT_TRUE(sched.cancel(victim));
      });
    }
    sched.run();
    EXPECT_EQ(fired, reference_order(ref)) << "trial " << trial;
  }
}

TEST(SchedulerPropertyTest, CancelFromInsideSameTimestampBatch) {
  // An event cancelling a later event of the SAME timestamp must win:
  // the victim was scheduled later, so it has not fired yet.
  Scheduler sched;
  std::vector<int> fired;
  sched.at(seconds(1.0), [&] { fired.push_back(0); });
  EventId victim{};
  sched.at(seconds(1.0), [&] {
    fired.push_back(1);
    EXPECT_TRUE(sched.cancel(victim));
  });
  victim = sched.at(seconds(1.0), [&] { fired.push_back(2); });
  sched.at(seconds(1.0), [&] { fired.push_back(3); });
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 3}));
}

TEST(SchedulerPropertyTest, ReschedulingInsideCallbacksKeepsOrder) {
  // Chains scheduled from inside callbacks land after already-pending
  // events of the same timestamp (they were scheduled later).
  Scheduler sched;
  std::vector<int> fired;
  sched.at(seconds(1.0), [&] {
    fired.push_back(0);
    sched.at(seconds(2.0), [&] { fired.push_back(3); });  // ties with seq 2, later
  });
  sched.at(seconds(2.0), [&] { fired.push_back(2); });
  sched.at(seconds(1.0), [&] { fired.push_back(1); });
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerPropertyTest, StaleIdsStayNoOpsAcrossReset) {
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) ids.push_back(sched.at(seconds(i + 1.0), [] {}));
  sched.reset();
  EXPECT_EQ(sched.pending(), 0u);
  // Stale ids from before the reset must not cancel anything scheduled
  // after it, even though the queue's storage is being reused.
  std::vector<EventId> fresh;
  int fired = 0;
  for (int i = 0; i < 32; ++i) {
    fresh.push_back(sched.at(seconds(i + 1.0), [&fired] { ++fired; }));
  }
  for (const EventId id : ids) EXPECT_FALSE(sched.cancel(id));
  EXPECT_EQ(sched.pending(), 32u);
  sched.run();
  EXPECT_EQ(fired, 32);
}

TEST(SchedulerPropertyTest, HeavyChurnClockStaysMonotone) {
  // Long alternating schedule/cancel/run_steps churn: the clock never
  // goes backwards and executed() counts exactly the dispatched events.
  Rng rng(0xC0FFEE);
  Scheduler sched;
  std::uint64_t dispatched = 0;
  double last_now = 0.0;
  std::vector<EventId> live;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) {
      live.push_back(sched.after(seconds(static_cast<double>(rng.below(50)) * 1e-3),
                                 [&] { ++dispatched; }));
    }
    for (int i = 0; i < 5 && !live.empty(); ++i) {
      const std::size_t pick = rng.below(live.size());
      sched.cancel(live[pick]);  // may be stale: both outcomes legal
      live[pick] = live.back();
      live.pop_back();
    }
    sched.run_steps(10);
    EXPECT_GE(sched.now().seconds(), last_now);
    last_now = sched.now().seconds();
  }
  sched.run();
  EXPECT_EQ(sched.executed(), dispatched);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SchedulerPropertyTest, FarTimersAcrossExponentBoundariesUnderChurn) {
  // Phase timers around 1 s and 2 s, where the fire time's IEEE-754
  // exponent (the high bits of the queue's radix key) changes, stay
  // pending while chains churn microsecond-scale events past them and
  // re-arm far timers up to 10 s ahead. Exact boundary values and
  // their neighbours are in the mix.
  Rng rng(0xE4B0);
  for (int trial = 0; trial < 10; ++trial) {
    DiffRig rig;
    for (const double edge : {1.0, 2.0}) {
      // Nodes share phase deadlines: a batch of exact ties.
      for (int i = 0; i < 20; ++i) rig.schedule(edge);
      rig.schedule(std::nextafter(edge, 0.0));
      rig.schedule(std::nextafter(edge, 4.0));
      for (int i = 0; i < 100; ++i) rig.schedule(edge + rng.uniform(-0.1, 0.1));
    }
    std::function<void()> churn = [&] {
      const double now = rig.sched.now().seconds();
      if (now > 2.2) return;
      if (rng.below(50) == 0) rig.schedule(now + rng.uniform(0.1, 10.0));
      rig.schedule(now + rng.uniform(1e-6, 1e-3), churn);
    };
    for (int c = 0; c < 8; ++c) rig.schedule(rng.uniform(0.85, 0.95), churn);
    rig.sched.run();
    EXPECT_EQ(rig.fired, reference_order(rig.ref)) << "trial " << trial;
    EXPECT_EQ(rig.sched.pending(), 0u);
  }
}

TEST(SchedulerPropertyTest, CancelOfBucketedEventsUnderChurn) {
  // Far timers sit in the radix buckets while near events fire; cancel
  // random ones — pending, already fired, already cancelled — from
  // inside callbacks, the way the MAC cancels ACK timers, and keep
  // pending() honest throughout.
  Rng rng(0xCA9CE1);
  for (int trial = 0; trial < 10; ++trial) {
    DiffRig rig;
    for (int i = 0; i < 400; ++i) rig.schedule(rng.uniform(0.1, 10.0));
    std::function<void()> churn = [&] {
      const double now = rig.sched.now().seconds();
      for (int k = 0; k < 3; ++k) rig.cancel(rng.below(rig.ref.size()));
      EXPECT_EQ(rig.sched.pending(), rig.live());
      if (now < 6.0) rig.schedule(now + rng.uniform(1e-5, 1e-2), churn);
    };
    for (int c = 0; c < 4; ++c) rig.schedule(rng.uniform(0.0, 0.05), churn);
    rig.sched.run();
    EXPECT_EQ(rig.fired, reference_order(rig.ref)) << "trial " << trial;
  }
}

TEST(SchedulerPropertyTest, ScheduleBelowAPeekedKey) {
  // The sharded gate peeks every shard (next_key / next_time), which
  // may move the queue's origin up to the peeked event, and then runs
  // events that schedule on the peeked shard below that key. Those
  // events must still fire first, and same-instant ties with the
  // peeked event must keep schedule order.
  Rng rng(0x9A7E);
  for (int trial = 0; trial < 25; ++trial) {
    DiffRig rig;
    for (int i = 0; i < 50; ++i) rig.schedule(rng.uniform(1.0, 3.0));
    while (rig.sched.has_next()) {
      const EventKey peeked = rig.sched.next_key();
      EXPECT_EQ(rig.sched.next_time(), peeked.at);
      const double lo = rig.sched.now().seconds();
      const double hi = peeked.at.seconds();
      for (int k = 0; k < 3; ++k) {
        switch (rng.below(3)) {
          case 0: rig.schedule(lo + (hi - lo) * rng.uniform()); break;
          case 1: rig.schedule(hi); break;  // ties the peeked event
          default: rig.schedule(hi + rng.uniform(0.0, 0.5)); break;
        }
      }
      EXPECT_FALSE(peeked < rig.sched.next_key());
      ASSERT_TRUE(rig.sched.run_one());
      if (rig.ref.size() > 600) break;
    }
    rig.sched.run();
    EXPECT_EQ(rig.fired, reference_order(rig.ref)) << "trial " << trial;
  }
}

TEST(SchedulerPropertyTest, NegativeZeroTiesPositiveZero) {
  // -0.0 == +0.0 as a time, so the two tie and resolve by schedule
  // order — also for events scheduled after a peek, and for a -0.0
  // scheduled while later events are already queued.
  DiffRig rig;
  rig.schedule(0.5);
  rig.schedule(-0.0);
  rig.schedule(0.0);
  rig.schedule(-0.0, [&] { rig.schedule(0.0); rig.schedule(-0.0); });
  EXPECT_EQ(rig.sched.next_time(), seconds(0.0));
  rig.schedule(0.0);
  rig.schedule(-0.0);
  rig.schedule(1e-300);
  rig.sched.run();
  EXPECT_EQ(rig.fired, reference_order(rig.ref));
  EXPECT_EQ(rig.fired, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 7, 8, 6, 0}));
}

TEST(SchedulerPropertyTest, ResetMidRunDropsBucketedEvents) {
  // reset() in the middle of a run, with far timers still bucketed and
  // the origin moved past the clock by a peek: nothing from before the
  // reset may fire, its ids stay no-ops, and a fresh workload below
  // the old origin runs in order.
  Rng rng(0x4E5E7);
  Scheduler sched;
  std::vector<EventId> old_ids;
  int old_fired = 0;
  for (int i = 0; i < 300; ++i) {
    old_ids.push_back(sched.at(seconds(rng.uniform(0.0, 8.0)), [&old_fired] { ++old_fired; }));
  }
  sched.run_until(seconds(2.0));
  const int fired_before_reset = old_fired;
  EXPECT_GT(sched.next_time(), seconds(2.0));  // the peek moves the origin
  sched.reset();
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_FALSE(sched.has_next());
  for (const EventId id : old_ids) EXPECT_FALSE(sched.cancel(id));

  std::vector<std::uint64_t> fired;
  std::vector<RefEvent> ref;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const double t = rng.uniform(0.0, 4.0);
    ref.push_back({t, i});
    sched.at(seconds(t), [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(sched.pending(), 300u);
  sched.run();
  EXPECT_EQ(old_fired, fired_before_reset);
  EXPECT_EQ(fired, reference_order(ref));
}

}  // namespace
}  // namespace icpda::sim
