// Lookahead-safety sweep for the sharded conservative-PDES engine
// (net/shard_engine.h): thousands of randomized synthetic event
// programs, biased to be maximally hostile to the window planner —
// spawn delays quantized to fractions of the lookahead (ties abound),
// border children landing exactly ON window boundaries, dense border
// populations, zero-delay gate chains.
//
// Each case runs three ways and the runs are played off against each
// other:
//   * engine, parallel windows (serialize_all = false) — the unit
//     under test,
//   * engine, fully serialized gate (serialize_all = true) — the
//     strategy-independence oracle: per-shard dispatch logs must match
//     the parallel run EXACTLY, proving window placement never affects
//     what runs when. This is the same property the windowed run must
//     hold against any other window placement, checked against the
//     degenerate one.
//   * one plain Scheduler — the single-heap oracle: every scheduler
//     orders by the same shard-independent EventKey, so each synthetic
//     shard's dispatch log must equal the engine's EXACTLY — none lost
//     at window seams, none doubled, none reordered.
// Plus, per case: the engine's lookahead-violation counter stays zero,
// and every event observes its own scheduler clock at exactly its fire
// time.
//
// The program is a pure function of (case seed, event label): an event
// derives its children — count, target shard, delay, border flag —
// from a hash of its label alone, never from execution order, so all
// three runs unfold the same causal tree and their logs are
// comparable.
//
// Contract encoded here (the MAC spawn floor, DESIGN.md §5j): an event
// executed in a parallel drain only schedules border work at least one
// lookahead ahead; events executed in the serial gate may schedule
// anything anywhere, advancing the target clock first — exactly what
// the channel does for cross-shard delivery.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/shard_engine.h"
#include "runner/thread_pool.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace icpda::net {
namespace {

constexpr sim::SimTime kLookahead{1.0 / 64};  // exactly representable

/// Owner ids are shard * 4096 + local id, for at most 8 shards.
constexpr std::size_t kCreators = 8 * 4096;

/// Shard schedulers sharing one fixed counter table, as the engine
/// requires.
std::vector<std::unique_ptr<sim::Scheduler>> make_shards(std::size_t n) {
  const auto counters = std::make_shared<sim::CreatorCounters>(kCreators);
  std::vector<std::unique_ptr<sim::Scheduler>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<sim::Scheduler>(counters));
  }
  return out;
}

std::vector<sim::Scheduler*> raw_ptrs(
    const std::vector<std::unique_ptr<sim::Scheduler>>& scheds) {
  std::vector<sim::Scheduler*> raw;
  for (const auto& s : scheds) raw.push_back(s.get());
  return raw;
}

std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a + 0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

struct CaseParams {
  std::uint64_t seed = 0;
  std::size_t shards = 2;
  std::uint32_t seeds_per_shard = 4;
  std::uint32_t max_depth = 5;
};

/// One execution of a case's program on a set of schedulers (size 1 =
/// the plain-scheduler oracle, which maps every synthetic shard onto
/// the same heap but keeps per-shard logs separate).
struct ProgramRun {
  std::vector<std::vector<std::string>> logs;  // indexed by synthetic shard

  // Bookkeeping is kept per synthetic shard for the same reason logs
  // are: during parallel drains each shard executes on its own worker
  // thread, so a single shared counter would be a data race. Distinct
  // vector elements are distinct memory locations, and the engine's
  // barrier orders windows, so per-shard cells are safe.
  std::uint64_t fired() const {
    std::uint64_t total = 0;
    for (const ShardTally& t : tally_) total += t.fired;
    return total;
  }
  bool clock_ok() const {
    for (const ShardTally& t : tally_) {
      if (!t.clock_ok) return false;
    }
    return true;
  }

  void install(const CaseParams& p, std::vector<sim::Scheduler*> scheds) {
    logs.assign(p.shards, {});
    tally_.assign(p.shards, {});
    scheds_ = std::move(scheds);
    params_ = p;
    for (std::size_t s = 0; s < p.shards; ++s) {
      for (std::uint32_t i = 0; i < p.seeds_per_shard; ++i) {
        const std::uint64_t label = hash_mix(p.seed, s * 1000 + i);
        // Seed times quantized to lookahead/4: cross-shard ties from
        // the very first window.
        const sim::SimTime t =
            kLookahead * 0.25 * static_cast<double>(label % 16);
        schedule(s, label, t, /*depth=*/0, /*border=*/(label >> 8) % 3 == 0);
      }
    }
  }

 private:
  sim::Scheduler& sched_of(std::size_t shard) {
    return *scheds_[scheds_.size() == 1 ? 0 : shard];
  }

  void schedule(std::size_t shard, std::uint64_t label, sim::SimTime t,
                std::uint32_t depth, bool border) {
    // Owner ids must be disjoint across synthetic shards: an owner's
    // events live on one shard, so only that shard's drains write its
    // counter.
    const auto owner =
        static_cast<std::uint32_t>(shard * 4096 + (label % 4096));
    sim::Scheduler& sched = sched_of(shard);
    if (sched.now() > t) {
      // Engine seams never allow this; reachable only via a bug in the
      // program generator itself.
      ADD_FAILURE() << "program scheduled into the past";
      return;
    }
    sched.at(
        t,
        [this, shard, label, t, depth, border] {
          fire(shard, label, t, depth, border);
        },
        owner, border);
  }

  void fire(std::size_t shard, std::uint64_t label, sim::SimTime t,
            std::uint32_t depth, bool border) {
    ++tally_[shard].fired;
    if (sched_of(shard).now() != t) tally_[shard].clock_ok = false;
    logs[shard].push_back(std::to_string(shard) + ":" +
                          std::to_string(label) + "@" +
                          std::to_string(t.seconds()));
    if (depth >= params_.max_depth) return;
    const std::uint64_t h = hash_mix(params_.seed, label);
    const std::uint32_t children = h % 3;  // 0..2 keeps the tree bounded
    for (std::uint32_t c = 0; c < children; ++c) {
      const std::uint64_t ch = hash_mix(h, c + 1);
      const std::uint64_t child_label = hash_mix(ch, depth + 1);
      const bool child_border = ch % 4 == 0;
      const bool cross_shard = border && params_.shards > 1 && ch % 3 == 0;
      const std::size_t target =
          cross_shard ? (shard + 1 + ch % (params_.shards - 1)) % params_.shards
                      : shard;
      // Delays quantized to lookahead/4, including exact-lookahead and
      // exact-zero (for gate events) — the boundary-hostile cases.
      sim::SimTime delay = kLookahead * 0.25 * static_cast<double>(ch % 9);
      if (!border && child_border) {
        // Drain-executed events honour the spawn floor for border
        // children: at least one full lookahead ahead.
        delay += kLookahead;
      }
      const sim::SimTime child_t = t + delay;
      if (cross_shard) {
        // Only gate-executed (border) events reach a foreign shard;
        // advance its clock to the acting instant first, as the
        // channel does for cross-shard delivery.
        sched_of(target).advance_to(t);
      }
      schedule(target, child_label, child_t, depth + 1, child_border);
    }
  }

  struct ShardTally {
    std::uint64_t fired = 0;
    bool clock_ok = true;
  };
  std::vector<ShardTally> tally_;
  std::vector<sim::Scheduler*> scheds_;
  CaseParams params_;
};

/// Run the case's program through a fresh engine (one scheduler per
/// synthetic shard).
ProgramRun run_engine(const CaseParams& p, runner::ThreadPool& pool,
                      bool serialize_all, std::uint64_t* violations) {
  const auto scheds = make_shards(p.shards);
  const std::vector<sim::Scheduler*> raw = raw_ptrs(scheds);
  ShardEngine engine(raw, kLookahead, pool);
  ProgramRun run;
  run.install(p, raw);
  engine.run(sim::SimTime::infinity(), serialize_all);
  if (violations) *violations = engine.stats().lookahead_violations;
  return run;
}

std::size_t case_count() {
  if (const char* env = std::getenv("ICPDA_LOOKAHEAD_CASES")) {
    return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  return 5000;
}

TEST(ShardLookaheadTest, RandomizedBorderAdversarialSweep) {
  runner::ThreadPool pool(8);
  const std::size_t cases = case_count();
  std::uint64_t total_fired = 0;

  for (std::size_t i = 0; i < cases; ++i) {
    CaseParams p;
    p.seed = hash_mix(0x10CA11EAD, i);
    p.shards = 2 + p.seed % 7;  // 2..8
    p.seeds_per_shard = 2 + (p.seed >> 8) % 4;
    p.max_depth = 3 + (p.seed >> 16) % 4;

    std::uint64_t violations = 0;
    const ProgramRun par = run_engine(p, pool, /*serialize_all=*/false,
                                      &violations);
    const ProgramRun ser = run_engine(p, pool, /*serialize_all=*/true, nullptr);

    sim::Scheduler single;
    ProgramRun ref;
    ref.install(p, {&single});
    single.run();

    SCOPED_TRACE("case " + std::to_string(i) + " shards=" +
                 std::to_string(p.shards));
    ASSERT_EQ(violations, 0u);
    ASSERT_TRUE(par.clock_ok());
    ASSERT_TRUE(ser.clock_ok());
    ASSERT_TRUE(ref.clock_ok());
    // Strategy independence: window placement never changes dispatch.
    ASSERT_EQ(par.fired(), ser.fired());
    for (std::size_t s = 0; s < p.shards; ++s) {
      ASSERT_EQ(par.logs[s], ser.logs[s]) << "shard " << s;
    }
    // Sharded equals single-heap, exactly: same dispatches in the same
    // per-shard order, none lost, none doubled.
    ASSERT_EQ(par.fired(), ref.fired());
    for (std::size_t s = 0; s < p.shards; ++s) {
      ASSERT_EQ(par.logs[s], ref.logs[s]) << "shard " << s;
    }
    total_fired += par.fired();
  }
  // The sweep must be exercising real work, not vacuous empty programs.
  EXPECT_GT(total_fired, cases * 10);
}

// Micro-instant gating, hand-adversarial: border and interior events
// stacked on one IDENTICAL timestamp across both shards, zero-delay
// border chains extending the gated instant onto the other shard, and
// interior followers inside the same lookahead window. 64 variants
// permute which shard hosts the root, whether a second border event
// ties at the instant, owner-id assignment, and installation order
// (which varies every install counter) — the per-shard dispatch logs
// must be identical between the windowed run, the fully serialized
// gate and a single scheduler regardless, and the engine's
// gate/parallel split must account for every fired event.
TEST(ShardLookaheadTest, SameInstantInteriorBorderInterleavings) {
  runner::ThreadPool pool(4);
  const sim::SimTime t0 = kLookahead * 4.0;
  const sim::SimTime quarter = kLookahead * 0.25;

  for (std::uint32_t v = 0; v < 64; ++v) {
    const std::size_t root_shard = v & 1;
    const std::size_t other = 1 - root_shard;
    const bool tie_border_other = (v & 2) != 0;
    const bool owners_inverted = (v & 4) != 0;
    const std::uint32_t perm = (v >> 3) % 6;

    // mode 0: engine, parallel windows; 1: engine, serialize_all;
    // 2: plain single scheduler (exactly-once oracle).
    auto run_program = [&](int mode, std::uint64_t* accounted)
        -> std::vector<std::vector<std::string>> {
      std::vector<std::vector<std::string>> logs(2);
      const auto scheds = make_shards(mode == 2 ? 1 : 2);
      const std::vector<sim::Scheduler*> raw = raw_ptrs(scheds);
      auto sched_of = [&raw](std::size_t shard) -> sim::Scheduler& {
        return *raw[raw.size() == 1 ? 0 : shard];
      };
      auto owner = [owners_inverted](std::size_t shard, std::uint32_t i) {
        return static_cast<std::uint32_t>(shard * 4096 +
                                          (owners_inverted ? 100 - i : i));
      };

      // Group A: root border event; from the gate it extends the
      // instant with a same-instant border child on the OTHER shard,
      // which drops a same-instant interior grandchild there plus an
      // in-window interior follower back home.
      auto install_a = [&] {
        sched_of(root_shard).at(
            t0,
            [&logs, &sched_of, owner, root_shard, other, t0, quarter] {
              logs[root_shard].push_back("A");
              sched_of(other).advance_to(t0);
              sched_of(other).at(
                  t0,
                  [&logs, &sched_of, owner, other, t0] {
                    logs[other].push_back("A.b");
                    sched_of(other).at(
                        t0, [&logs, other] { logs[other].push_back("A.b.i"); },
                        owner(other, 3), false);
                  },
                  owner(other, 2), true);
              sched_of(root_shard).at(
                  t0 + quarter,
                  [&logs, root_shard] { logs[root_shard].push_back("A.f"); },
                  owner(root_shard, 4), false);
            },
            owner(root_shard, 1), true);
      };
      // Group B: interior events tying the gated instant on BOTH
      // shards (they must drain inside the gate, in canonical order),
      // optionally plus a second border event tying on the other shard.
      auto install_b = [&] {
        sched_of(root_shard).at(
            t0, [&logs, root_shard] { logs[root_shard].push_back("B0"); },
            owner(root_shard, 10), false);
        sched_of(other).at(
            t0, [&logs, other] { logs[other].push_back("B1"); },
            owner(other, 11), false);
        if (tie_border_other) {
          sched_of(other).at(
              t0, [&logs, other] { logs[other].push_back("B2"); },
              owner(other, 12), true);
        }
      };
      // Group C: interior followers strictly inside the same window.
      auto install_c = [&] {
        sched_of(root_shard).at(
            t0 + quarter,
            [&logs, root_shard] { logs[root_shard].push_back("C0"); },
            owner(root_shard, 20), false);
        sched_of(other).at(
            t0 + quarter * 3.0,
            [&logs, other] { logs[other].push_back("C1"); },
            owner(other, 21), false);
      };

      // Permute installation order: every order assigns different
      // install counters, so same-instant ties are broken differently
      // unless the gate merges by exactly the heaps' key.
      const std::array<std::array<int, 3>, 6> perms{{{0, 1, 2},
                                                     {0, 2, 1},
                                                     {1, 0, 2},
                                                     {1, 2, 0},
                                                     {2, 0, 1},
                                                     {2, 1, 0}}};
      for (const int g : perms[perm]) {
        if (g == 0) install_a();
        if (g == 1) install_b();
        if (g == 2) install_c();
      }

      if (mode == 2) {
        scheds[0]->run();
      } else {
        ShardEngine engine(raw, kLookahead, pool);
        engine.run(sim::SimTime::infinity(), /*serialize_all=*/mode == 1);
        EXPECT_EQ(engine.stats().lookahead_violations, 0u);
        if (accounted != nullptr) {
          *accounted =
              engine.stats().gate_events + engine.stats().parallel_events;
        }
      }
      return logs;
    };

    SCOPED_TRACE("variant " + std::to_string(v));
    std::uint64_t accounted = 0;
    const auto par = run_program(0, &accounted);
    const auto ser = run_program(1, nullptr);
    const auto ref = run_program(2, nullptr);

    // Strategy independence, exactly: per-shard logs identical between
    // windowed and fully serialized execution.
    ASSERT_EQ(par[0], ser[0]);
    ASSERT_EQ(par[1], ser[1]);
    // And equal to the single scheduler, in order.
    ASSERT_EQ(par[0], ref[0]);
    ASSERT_EQ(par[1], ref[1]);
    // The engine's own accounting covers every dispatched event.
    ASSERT_EQ(accounted, par[0].size() + par[1].size());
  }
}

// Engine construction contracts: misuse fails fast, loudly.
TEST(ShardLookaheadTest, ConstructorRejectsMisuse) {
  runner::ThreadPool pool(2);
  const auto shared = make_shards(3);
  sim::Scheduler* a = shared[0].get();
  EXPECT_THROW(ShardEngine({}, kLookahead, pool), std::invalid_argument);
  EXPECT_THROW(ShardEngine({a}, sim::SimTime::zero(), pool),
               std::invalid_argument);
  EXPECT_THROW(ShardEngine(raw_ptrs(shared), kLookahead, pool),
               std::invalid_argument);  // pool smaller than shard count
  // Keys are comparable across shards only with one shared table, and
  // parallel drains need it fixed-size.
  const auto other = make_shards(1);
  EXPECT_THROW(ShardEngine({a, other[0].get()}, kLookahead, pool),
               std::invalid_argument);
  sim::Scheduler own_a, own_b;
  EXPECT_THROW(ShardEngine({&own_a, &own_b}, kLookahead, pool),
               std::invalid_argument);
}

// An exception thrown inside an event must not deadlock the barrier:
// every worker unwinds, and run() rethrows the original error.
TEST(ShardLookaheadTest, EventExceptionPropagatesWithoutDeadlock) {
  runner::ThreadPool pool(4);
  const auto scheds = make_shards(2);
  scheds[0]->at(sim::seconds(0.5), [] { throw std::runtime_error("boom"); }, 7);
  scheds[1]->at(sim::seconds(1.0), [] {}, 9);
  ShardEngine engine(raw_ptrs(scheds), kLookahead, pool);
  EXPECT_THROW(engine.run(sim::SimTime::infinity(), false), std::runtime_error);
}

// The first exception wins wherever it is thrown, and every worker
// returns. An interior event that throws in a parallel drain (the
// worker's catch) stops the run before the gate plays a later border
// event; a border event that throws in the gate (the re-plan's catch)
// stops it before a later interior event drains. run() rethrows the
// first error either way, and the pool then takes new work.
TEST(ShardLookaheadTest, FirstExceptionWinsInDrainOrGate) {
  runner::ThreadPool pool(2);
  for (const bool drain_first : {true, false}) {
    SCOPED_TRACE(drain_first ? "drain throws first" : "gate throws first");
    const auto scheds = make_shards(2);
    std::atomic<int> drain_runs{0};
    std::atomic<int> gate_runs{0};
    const sim::SimTime early = kLookahead * 2.0;
    const sim::SimTime late = kLookahead * 8.0;
    scheds[0]->at(
        drain_first ? early : late,
        [&drain_runs] {
          ++drain_runs;
          throw std::runtime_error("drain");
        },
        1, /*border=*/false);
    scheds[1]->at(
        drain_first ? late : early,
        [&gate_runs] {
          ++gate_runs;
          throw std::runtime_error("gate");
        },
        4096 + 1, /*border=*/true);
    ShardEngine engine(raw_ptrs(scheds), kLookahead, pool);
    try {
      engine.run(sim::SimTime::infinity(), /*serialize_all=*/false);
      ADD_FAILURE() << "run() returned without rethrowing";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), drain_first ? "drain" : "gate");
    }
    EXPECT_EQ(drain_runs.load(), drain_first ? 1 : 0);
    EXPECT_EQ(gate_runs.load(), drain_first ? 0 : 1);
    pool.submit([] {}).get();
  }
}

}  // namespace
}  // namespace icpda::net
