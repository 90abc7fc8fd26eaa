// The campaign runner: sweep grids, JSONL schema/escaping, the thread
// pool, CLI parsing, multi-table bench_main, and — the load-bearing
// property — byte-identical campaign output at every thread count.
#include "runner/campaign.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/cli.h"
#include "runner/jsonl.h"
#include "runner/progress.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "sim/rng.h"
#include "sim/shard.h"

namespace icpda::runner {
namespace {

// ---- Sweep -----------------------------------------------------------

TEST(SweepTest, RowMajorEnumerationMatchesNestedLoops) {
  Sweep s;
  s.axis("n", {200, 400, 600}).axis("rate", {0.0, 0.5});
  ASSERT_EQ(s.point_count(), 6u);
  // Same order as: for n { for rate { ... } }
  std::vector<std::pair<double, double>> got;
  for (std::size_t i = 0; i < s.point_count(); ++i) {
    const Point p = s.point(i);
    got.emplace_back(p.get("n"), p.get("rate"));
  }
  const std::vector<std::pair<double, double>> want = {
      {200, 0.0}, {200, 0.5}, {400, 0.0}, {400, 0.5}, {600, 0.0}, {600, 0.5}};
  EXPECT_EQ(got, want);
}

TEST(SweepTest, SingleAndZeroAxisGrids) {
  Sweep justone;
  justone.axis("x", {7.0});
  EXPECT_EQ(justone.point_count(), 1u);
  EXPECT_DOUBLE_EQ(justone.point(0).get("x"), 7.0);

  const Sweep empty;  // axis-less sweep = one implicit point
  EXPECT_EQ(empty.point_count(), 1u);
}

TEST(SweepTest, UnknownAxisThrows) {
  Sweep s;
  s.axis("n", {1, 2});
  EXPECT_THROW(static_cast<void>(s.point(0).get("m")), std::out_of_range);
}

TEST(SweepTest, EmptyAxisRejected) {
  Sweep s;
  EXPECT_THROW(s.axis("n", {}), std::invalid_argument);
}

TEST(SweepTest, CategoricalAxisLabels) {
  Sweep s;
  s.categorical("policy", {"clear", "drop"}).axis("n", {100, 200});
  ASSERT_EQ(s.point_count(), 4u);
  EXPECT_EQ(s.point(0).label("policy"), "clear");
  EXPECT_EQ(s.point(2).label("policy"), "drop");
  EXPECT_DOUBLE_EQ(s.point(2).get("policy"), 1.0);
  EXPECT_EQ(s.point(1).label("n"), "200");  // numeric fallback label
}

// ---- JsonRow / JsonlSink --------------------------------------------

TEST(JsonlTest, EscapesStringsProperly) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string_view("nul\x01", 4)), "nul\\u0001");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes through
}

TEST(JsonlTest, RowRendersInInsertionOrderWithFormatting) {
  JsonRow row;
  row.num("n", std::uint64_t{400})
      .num("rate", 0.131, 2)
      .str("policy", "clear")
      .boolean("ok", true)
      .num("nan_is_null", std::nan(""), 3);
  EXPECT_EQ(row.to_line(),
            "{\"n\": 400, \"rate\": 0.13, \"policy\": \"clear\", \"ok\": true, "
            "\"nan_is_null\": null}");
}

TEST(JsonlTest, SinkEnforcesStableSchema) {
  std::string out;
  JsonlSink sink = JsonlSink::to_buffer(&out);
  JsonRow first;
  first.num("a", 1).num("b", 2);
  sink.write(first);

  JsonRow reordered;
  reordered.num("b", 2).num("a", 1);
  EXPECT_THROW(sink.write(reordered), std::runtime_error);

  JsonRow extra;
  extra.num("a", 1).num("b", 2).num("c", 3);
  EXPECT_THROW(sink.write(extra), std::runtime_error);

  JsonRow ok;
  ok.num("a", 9).num("b", 8);
  sink.write(ok);
  EXPECT_EQ(sink.rows_written(), 2u);
  EXPECT_EQ(out, "{\"a\": 1, \"b\": 2}\n{\"a\": 9, \"b\": 8}\n");
}

TEST(JsonlTest, CommentLinesBypassSchema) {
  std::string out;
  JsonlSink sink = JsonlSink::to_buffer(&out);
  sink.comment("title line");
  JsonRow row;
  row.num("a", 1);
  sink.write(row);
  EXPECT_EQ(out, "# title line\n{\"a\": 1}\n");
}

// ---- ThreadPool ------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("cell exploded"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool must finish the queue, not drop it
  EXPECT_EQ(ran.load(), 50);
}

// ---- CLI -------------------------------------------------------------

RunnerOptions parse_or_die(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_x");
  RunnerOptions options;
  std::string error;
  const bool ok = parse_cli(static_cast<int>(args.size()),
                            const_cast<char**>(args.data()), options, error);
  EXPECT_TRUE(ok) << error;
  return options;
}

TEST(CliTest, ParsesAllFlags) {
  const auto o = parse_or_die(
      {"--threads=8", "--trials=20", "--points=0,3-5", "--out=/tmp/x.jsonl",
       "--no-progress"});
  EXPECT_EQ(o.threads, 8u);
  EXPECT_EQ(o.trials, 20);
  EXPECT_EQ(o.points, (std::vector<PointRange>{{0, 0}, {3, 5}}));
  EXPECT_EQ(o.out, "/tmp/x.jsonl");
  EXPECT_FALSE(o.progress);
  EXPECT_FALSE(o.help);
}

TEST(CliTest, SpaceSeparatedValuesAndHelp) {
  const auto o = parse_or_die({"--threads", "3", "--help"});
  EXPECT_EQ(o.threads, 3u);
  EXPECT_TRUE(o.help);
}

TEST(CliTest, ThreadsZeroMeansHardwareConcurrency) {
  const auto o = parse_or_die({"--threads=0"});
  EXPECT_EQ(o.threads, ThreadPool::default_threads());
  EXPECT_GE(o.threads, 1u);
}

TEST(CliTest, RejectsMalformedInput) {
  const char* cases[][2] = {{"--threads=abc", nullptr},
                            {"--trials=0", nullptr},
                            {"--trials=-3", nullptr},
                            {"--points=5-2", nullptr},
                            {"--points=", nullptr},
                            {"--bogus", nullptr},
                            // Counts that do not fit their field: 2^32
                            // threads used to wrap to 0 (a silent
                            // sequential run), 2^32 + 1 trials to 1.
                            {"--threads=4294967296", nullptr},
                            {"--threads=18446744073709551615", nullptr},
                            {"--trials=4294967297", nullptr},
                            {"--trials=2147483648", nullptr},
                            // Shards are threads: above the ceiling
                            // of 64, refused rather than started.
                            {"--shards=65", nullptr},
                            {"--shards=20000", nullptr},
                            {"--out", nullptr}};  // missing value
  for (const auto& c : cases) {
    const char* argv[] = {"bench_x", c[0]};
    RunnerOptions options;
    std::string error;
    EXPECT_FALSE(parse_cli(2, const_cast<char**>(argv), options, error))
        << c[0] << " should be rejected";
    EXPECT_FALSE(error.empty());
  }
}

TEST(CliTest, PointSpecRangesAndDedup) {
  std::vector<PointRange> points;
  ASSERT_TRUE(parse_point_spec("4,1-3,2", points));
  EXPECT_EQ(points, (std::vector<PointRange>{{1, 4}}));
  ASSERT_TRUE(parse_point_spec("9,0,2-3,5-6,4", points));
  EXPECT_EQ(points, (std::vector<PointRange>{{0, 0}, {2, 6}, {9, 9}}));
  // Ranges are kept, not expanded: the first spec used to loop forever
  // (p <= hi never turns false), the last to allocate ~32 GB.
  ASSERT_TRUE(parse_point_spec("0-18446744073709551615,7", points));
  EXPECT_EQ(points, (std::vector<PointRange>{{0, 18446744073709551615ull}}));
  ASSERT_TRUE(parse_point_spec("18446744073709551615,18446744073709551614", points));
  EXPECT_EQ(points, (std::vector<PointRange>{{18446744073709551614ull,
                                              18446744073709551615ull}}));
  ASSERT_TRUE(parse_point_spec("0-4000000000", points));
  EXPECT_EQ(points, (std::vector<PointRange>{{0, 4000000000ull}}));
  EXPECT_FALSE(parse_point_spec("1,,2", points));
  EXPECT_FALSE(parse_point_spec("a-b", points));
}

TEST(CliTest, CountsAtTheirFieldsLimitsAndEnvThreadsThatWouldWrap) {
  const auto edge = parse_or_die({"--threads=4294967295", "--trials=2147483647"});
  EXPECT_EQ(edge.threads, 4294967295u);
  EXPECT_EQ(edge.trials, 2147483647);

  setenv("ICPDA_THREADS", "4294967296", 1);
  const char* argv[] = {"bench_x"};
  RunnerOptions options;
  std::string error;
  EXPECT_FALSE(parse_cli(1, const_cast<char**>(argv), options, error));
  EXPECT_NE(error.find("ICPDA_THREADS"), std::string::npos) << error;
  unsetenv("ICPDA_THREADS");
}

TEST(CliTest, ShardCeilingHoldsForFlagAndEnv) {
  // Each shard is a thread: ICPDA_SHARDS=20000 would start 20000 of
  // them (the flag's out-of-range cases are in RejectsMalformedInput).
  EXPECT_EQ(parse_or_die({"--shards=64"}).shards, sim::kMaxShards);
  setenv("ICPDA_SHARDS", "20000", 1);
  const char* argv[] = {"bench_x"};
  RunnerOptions options;
  std::string error;
  EXPECT_FALSE(parse_cli(1, const_cast<char**>(argv), options, error));
  EXPECT_NE(error.find("ICPDA_SHARDS"), std::string::npos) << error;
  EXPECT_EQ(options.shards, 1u);
  unsetenv("ICPDA_SHARDS");
}

// ---- Campaign end-to-end --------------------------------------------

/// A small campaign whose cells do seed-dependent pseudo-work, enough
/// to make scheduling races visible if the reduction were ordered by
/// completion instead of by declaration.
Campaign test_campaign() {
  Campaign c;
  c.name = "unit-test campaign";
  c.label = "test";
  c.experiment = 77;
  c.sweep.axis("x", {1, 2, 3, 4}).axis("y", {0.5, 1.5});
  c.trials = 6;
  c.cell = [](CellContext& ctx) {
    sim::Rng rng(ctx.seed);
    // Uneven work per cell to shuffle completion order across threads.
    const int spins = 1 + static_cast<int>(rng.below(2000));
    double acc = 0;
    for (int i = 0; i < spins; ++i) acc += rng.uniform();
    ctx.metrics.observe("acc", acc);
    ctx.metrics.observe("spins", spins);
    ctx.metrics.add("cells");
  };
  c.row = [](const Point& p, const PointSummary& s, JsonRow& row) {
    row.num("x", p.get("x"), 0)
        .num("y", p.get("y"), 1)
        .num("cells", s.metrics.counter("cells"))
        .num("acc_mean", s.metrics.stat("acc").mean(), 9)
        .num("spins_mean", s.metrics.stat("spins").mean(), 3)
        .num("spins_sd", s.metrics.stat("spins").stddev(), 6);
  };
  return c;
}

std::string run_to_string(const Campaign& c, RunnerOptions options) {
  options.progress = false;
  std::string out;
  JsonlSink sink = JsonlSink::to_buffer(&out);
  EXPECT_EQ(run_campaign(c, options, sink), 0);
  return out;
}

TEST(CampaignTest, OutputIsByteIdenticalAcrossThreadCounts) {
  const Campaign c = test_campaign();
  RunnerOptions sequential;
  sequential.threads = 1;
  const std::string baseline = run_to_string(c, sequential);
  EXPECT_FALSE(baseline.empty());

  for (const unsigned threads : {2u, 4u, 8u}) {
    RunnerOptions parallel;
    parallel.threads = threads;
    EXPECT_EQ(run_to_string(c, parallel), baseline) << "threads=" << threads;
  }
}

TEST(CampaignTest, PointSubsetReproducesFullGridRows) {
  const Campaign c = test_campaign();
  RunnerOptions full;
  full.threads = 2;
  const std::string all = run_to_string(c, full);

  RunnerOptions subset;
  subset.threads = 2;
  subset.points = {{2, 2}, {5, 5}};
  const std::string some = run_to_string(c, subset);

  // Each subset row must appear verbatim in the full output: seeds
  // derive from the flat grid index, not the subset position.
  std::size_t pos = 0;
  int rows = 0;
  for (std::size_t nl = some.find('\n'); nl != std::string::npos;
       pos = nl + 1, nl = some.find('\n', pos)) {
    const std::string line = some.substr(pos, nl - pos);
    if (line.rfind("# ", 0) == 0) continue;
    EXPECT_NE(all.find(line), std::string::npos) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 2);
}

TEST(CampaignTest, TrialsOverrideAndHeaderComments) {
  const Campaign c = test_campaign();
  RunnerOptions options;
  options.trials = 2;
  const std::string out = run_to_string(c, options);
  EXPECT_NE(out.find("# unit-test campaign\n"), std::string::npos);
  EXPECT_NE(out.find("# trials per point: 2\n"), std::string::npos);
  EXPECT_NE(out.find("\"cells\": 2"), std::string::npos);
}

TEST(CampaignTest, FailingCellReportsErrorExit) {
  Campaign c = test_campaign();
  c.cell = [](CellContext&) { throw std::runtime_error("boom"); };
  RunnerOptions options;
  options.progress = false;
  std::string out;
  JsonlSink sink = JsonlSink::to_buffer(&out);
  EXPECT_EQ(run_campaign(c, options, sink), 1);

  RunnerOptions parallel = options;
  parallel.threads = 4;
  std::string out2;
  JsonlSink sink2 = JsonlSink::to_buffer(&out2);
  EXPECT_EQ(run_campaign(c, parallel, sink2), 1);
}

TEST(CampaignTest, OutOfRangePointIndexIsRejected) {
  const Campaign c = test_campaign();
  RunnerOptions options;
  options.progress = false;
  options.points = {{99, 99}};
  std::string out;
  JsonlSink sink = JsonlSink::to_buffer(&out);
  EXPECT_EQ(run_campaign(c, options, sink), 1);
  // A range reaching past the grid is refused before it is expanded.
  options.points = {{0, 18446744073709551615ull}};
  EXPECT_EQ(run_campaign(c, options, sink), 1);
  EXPECT_EQ(sink.rows_written(), 0u);
}

TEST(CampaignTest, PoolStartsTheLastDeclaredCellsFirst) {
  // Two workers, and each of the first two cells waits until both
  // have started, so neither worker can finish one and take a third:
  // the two cells that start first are exactly the first two the pool
  // dispatches. They must be the last declared point's trials.
  Campaign c = test_campaign();  // 8 points x 2 trials = 16 slots
  c.trials = 2;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::size_t, int>> started;
  bool both_started = true;
  c.cell = [&](CellContext& ctx) {
    std::unique_lock lock(mu);
    started.emplace_back(ctx.point.index(), ctx.trial);
    if (started.size() > 2) return;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(20), [&] { return started.size() >= 2; })) {
      both_started = false;
    }
  };
  c.row = [](const Point& p, const PointSummary&, JsonRow& row) {
    row.num("x", p.get("x"), 0).num("y", p.get("y"), 1);
  };
  RunnerOptions options;
  options.threads = 2;
  const std::string out = run_to_string(c, options);
  ASSERT_TRUE(both_started) << "the first two cells never overlapped";
  ASSERT_EQ(started.size(), 16u);
  const std::set<std::pair<std::size_t, int>> first(started.begin(), started.begin() + 2);
  EXPECT_EQ(first, (std::set<std::pair<std::size_t, int>>{{7, 0}, {7, 1}}));
  // Rows still come out in declaration order, one per point.
  std::size_t at = 0;
  for (const char* x : {"\"x\": 1, \"y\": 0.5", "\"x\": 1, \"y\": 1.5", "\"x\": 4, \"y\": 1.5"}) {
    at = out.find(x, at);
    EXPECT_NE(at, std::string::npos) << x << " out of order in\n" << out;
  }
}

TEST(CampaignTest, PoolIsNoLargerThanTheCellCount) {
  // Counts the process's threads from inside a cell: 64 workers for
  // two cells would show as 65 or more.
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "no /proc/self/task";
  Campaign c = test_campaign();
  c.sweep = Sweep{};
  c.sweep.axis("x", {1}).axis("y", {0.5, 1.5});
  c.trials = 1;
  std::atomic<std::size_t> most{0};
  c.cell = [&most](CellContext& ctx) {
    const auto tasks = static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator{}));
    std::size_t seen = most.load();
    while (seen < tasks && !most.compare_exchange_weak(seen, tasks)) {
    }
    ctx.metrics.add("cells");
  };
  c.row = [](const Point&, const PointSummary& s, JsonRow& row) {
    row.num("cells", s.metrics.counter("cells"));
  };
  RunnerOptions options;
  options.threads = 64;
  run_to_string(c, options);
  EXPECT_GE(most.load(), 2u);
  EXPECT_LT(most.load(), 10u);  // the caller, two workers, a sanitizer's own
}

TEST(CampaignTest, ShardsAndTraceReachCellsAndRows) {
  unsetenv("ICPDA_SHARDS");
  const RunnerOptions options = parse_or_die({"--shards=4", "--trace"});
  // The shard count travels in CellContext, not through the process
  // environment.
  EXPECT_EQ(std::getenv("ICPDA_SHARDS"), nullptr);

  Campaign c = test_campaign();
  c.cell = [](CellContext& ctx) {
    ctx.metrics.observe("shards", static_cast<double>(ctx.shards));
    if (ctx.trace) ctx.metrics.add("traced");
  };
  c.row = [](const Point&, const PointSummary& s, JsonRow& row) {
    row.num("shards", s.metrics.stat("shards").mean(), 0)
        .num("traced", s.metrics.counter("traced"))
        .boolean("trace", s.trace);
  };
  const std::string out = run_to_string(c, options);
  EXPECT_NE(out.find("{\"shards\": 4, \"traced\": 6, \"trace\": true}\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("\"shards\": 1"), std::string::npos) << out;
}

// ---- bench_main over several tables -----------------------------------

/// Two tables with different row schemas: x in {1,2,3}, then y in {10,20}.
std::array<Campaign, 2> two_tables() {
  std::array<Campaign, 2> tables;
  tables[0].name = "table A";
  tables[0].experiment = 1;
  tables[0].sweep.axis("x", {1, 2, 3});
  tables[1].name = "table B";
  tables[1].experiment = 2;
  tables[1].sweep.axis("y", {10, 20});
  for (Campaign& c : tables) {
    c.trials = 2;
    c.cell = [](CellContext& ctx) { ctx.metrics.add("cells"); };
  }
  tables[0].row = [](const Point& p, const PointSummary& s, JsonRow& row) {
    row.num("x", p.get("x"), 0).num("cells", s.metrics.counter("cells"));
  };
  tables[1].row = [](const Point& p, const PointSummary&, JsonRow& row) {
    row.str("y", p.label("y"));
  };
  return tables;
}

/// Run bench_main with `args` writing to a temp --out file; returns
/// the exit code and fills `out` with the file's contents.
int bench_main_to_string(std::span<const Campaign> tables, std::vector<std::string> args,
                         std::string& out) {
  // Named per test: ctest runs each test as its own process, in
  // parallel, so a shared file name lets two tests clobber each other.
  const std::string path = testing::TempDir() + "runner_test_" +
                           testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".jsonl";
  std::remove(path.c_str());
  args.insert(args.begin(), {"bench_x", "--no-progress", "--out=" + path});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const int rc = bench_main(tables, static_cast<int>(argv.size()), argv.data());
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  out = text.str();
  return rc;
}

TEST(BenchMainTest, TablesShareOneOutFileWithTheirOwnSchemas) {
  const auto tables = two_tables();
  std::string out;
  ASSERT_EQ(bench_main_to_string(tables, {"--threads=2"}, out), 0);
  EXPECT_EQ(out,
            "# table A\n# trials per point: 2\n"
            "{\"x\": 1, \"cells\": 2}\n{\"x\": 2, \"cells\": 2}\n{\"x\": 3, \"cells\": 2}\n"
            "# table B\n# trials per point: 2\n"
            "{\"y\": \"10\"}\n{\"y\": \"20\"}\n");

  // Each table still holds its rows to its own first row's schema.
  auto broken = two_tables();
  broken[1].row = [](const Point& p, const PointSummary&, JsonRow& row) {
    row.num(p.index() == 0 ? "y" : "z", p.get("y"), 0);
  };
  EXPECT_EQ(bench_main_to_string(broken, {}, out), 1);
}

TEST(BenchMainTest, PointsIndexTheConcatenatedTables) {
  const auto tables = two_tables();
  std::string out;
  // Flat indices 0-2 are table A's points, 3-4 table B's.
  ASSERT_EQ(bench_main_to_string(tables, {"--points=2,3"}, out), 0);
  EXPECT_EQ(out,
            "# table A\n# trials per point: 2\n{\"x\": 3, \"cells\": 2}\n"
            "# table B\n# trials per point: 2\n{\"y\": \"10\"}\n");
  // A table with no selected point is skipped, header included.
  ASSERT_EQ(bench_main_to_string(tables, {"--points=4"}, out), 0);
  EXPECT_EQ(out, "# table B\n# trials per point: 2\n{\"y\": \"20\"}\n");
  // Out-of-grid specs are refused before anything runs, huge ranges
  // included (they are never expanded).
  for (const char* spec : {"--points=5", "--points=0-18446744073709551615",
                           "--points=0-4000000000", "--points=1,5-4000000000"}) {
    EXPECT_EQ(bench_main_to_string(tables, {spec}, out), 1) << spec;
    EXPECT_EQ(out, "") << spec;
  }
  // A range is split at the table boundary.
  ASSERT_EQ(bench_main_to_string(tables, {"--points=1-3"}, out), 0);
  EXPECT_EQ(out,
            "# table A\n# trials per point: 2\n{\"x\": 2, \"cells\": 2}\n"
            "{\"x\": 3, \"cells\": 2}\n"
            "# table B\n# trials per point: 2\n{\"y\": \"10\"}\n");
}

// ---- Seeds -----------------------------------------------------------

TEST(SeedMixTest, NoCollisionsAcrossRealisticTupleGrid) {
  // Every (experiment, point, trial) tuple a bench could plausibly
  // form; the old linear form collides in this range (e.g.
  // e*1000003 + p*1009 + t: (2,0,0) vs (1,991,84)).
  std::set<std::uint64_t> seen;
  std::size_t tuples = 0;
  for (std::uint64_t e = 1; e <= 18; ++e) {
    for (std::uint64_t p = 0; p < 40; ++p) {
      for (std::uint64_t t = 0; t < 50; ++t) {
        seen.insert(sim::seed_mix(e, p, t));
        ++tuples;
      }
    }
  }
  EXPECT_EQ(seen.size(), tuples);
  // And the historical collision pair is gone:
  EXPECT_NE(sim::seed_mix(2, 0, 0), sim::seed_mix(1, 991, 84));
}

}  // namespace
}  // namespace icpda::runner
