#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>

#include "crypto/keyring.h"
#include "layers.h"
#include "proto/epoch.h"
#include "runner/campaign.h"
#include "runner/thread_pool.h"
#include "service/dispatcher.h"
#include "service/mux.h"
#include "sim/rng.h"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {

// ---- Statistics --------------------------------------------------------

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Mean over a sorted copy, so the result does not depend on the order
/// in which concurrent cells finished.
double mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// A p90 is reported only with at least ten samples beyond it.
constexpr std::size_t kP90MinSamples = 100;

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double sec(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

template <typename Fn>
std::uint64_t time_ns(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

// ---- Host speed --------------------------------------------------------

/// The reference kernel: a small discrete-event loop (a binary heap of
/// timestamps and random updates to a 1 MiB state table), the
/// simulator's kind of work in code the benchmark owns, so no change to
/// the program can move it.
double reference_ms() {
  constexpr std::size_t kState = std::size_t{1} << 17;
  constexpr std::uint32_t kPending = 4096;
  constexpr int kEvents = 65000;
  static std::vector<std::uint64_t> state(kState);
  std::uint64_t x = 0x1CDA2009;
  const auto next = [&x] { return x = x * 6364136223846793005ULL + 1442695040888963407ULL; };
  const std::uint64_t ns = time_ns([&] {
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    for (std::uint32_t id = 0; id < kPending; ++id) heap.emplace(next() >> 44, id);
    for (int e = 0; e < kEvents; ++e) {
      const auto [at, id] = heap.top();
      heap.pop();
      const std::uint64_t r = next();
      state[(r >> 33) % kState] += at ^ id;
      heap.emplace(at + 1 + (r >> 52), id);
    }
  });
  static volatile std::uint64_t keep;
  keep = state[x % kState];
  return ms(ns);
}

/// The reference kernel's time on the host of the fingerprint, a round
/// figure within the medians its runs report (7-11 ms).
constexpr double kReferenceMs = 10.0;

/// The host's speed over one timed run, sampled before every unit of
/// work. The shared hosts this runs on change speed by a third for
/// minutes at a time (README.md, "Host speed"), which moves the program
/// and the reference kernel alike, so host-time metrics are reported at
/// the reference speed: host time x kReferenceMs / the run's median
/// reference time.
struct HostSpeed {
  std::vector<double> ref_ms;

  void sample() { ref_ms.push_back(reference_ms()); }
  /// Factor from host time at this run's speed to the reference speed.
  [[nodiscard]] double scale() const { return kReferenceMs / median(ref_ms); }
  void report(Report& rep) const { rep.set("host.ref_ms", median(ref_ms), "ms", ref_ms.size()); }
};

std::vector<double> scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

/// Time summaries shared by every workload's untraced run.
/// `<name>_p50<suffix>`, and `<name>_p90<suffix>` where it is reportable.
void set_timing(Report& rep, const std::string& name, const std::string& suffix,
                const std::vector<double>& values, const std::string& unit) {
  rep.set(name + "_p50" + suffix, median(values), unit, values.size());
  if (values.size() >= kP90MinSamples) {
    rep.set(name + "_p90" + suffix, percentile(values, 90.0), unit, values.size());
  }
}

// ---- Inputs ------------------------------------------------------------

const crypto::MasterPairwiseScheme& keys() {
  static const crypto::MasterPairwiseScheme scheme{crypto::Key::from_seed(0x1CDA2009)};
  return scheme;
}

/// Every sensor of one unit reads the same value, so an accepted sum
/// must equal count x reading.
double reading_for(std::uint64_t seed, std::uint64_t unit) {
  return 1.0 + static_cast<double>(sim::seed_mix(seed, 0x4EAD, unit) % 1000) / 10.0;
}

/// Float-solve tolerance of the CPDA interpolation.
bool sum_matches(const proto::Aggregate& r, double reading) {
  const double expect = r.count * reading;
  return std::abs(r.sum - expect) <= 1e-6 * std::max(1.0, std::abs(expect));
}

bool benign_ok(const core::IcpdaOutcome& out, double reading) {
  return out.accepted() && out.result && sum_matches(*out.result, reading);
}

net::NetworkConfig field(std::size_t n, double side, std::uint64_t seed, std::size_t shards) {
  net::NetworkConfig cfg;
  cfg.node_count = n;
  cfg.field_width_m = side;
  cfg.field_height_m = side;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

unsigned workers() { return std::max(1u, runner::ThreadPool::default_threads()); }

/// Simulated latency of one epoch: from its start to the last report
/// merged at the base station.
double epoch_latency_s(const core::IcpdaOutcome& out, sim::SimTime start) {
  return (out.last_report_at - start).seconds();
}

void require_same(const core::IcpdaOutcome& untraced, std::uint64_t untraced_events,
                  const core::IcpdaOutcome& traced, std::uint64_t traced_events,
                  const std::string& where) {
  const std::string diff = outcome_diff(untraced, traced);
  if (!diff.empty()) {
    throw InvariantError(where + ": traced epoch differs from run_icpda_epoch in " + diff);
  }
  if (untraced_events != traced_events) {
    throw InvariantError(where + ": traced epoch executed " + std::to_string(traced_events) +
                         " events, run_icpda_epoch " + std::to_string(untraced_events));
  }
}

void require_engine_ok(const net::Network& net) {
  if (const net::ShardEngine* eng = net.shard_engine();
      eng != nullptr && eng->stats().lookahead_violations > 0) {
    throw InvariantError("shard engine reported " +
                         std::to_string(eng->stats().lookahead_violations) +
                         " lookahead violations");
  }
}

// ---- Per-layer accounting ----------------------------------------------

const std::vector<std::string> kChannelCounters{"tx_frames", "tx_bytes",  "rx_ok",
                                                "rx_collided", "rx_lost", "rx_halfduplex"};
const std::vector<std::string> kMacCounters{"tx_attempts", "tx_ok", "ack_timeout", "cs_busy",
                                            "tx_failed"};

using Counters = std::map<std::string, std::uint64_t, std::less<>>;

Counters counters_of(net::Network& net) { return net.metrics().counters(); }

std::uint64_t delta(const Counters& before, const Counters& after, const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

/// Everything the traced run of one workload reports.
struct Layers {
  /// Per traced unit: layer self times, replay times, overhead.
  std::vector<std::map<std::string, double>> unit_times;
  std::vector<double> build_ms;
  std::vector<double> ns_per_event;
  /// Counts of the first unit (deterministic in the seed).
  std::map<std::string, double> counts;
  FrameCensus census;
  std::map<std::uint32_t, std::uint32_t> cluster_sizes;
  net::Network::Footprint footprint;
  std::size_t footprint_nodes = 0;
  net::ShardEngine::Stats engine;
  double engine_run_us = 0.0;
  /// Traced epochs checked against run_icpda_epoch (or service runs
  /// against the untraced dispatcher).
  std::uint64_t reproduced = 0;

  void add_registry(const Counters& before, const Counters& after) {
    for (const auto& c : kChannelCounters) {
      counts["net.channel." + c] += static_cast<double>(delta(before, after, "channel." + c));
    }
    for (const auto& c : kMacCounters) {
      counts["net.mac." + c] += static_cast<double>(delta(before, after, "mac." + c));
    }
  }
  void add_footprint(const net::Network& net) {
    const net::Network::Footprint f = net.footprint();
    footprint.topology += f.topology;
    footprint.schedulers += f.schedulers;
    footprint.channel += f.channel;
    footprint.macs += f.macs;
    footprint.metrics += f.metrics;
    footprint.plan += f.plan;
    footprint.objects += f.objects;
    footprint_nodes += net.size();
  }
  void add_engine(const net::Network& net, std::uint64_t epoch_ns) {
    if (const net::ShardEngine* eng = net.shard_engine()) {
      engine = eng->stats();
      const std::uint64_t rounds = engine.rounds + engine.gate_rounds;
      engine_run_us = rounds > 0 ? static_cast<double>(epoch_ns) / 1e3 / static_cast<double>(rounds)
                                 : 0.0;
    }
  }
  /// One traced unit: `trace` covers the unit's traced epochs,
  /// `untraced_ns` the same work run by run_icpda_epoch.
  void add_unit(const UnitTrace& trace, std::uint64_t traced_ns, std::uint64_t untraced_ns) {
    std::map<std::string, double> t = layer_times(trace);
    t["trace.overhead_frac"] =
        untraced_ns > 0 ? static_cast<double>(traced_ns) / static_cast<double>(untraced_ns) - 1.0
                        : 0.0;
    if (unit_times.empty()) {
      for (const auto& [name, value] : layer_counts(trace.ledger)) counts[name] = value;
    }
    unit_times.push_back(std::move(t));
  }

  void emit(Report& rep) const {
    std::map<std::string, std::vector<double>> series;
    for (const auto& unit : unit_times) {
      for (const auto& [name, value] : unit) series[name].push_back(value);
    }
    for (const auto& [name, values] : series) {
      const bool frac = name.rfind("trace.", 0) == 0;
      rep.set(name, median(values), frac ? "frac" : "ms", values.size());
    }
    // Kernel replays over the first unit's recorded work, five times each.
    const auto replay = [&](const std::string& name, const std::function<double()>& fn) {
      std::vector<double> v;
      for (int i = 0; i < 5; ++i) v.push_back(fn());
      rep.set(name, median(v), "ms", v.size());
    };
    replay("proto.decode_replay_ms", [&] { return decode_replay_ms(census); });
    replay("crypto.seal_open_replay_ms", [&] { return seal_open_replay_ms(census); });
    replay("core.make_shares_replay_ms", [&] { return make_shares_replay_ms(cluster_sizes); });
    replay("core.solve_replay_ms", [&] { return solve_replay_ms(cluster_sizes); });

    rep.set("net.build_ms_p50", median(build_ms), "ms", build_ms.size());
    rep.set("sim.ns_per_event", median(ns_per_event), "ns", ns_per_event.size());
    for (const auto& [name, value] : counts) {
      rep.set(name, value, name == "net.channel.tx_bytes" ? "bytes" : "count");
    }
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const auto count = [&](const std::string& name) {
      const auto it = counts.find(name);
      return it == counts.end() ? 0.0 : it->second;
    };
    const double delivered = count("net.channel.rx_ok") + count("net.channel.rx_collided") +
                             count("net.channel.rx_lost") + count("net.channel.rx_halfduplex");
    rep.set("net.channel.rx_ok_ratio", ratio(count("net.channel.rx_ok"), delivered), "frac");
    rep.set("net.mac.tx_ok_ratio",
            ratio(count("net.mac.tx_ok"), count("net.mac.tx_attempts")), "frac");

    for (const auto& [type, name] : icpda_types()) {
      rep.set("proto.frames." + name, static_cast<double>(census.frames[type]), "count");
      rep.set("proto.bytes." + name, static_cast<double>(census.bytes[type]), "bytes");
    }

    rep.set("engine.rounds", static_cast<double>(engine.rounds), "count");
    rep.set("engine.gate_rounds", static_cast<double>(engine.gate_rounds), "count");
    rep.set("engine.gate_events", static_cast<double>(engine.gate_events), "count");
    rep.set("engine.parallel_events", static_cast<double>(engine.parallel_events), "count");
    rep.set("engine.lookahead_violations", static_cast<double>(engine.lookahead_violations),
            "count");
    rep.set("engine.parallel_fraction",
            ratio(static_cast<double>(engine.parallel_events),
                  static_cast<double>(engine.parallel_events + engine.gate_events)),
            "frac");
    if (engine_run_us > 0.0) rep.set("engine.us_per_round", engine_run_us, "us");

    const auto fp = [&](const std::string& name, std::size_t bytes) {
      rep.set("net.footprint." + name + "_bytes", static_cast<double>(bytes), "bytes");
    };
    fp("topology", footprint.topology);
    fp("schedulers", footprint.schedulers);
    fp("channel", footprint.channel);
    fp("macs", footprint.macs);
    fp("metrics", footprint.metrics);
    fp("plan", footprint.plan);
    fp("objects", footprint.objects);
    rep.set("net.footprint.bytes_per_node",
            ratio(static_cast<double>(footprint.total()), static_cast<double>(footprint_nodes)),
            "bytes");
    rep.set("trace.reproduced", static_cast<double>(reproduced), "count");
  }
};

/// Layers a workload does not run still print, at zero.
void zero_runner(Report& rep) { rep.set("runner.pool_busy_frac", 0.0, "frac"); }
void zero_service(Report& rep) {
  for (const char* name : {"instances", "completed", "dropped", "rejected"}) {
    rep.set(std::string("service.") + name, 0.0, "count");
  }
}

// ---- paper_campaign ----------------------------------------------------

const char* const kClasses[] = {"benign", "fault", "adversary"};

struct PaperCell {
  net::NetworkConfig net;
  EpochSpec spec;
  std::size_t cls = 0;
};

/// One cell of the paper tables: the 400 m field, and one of three
/// classes — benign, 10% crashes, or three colluding heads polluting the
/// aggregate against the digest cross-check. (A compromised fraction
/// instead of a fixed three floods N=600 cells with alarms: ~1 s each.
/// The default bias of 25 slips past the cross-check in about one cell
/// in a thousand, see README.md; a bias of 1000 never did in our runs.)
PaperCell paper_cell(std::size_t n, std::size_t cls, std::uint64_t seed) {
  PaperCell c;
  c.net = field(n, 400.0, seed, 1);
  c.cls = cls;
  c.spec.reading = reading_for(seed, 0);
  if (cls == 1) c.spec.faults.crash_probability = 0.1;
  if (cls == 2) {
    c.spec.config.timing.close_slack_s = 2.5;
    c.spec.config.hardening.epoch_tag = 1;
    c.spec.config.hardening.digest_crosscheck = true;
    c.spec.adversary.attack = core::AttackClass::kPollution;
    c.spec.adversary.pollution_delta = 1000.0;
    for (std::uint64_t k = 0; c.spec.adversary.compromised.size() < 3; ++k) {
      c.spec.adversary.compromised.insert(
          static_cast<net::NodeId>(1 + sim::seed_mix(seed, 0xADD, k) % (n - 1)));
    }
  }
  return c;
}

/// Benign: accepted with the exact sum. Crashes: the epoch still
/// closes with a result. Pollution: rejected, unless no compromised
/// head got to tamper and the result is exact.
bool paper_ok(const PaperCell& c, const core::IcpdaOutcome& out) {
  switch (c.cls) {
    case 0: return benign_ok(out, c.spec.reading);
    case 1: return out.result.has_value();
    default: return !out.accepted() || (out.pollution_events == 0 && benign_ok(out, c.spec.reading));
  }
}

struct PaperScale {
  std::vector<double> sizes;
  int trials;
  int min_rounds;
};

PaperScale paper_scale(const Options& opt) {
  if (opt.tiny) return {{120, 160}, 1, 1};
  return {{200, 300, 400, 500, 600}, 2, 10};
}

struct CellRecord {
  std::size_t cls = 0;
  int round = 0;
  double cell_ms = 0.0;  ///< Network construction + epoch
  double build_ms = 0.0;
  bool ok = false;
  bool answered = false;  ///< accepted with a result
  double latency_s = 0.0;
  double coverage = 0.0;
  std::string what;
};

/// Rounds of the cell grid on a Campaign pool (closed loop: each worker
/// takes the next cell when its last one finishes) until `budget_s`.
void paper_rounds(const Options& opt, double budget_s, int min_rounds,
                  std::vector<CellRecord>& cells, std::vector<double>& round_ms,
                  HostSpeed* speed = nullptr) {
  const PaperScale scale = paper_scale(opt);
  const unsigned threads = workers();
  const std::uint64_t start = now_ns();
  for (int r = 0; r < min_rounds || sec(now_ns() - start) < budget_s; ++r) {
    if (speed) speed->sample();
    runner::Campaign c;
    c.name = "perfbench paper_campaign";
    c.experiment = sim::seed_mix(opt.seed, 0xCA3A, static_cast<std::uint64_t>(r));
    c.sweep.axis("n", scale.sizes).categorical("class", {"benign", "fault", "adversary"});
    c.trials = scale.trials;
    std::mutex mu;
    c.cell = [&, r](runner::CellContext& ctx) {
      const std::uint64_t t0 = now_ns();
      const PaperCell cell =
          paper_cell(ctx.point.count("n"), ctx.point.count("class"), ctx.seed);
      net::Network net(cell.net);
      const std::uint64_t t1 = now_ns();
      core::AdversaryState adv;
      const core::IcpdaOutcome out = run_untraced(net, cell.spec, keys(), adv);
      CellRecord rec;
      rec.cls = cell.cls;
      rec.round = r;
      rec.cell_ms = ms(now_ns() - t0);
      rec.build_ms = ms(t1 - t0);
      rec.ok = paper_ok(cell, out);
      rec.answered = out.accepted() && out.result.has_value();
      rec.latency_s = epoch_latency_s(out, sim::SimTime::zero());
      rec.coverage = out.coverage;
      rec.what = std::string(kClasses[cell.cls]) + " cell n=" + std::to_string(cell.net.node_count) +
                 " seed=" + std::to_string(ctx.seed);
      ctx.metrics.add("cells");
      const std::lock_guard<std::mutex> lock(mu);
      cells.push_back(std::move(rec));
    };
    c.row = [](const runner::Point&, const runner::PointSummary& s, runner::JsonRow& row) {
      row.num("cells", s.metrics.counter("cells"));
    };
    runner::RunnerOptions ro;
    ro.threads = threads;
    ro.progress = false;
    std::string rows;
    runner::JsonlSink sink = runner::JsonlSink::to_buffer(&rows);
    int rc = 0;
    round_ms.push_back(ms(time_ns([&] { rc = runner::run_campaign(c, ro, sink); })));
    if (rc != 0) throw std::runtime_error("paper_campaign: a campaign round failed");
  }
}

Report paper_campaign(const Options& opt) {
  Report rep;
  const PaperScale scale = paper_scale(opt);
  const unsigned threads = workers();

  if (!opt.trace) {
    std::vector<CellRecord> cells;
    std::vector<double> round_ms;
    HostSpeed speed;
    paper_rounds(opt, opt.seconds, scale.min_rounds, cells, round_ms, &speed);
    const double s = speed.scale();

    // Every cell is a completed query; every round has the same cells.
    const double per_round = static_cast<double>(cells.size()) / static_cast<double>(round_ms.size());
    std::vector<double> build_ms, cell_ms, latency, coverage;
    std::vector<double> round_cell_ms(round_ms.size(), 0.0);  ///< mean cell time per round
    for (const CellRecord& c : cells) {
      rep.check(c.ok, c.what);
      build_ms.push_back(c.build_ms);
      cell_ms.push_back(c.cell_ms);
      round_cell_ms[static_cast<std::size_t>(c.round)] += c.cell_ms / per_round;
      if (c.round >= scale.min_rounds || !c.answered) continue;
      latency.push_back(c.latency_s);
      if (c.cls != 2) coverage.push_back(c.coverage);
    }
    std::vector<double> rate;
    for (const double r : round_ms) rate.push_back(per_round / (r / 1e3));
    // Set-up is each cell's Network construction (README.md: timing the
    // pool start-up instead measured thread creation, too noisy here).
    rep.set("setup_s", median(build_ms) / 1e3 * s, "s", build_ms.size());
    rep.set("wall_s", median(round_ms) / 1e3 * s, "s", round_ms.size());
    // The median cell falls between the cell classes' clusters of times
    // and moved by 12% between seeds; a round's mean over its fixed grid
    // does not, so the p50 is the median over rounds of that mean.
    rep.set("epoch_ms_p50", median(round_cell_ms) * s, "ms", round_cell_ms.size());
    if (cell_ms.size() >= kP90MinSamples) {
      rep.set("epoch_ms_p90", percentile(cell_ms, 90.0) * s, "ms", cell_ms.size());
    }
    rep.set("queries_per_s", median(rate) / s, "1/s", rate.size());
    set_timing(rep, "query_latency", "_s", latency, "s");
    rep.set("coverage", mean(coverage), "frac", coverage.size());
    speed.report(rep);
    return rep;
  }

  // Traced: half the budget on the pool (runner layer), half on traced
  // cells run one at a time against their untraced twins.
  Layers layers;
  {
    std::vector<CellRecord> cells;
    std::vector<double> round_ms;
    paper_rounds(opt, opt.seconds / 2, 1, cells, round_ms);
    double busy_ms = 0.0, wall_ms = 0.0;
    std::map<std::size_t, std::vector<double>> by_class;
    for (const CellRecord& c : cells) {
      rep.check(c.ok, c.what);
      busy_ms += c.cell_ms;
      by_class[c.cls].push_back(c.cell_ms);
      layers.build_ms.push_back(c.build_ms);
    }
    for (const double r : round_ms) wall_ms += r;
    rep.set("runner.pool_busy_frac", busy_ms / (wall_ms * threads), "frac", round_ms.size());
    for (const auto& [cls, v] : by_class) {
      rep.set(std::string("runner.cell_ms_p50.") + kClasses[cls], median(v), "ms", v.size());
    }
  }

  const TimedKeys timed_keys(keys());
  const std::uint64_t start = now_ns();
  for (std::uint64_t unit = 0; unit == 0 || sec(now_ns() - start) < opt.seconds / 2; ++unit) {
    UnitTrace trace;
    std::uint64_t traced_ns = 0, untraced_ns = 0, events = 0;
    std::uint64_t p = 0;
    for (const double n : scale.sizes) {
      for (std::size_t cls = 0; cls < 3; ++cls, ++p) {
        const PaperCell cell = paper_cell(static_cast<std::size_t>(n), cls,
                                          sim::seed_mix(opt.seed, 0x7ACE + unit, p));
        const std::string where = std::string(kClasses[cls]) + " cell " + std::to_string(p);
        net::Network a(cell.net);
        net::Network b(cell.net);
        core::AdversaryState adv_a, adv_b;
        core::IcpdaOutcome out_a;
        untraced_ns += time_ns([&] { out_a = run_untraced(a, cell.spec, keys(), adv_a); });
        EpochTrace t;
        const core::IcpdaOutcome out_b = run_traced(b, cell.spec, timed_keys, adv_b, t);
        require_same(out_a, a.executed_events(), out_b, b.executed_events(), where);
        ++layers.reproduced;
        rep.check(paper_ok(cell, out_a), where);
        traced_ns += t.epoch_ns;
        trace.add(t);
        events += a.executed_events();
        if (unit > 0) continue;
        // Counting pass of the first unit: a tapped third twin.
        net::Network c(cell.net);
        layers.census.attach(c.channel());
        core::AdversaryState adv_c;
        const core::IcpdaOutcome out_c = run_untraced(c, cell.spec, keys(), adv_c);
        require_same(out_a, a.executed_events(), out_c, c.executed_events(), where + " (tapped)");
        layers.add_registry({}, counters_of(c));
        layers.counts["sim.events"] += static_cast<double>(c.executed_events());
        for (const auto& [size, k] : out_a.cluster_sizes) layers.cluster_sizes[size] += k;
        layers.add_footprint(a);
      }
    }
    layers.ns_per_event.push_back(static_cast<double>(untraced_ns) / static_cast<double>(events));
    layers.add_unit(trace, traced_ns, untraced_ns);
  }
  layers.emit(rep);
  zero_service(rep);
  return rep;
}

// ---- dense_epoch -------------------------------------------------------

struct EpochScale {
  std::size_t n;
  int min_epochs;  ///< epochs whose simulated statistics are reported
};

EpochScale epoch_scale(const Options& opt) {
  return opt.tiny ? EpochScale{300, 2} : EpochScale{2000, 24};
}

/// Shards of the traced run's sharded twin (nproc on the host of the
/// fingerprint). Timed epochs never run on the engine: on a shared host
/// its barrier rounds made identical epochs vary by 2x (README.md).
constexpr std::size_t kTwinShards = 4;

/// Benign epochs, each on a fresh deployment, after an untimed warm-up.
/// A fresh Network per epoch because a second epoch on the same Network
/// can fire the first epoch's leftover watchdog timers into apps that
/// the second epoch's attach_apps destroyed (README.md, blind spots).
Report dense_epoch(const Options& opt) {
  Report rep;
  const EpochScale scale = epoch_scale(opt);
  const auto cfg_for = [&](std::uint64_t epoch) {
    return field(scale.n, 400.0, sim::seed_mix(opt.seed, 0xE70C, epoch), 1);
  };
  const auto spec_for = [&](std::uint64_t epoch) {
    EpochSpec spec;
    spec.reading = reading_for(opt.seed, epoch);
    return spec;
  };
  const auto check_epoch = [&](net::Network& net, const core::IcpdaOutcome& out,
                               std::uint64_t epoch) {
    require_engine_ok(net);
    rep.check(benign_ok(out, spec_for(epoch).reading), "epoch " + std::to_string(epoch));
  };
  std::vector<double> build_ms;
  const auto build = [&](const net::NetworkConfig& c) {
    std::unique_ptr<net::Network> net;
    build_ms.push_back(ms(time_ns([&] { net = std::make_unique<net::Network>(c); })));
    return net;
  };
  {
    net::Network warm(cfg_for(0));
    core::AdversaryState adv;
    (void)run_untraced(warm, spec_for(0), keys(), adv);
  }

  if (!opt.trace) {
    std::vector<double> epoch_ms, rate, latency, coverage;
    HostSpeed speed;
    const std::uint64_t start = now_ns();
    for (std::uint64_t e = 1;
         e <= static_cast<std::uint64_t>(scale.min_epochs) || sec(now_ns() - start) < opt.seconds;
         ++e) {
      speed.sample();
      const auto net = build(cfg_for(e));
      core::AdversaryState adv;
      core::IcpdaOutcome out;
      const std::uint64_t ns = time_ns([&] { out = run_untraced(*net, spec_for(e), keys(), adv); });
      check_epoch(*net, out, e);
      epoch_ms.push_back(ms(ns));
      rate.push_back(out.accepted() ? 1.0 / sec(ns) : 0.0);
      if (e <= static_cast<std::uint64_t>(scale.min_epochs)) {
        latency.push_back(epoch_latency_s(out, sim::SimTime::zero()));
        coverage.push_back(out.coverage);
      }
    }
    const double s = speed.scale();
    rep.set("setup_s", median(build_ms) / 1e3 * s, "s", build_ms.size());
    rep.set("wall_s", median(epoch_ms) / 1e3 * s, "s", epoch_ms.size());
    set_timing(rep, "epoch_ms", "", scaled(epoch_ms, s), "ms");
    rep.set("queries_per_s", median(rate) / s, "1/s", rate.size());
    set_timing(rep, "query_latency", "_s", latency, "s");
    rep.set("coverage", mean(coverage), "frac", coverage.size());
    speed.report(rep);
    return rep;
  }

  // Traced: twin deployments A (run_icpda_epoch) and B (traced
  // epoch) per epoch; C, tapped, counts the first epoch, and S, its
  // sharded twin, runs the engine layer.
  Layers layers;
  const TimedKeys timed_keys(keys());
  const std::uint64_t start = now_ns();
  for (std::uint64_t e = 1; e == 1 || sec(now_ns() - start) < opt.seconds; ++e) {
    const auto a = build(cfg_for(e));
    const auto b = build(cfg_for(e));
    core::AdversaryState adv_a, adv_b;
    core::IcpdaOutcome out_a;
    const std::uint64_t untraced_ns =
        time_ns([&] { out_a = run_untraced(*a, spec_for(e), keys(), adv_a); });
    check_epoch(*a, out_a, e);
    EpochTrace t;
    const core::IcpdaOutcome out_b = run_traced(*b, spec_for(e), timed_keys, adv_b, t);
    const std::uint64_t events = a->executed_events();
    require_same(out_a, events, out_b, b->executed_events(), "epoch " + std::to_string(e));
    ++layers.reproduced;
    UnitTrace unit;
    unit.add(t);
    layers.add_unit(unit, t.epoch_ns, untraced_ns);
    layers.ns_per_event.push_back(static_cast<double>(untraced_ns) / static_cast<double>(events));
    if (e > 1) continue;

    layers.cluster_sizes = out_a.cluster_sizes;
    layers.add_footprint(*a);
    net::Network c(cfg_for(e));
    layers.census.attach(c.channel());
    core::AdversaryState adv_c;
    const core::IcpdaOutcome out_c = run_untraced(c, spec_for(e), keys(), adv_c);
    require_same(out_a, events, out_c, c.executed_events(), "tapped epoch");
    layers.add_registry({}, counters_of(c));
    layers.counts["sim.events"] = static_cast<double>(events);

    // Every count is shard-invariant, so the traced driver on the engine
    // must reproduce the unsharded epoch exactly.
    net::NetworkConfig sharded = cfg_for(e);
    sharded.shards = kTwinShards;
    net::Network s(sharded);
    core::AdversaryState adv_s;
    EpochTrace ts;
    const core::IcpdaOutcome out_s = run_traced(s, spec_for(e), timed_keys, adv_s, ts);
    require_engine_ok(s);
    require_same(out_a, events, out_s, s.executed_events(), "sharded twin epoch");
    layers.add_engine(s, ts.epoch_ns);
  }
  layers.build_ms = build_ms;
  layers.emit(rep);
  zero_runner(rep);
  zero_service(rep);
  return rep;
}

// ---- service_pipeline --------------------------------------------------

struct ServiceScale {
  std::size_t n;
  std::uint32_t queries;
  int min_runs;
};

ServiceScale service_scale(const Options& opt) {
  return opt.tiny ? ServiceScale{120, 6, 1} : ServiceScale{400, 24, 16};
}

/// Open-loop SUM/AVG/VAR queries at 0.3 q/s, three times one slot's
/// capacity (~0.1 q/s), on four slots (~0.42 q/s) with a 30 s deadline:
/// bursts queue, so admission engages, without the unbounded waits that
/// make latency a lottery near 0.42 q/s.
service::ServiceConfig service_config(const ServiceScale& scale) {
  service::ServiceConfig cfg;
  cfg.offered_load_qps = 0.3;
  cfg.query_count = scale.queries;
  cfg.max_in_flight = 4;
  cfg.deadline_s = 30.0;
  return cfg;
}

/// Simulated latency from a query's scheduled arrival to its last report
/// merged at the base station (CompletionRecord::latency_s ends at the
/// fixed epoch close, so without queueing it would be a constant).
double query_latency_s(const service::CompletionRecord& r) {
  return (r.outcome.last_report_at - r.arrival).seconds();
}

void check_service(Report& rep, const service::Dispatcher& d, std::uint32_t offered,
                   double reading, const std::string& where) {
  rep.check(d.records().size() == offered &&
                d.completed() + d.dropped() + d.rejected() == offered,
            where + ": completed + dropped + rejected != offered");
  for (const service::CompletionRecord& r : d.records()) {
    if (r.status != service::QueryStatus::kCompleted) continue;
    rep.check(r.accepted && r.outcome.result && sum_matches(*r.outcome.result, reading),
              where + " query " + std::to_string(r.id));
  }
}

std::string records_diff(const std::vector<service::CompletionRecord>& a,
                         const std::vector<service::CompletionRecord>& b) {
  if (a.size() != b.size()) return "record count";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.id != y.id || x.status != y.status || x.latency_s != y.latency_s ||
        x.value != y.value || x.accepted != y.accepted || x.coverage != y.coverage) {
      return "record " + std::to_string(x.id);
    }
    if (const std::string d = outcome_diff(x.outcome, y.outcome); !d.empty()) {
      return "record " + std::to_string(x.id) + " " + d;
    }
  }
  return {};
}

Report service_pipeline(const Options& opt) {
  Report rep;
  const ServiceScale scale = service_scale(opt);
  const auto net_cfg = [&](std::uint64_t run) {
    return field(scale.n, 400.0, sim::seed_mix(opt.seed, 0x5E7, run), 1);
  };
  const service::ServiceConfig base = service_config(scale);
  const auto cfg_for = [&](std::uint64_t run) {
    service::ServiceConfig cfg = base;
    cfg.seed = sim::seed_mix(opt.seed, 0x5E8, run);
    return cfg;
  };

  if (!opt.trace) {
    std::vector<double> setup_s, run_ms, per_query_ms, latency, coverage;
    std::vector<double> rate;
    HostSpeed speed;
    const std::uint64_t start = now_ns();
    for (std::uint64_t run = 0;
         run < static_cast<std::uint64_t>(scale.min_runs) || sec(now_ns() - start) < opt.seconds;
         ++run) {
      speed.sample();
      std::unique_ptr<net::Network> net;
      setup_s.push_back(sec(time_ns([&] { net = std::make_unique<net::Network>(net_cfg(run)); })));
      const double reading = reading_for(opt.seed, run);
      service::Dispatcher d(*net, cfg_for(run), &keys(), proto::constant_reading(reading));
      const std::uint64_t ns = time_ns([&] { d.run(); });
      check_service(rep, d, scale.queries, reading, "service run " + std::to_string(run));
      run_ms.push_back(ms(ns));
      rate.push_back(d.completed() / sec(ns));
      if (d.completed() > 0) per_query_ms.push_back(ms(ns) / d.completed());
      if (run >= static_cast<std::uint64_t>(scale.min_runs)) continue;
      for (const service::CompletionRecord& r : d.records()) {
        if (r.status != service::QueryStatus::kCompleted) continue;
        latency.push_back(query_latency_s(r));
        coverage.push_back(r.coverage);
      }
    }
    const double s = speed.scale();
    rep.set("setup_s", median(setup_s) * s, "s", setup_s.size());
    rep.set("wall_s", median(run_ms) / 1e3 * s, "s", run_ms.size());
    set_timing(rep, "epoch_ms", "", scaled(per_query_ms, s), "ms");
    rep.set("queries_per_s", median(rate) / s, "1/s", rate.size());
    set_timing(rep, "query_latency", "_s", latency, "s");
    rep.set("coverage", mean(coverage), "frac", coverage.size());
    speed.report(rep);
    return rep;
  }

  // Traced: twin service runs. The Dispatcher attaches its own muxes,
  // so the traced twin re-wraps every sensor's mux in a TimedApp from
  // an event at t=0 (one extra event); the base station's mux stays
  // bare because the Dispatcher addresses it directly.
  Layers layers;
  const TimedKeys timed_keys(keys());
  const std::uint64_t start = now_ns();
  for (std::uint64_t run = 0; run == 0 || sec(now_ns() - start) < opt.seconds; ++run) {
    const double reading = reading_for(opt.seed, run);
    std::unique_ptr<net::Network> a, b;
    layers.build_ms.push_back(ms(time_ns([&] { a = std::make_unique<net::Network>(net_cfg(run)); })));
    layers.build_ms.push_back(ms(time_ns([&] { b = std::make_unique<net::Network>(net_cfg(run)); })));
    service::Dispatcher da(*a, cfg_for(run), &keys(), proto::constant_reading(reading));
    const std::uint64_t untraced_ns = time_ns([&] { da.run(); });
    check_service(rep, da, scale.queries, reading, "service run " + std::to_string(run));

    reset_ledgers();
    const std::uint64_t t0 = now_ns();
    service::Dispatcher db(*b, cfg_for(run), &timed_keys, proto::constant_reading(reading));
    net::Network& bnet = *b;
    bnet.scheduler().at(sim::SimTime::zero(), [&bnet, &db] {
      for (net::NodeId id = 1; id < bnet.size(); ++id) {
        bnet.node(id).attach_app(
            std::make_unique<TimedApp>(std::make_unique<service::QueryMux>(&db.state())));
      }
    });
    EpochTrace t;
    t.run_ns = time_ns([&] { db.run(); });
    t.epoch_ns = now_ns() - t0;
    t.ledger = sum_ledgers();
    if (const std::string d = records_diff(da.records(), db.records()); !d.empty()) {
      throw InvariantError("traced service run differs from the untraced one in " + d);
    }
    if (b->executed_events() != a->executed_events() + 1) {
      throw InvariantError("traced service run executed " + std::to_string(b->executed_events()) +
                           " events, untraced " + std::to_string(a->executed_events()) + " + 1");
    }
    ++layers.reproduced;
    UnitTrace unit;
    unit.add(t);
    layers.add_unit(unit, t.epoch_ns, untraced_ns);
    layers.ns_per_event.push_back(static_cast<double>(untraced_ns) /
                                  static_cast<double>(a->executed_events()));
    if (run > 0) continue;

    std::size_t instances = 0;
    for (net::NodeId id = 0; id < a->size(); ++id) {
      instances += static_cast<service::QueryMux*>(a->node(id).app())->instance_count();
    }
    std::vector<double> waits;
    for (const service::CompletionRecord& r : da.records()) {
      if (r.status == service::QueryStatus::kCompleted) {
        waits.push_back((r.launched - r.arrival).seconds());
        for (const auto& [size, k] : r.outcome.cluster_sizes) layers.cluster_sizes[size] += k;
      }
    }
    rep.set("service.instances", static_cast<double>(instances), "count");
    rep.set("service.completed", da.completed(), "count");
    rep.set("service.dropped", da.dropped(), "count");
    rep.set("service.rejected", da.rejected(), "count");
    rep.set("service.queue_wait_p50_s", median(waits), "s", waits.size());
    layers.add_footprint(*a);

    // Counting pass: a tapped third twin.
    net::Network c(net_cfg(run));
    layers.census.attach(c.channel());
    service::Dispatcher dc(c, cfg_for(run), &keys(), proto::constant_reading(reading));
    dc.run();
    if (c.executed_events() != a->executed_events()) {
      throw InvariantError("tapped service run executed a different number of events");
    }
    layers.add_registry({}, counters_of(c));
    layers.counts["sim.events"] = static_cast<double>(c.executed_events());
  }
  layers.emit(rep);
  zero_runner(rep);
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_campaign", "dense_epoch",
                                              "service_pipeline"};
  return names;
}

Report run_workload(const Options& opt) {
  Report rep;
  if (opt.workload == "paper_campaign") {
    rep = paper_campaign(opt);
  } else if (opt.workload == "dense_epoch") {
    rep = dense_epoch(opt);
  } else if (opt.workload == "service_pipeline") {
    rep = service_pipeline(opt);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  if (!opt.trace) {
    rep.set("fail_frac",
            rep.attempted > 0 ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                              : 0.0,
            "frac", rep.attempted);
    rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  return rep;
}

}  // namespace perfbench
