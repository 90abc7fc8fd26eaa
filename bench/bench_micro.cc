// Micro-benchmarks (google-benchmark): the hot kernels a deployment
// would care about — share generation / interpolation, sealing,
// PRF throughput, scheduler push/pop/cancel, channel broadcast
// fan-out, topology construction, and full-epoch wall-clock.
//
// Compare a kernel against a parent revision with
// `tools/perf_vs_parent.sh micro:<filter>`; the EXPERIMENTS.md T3-T5
// tables quote kernels by name and Arg, so keep both stable.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "core/cpda_algebra.h"
#include "core/icpda.h"
#include "crypto/cipher.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "net/topology.h"
#include "service/dispatcher.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace {

using namespace icpda;

void BM_MakeShares(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  const auto seeds = core::default_seeds(m);
  const auto value = proto::Aggregate::of(23.5);
  // Warm arena, as the protocol runs it per member.
  std::vector<proto::Aggregate> shares;
  for (auto _ : state) {
    core::make_shares_into(value, seeds, rng, shares);
    benchmark::DoNotOptimize(shares.data());
  }
}
BENCHMARK(BM_MakeShares)->Arg(3)->Arg(5)->Arg(8);

void BM_SolveClusterSum(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(2);
  const auto seeds = core::default_seeds(m);
  std::vector<proto::Aggregate> assembled(m);
  for (auto& a : assembled) a = proto::Aggregate::of(rng.uniform(0.0, 50.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_cluster_sum(seeds, assembled));
  }
}
BENCHMARK(BM_SolveClusterSum)->Arg(3)->Arg(5)->Arg(8);

void BM_SealOpen(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const auto key = crypto::Key::from_seed(7);
  const crypto::Bytes plain(bytes, 0x5A);
  // Arena entry points with warm buffers — the per-cluster-round path.
  crypto::Bytes sealed;
  crypto::Bytes opened;
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    crypto::seal_into(key, ++nonce, plain, sealed);
    benchmark::DoNotOptimize(crypto::open_into(key, sealed, opened));
    benchmark::DoNotOptimize(opened.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_SealOpen)->Arg(32)->Arg(256)->Arg(4096);

void BM_LinkKeyBatch(benchmark::State& state) {
  // One cached key schedule serving a whole member set, vs m
  // independent link_key() sponge re-inits. m = 8 matches the largest
  // specialized cluster size.
  const auto m = static_cast<std::size_t>(state.range(0));
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(11)};
  std::vector<net::NodeId> members(m);
  for (std::size_t i = 0; i < m; ++i) members[i] = static_cast<net::NodeId>(10 + i);
  std::vector<std::optional<crypto::Key>> out;
  for (auto _ : state) {
    keys.link_keys(members[0], members, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LinkKeyBatch)->Arg(3)->Arg(8);

void BM_Prf64(benchmark::State& state) {
  const auto key = crypto::Key::from_seed(9);
  const crypto::Bytes msg(64, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::prf64(key, msg));
  }
}
BENCHMARK(BM_Prf64);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.after(sim::micros(i % 97 + 1), [] {});
    }
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerChurn);

void BM_SchedulerPushPop(benchmark::State& state) {
  // Fill-then-drain at queue depth n: the pure heap push/pop cost with
  // no cancels. Delays are precomputed so the RNG stays out of the
  // timed region.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(41);
  std::vector<double> delays(n);
  for (auto& d : delays) d = rng.uniform(1.0, 1000.0);
  for (auto _ : state) {
    sim::Scheduler sched;
    for (std::size_t i = 0; i < n; ++i) {
      sched.after(sim::micros(delays[i]), [] {});
    }
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SchedulerPushPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SchedulerCancel(benchmark::State& state) {
  // Schedule n, cancel all n in shuffled order, then drain the (empty)
  // queue: isolates the cancel path — the MAC does this for every
  // successfully ACKed unicast, so it is a true hot path.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(43);
  std::vector<double> delays(n);
  for (auto& d : delays) d = rng.uniform(1.0, 1000.0);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<sim::EventId> ids(n);
  for (auto _ : state) {
    sim::Scheduler sched;
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = sched.after(sim::micros(delays[i]), [] {});
    }
    for (const std::size_t i : order) sched.cancel(ids[i]);
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SchedulerCancel)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ChannelBroadcastFanout(benchmark::State& state) {
  // One transmission into a clique of n nodes through the production
  // wiring (the Network's direct MAC sink, no delivery hook): reception
  // registration, the per-receiver overlap scan, and one delivery pass
  // handing the frame to n-1 MACs.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<net::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i % 16), static_cast<double>(i / 16)});
  }
  net::NetworkConfig cfg;
  net::Network network(net::Topology{std::move(pts), 50.0}, cfg);
  net::Frame frame;
  frame.src = 0;
  frame.payload.assign(64, 0x42);
  for (auto _ : state) {
    network.channel().transmit(0, frame, nullptr);
    network.scheduler().run();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(network.metrics().counter("channel.rx_ok")));
}
BENCHMARK(BM_ChannelBroadcastFanout)->Arg(32)->Arg(128)->Arg(512);

void BM_IcpdaEpoch(benchmark::State& state) {
  // Full iCPDA epochs on one paper-density deployment: the end-to-end
  // number the T3 wall-clock-vs-N experiment tracks. The deployment is
  // built outside the timed region; each iteration is one epoch.
  // Always single-shard — BM_IcpdaEpochSharded owns that axis.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = bench::default_keys();
  net::Network network(bench::paper_network(n, 0x9E3779B9));
  const core::IcpdaConfig cfg;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = network.scheduler().executed();
    core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    events += network.scheduler().executed() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_epoch"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IcpdaEpoch)->Arg(500)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_IcpdaEpochSharded(benchmark::State& state) {
  // The sharded engine on one constant-density deployment:
  // range(0) = N, range(1) = shard count. The field scales as
  // 20*sqrt(N) per side so neighbourhood size (and hence per-node
  // work) stays at the paper's density while N grows — at the default
  // 400x400 field, N=100k would be one giant collision domain.
  // Events come from the engine's own counters: in a sharded Network
  // scheduler() is a detached empty heap, so executed() reads zero.
  // parallel_fraction is the share of events drained inside concurrent
  // windows (vs the serialized gate) — the upper bound on speedup.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto keys = bench::default_keys();
  net::NetworkConfig net_cfg = bench::paper_network(n, 0x9E3779B9);
  net_cfg.shards = shards;
  const double side = 20.0 * std::sqrt(static_cast<double>(n));
  net_cfg.field_width_m = side;
  net_cfg.field_height_m = side;
  net::Network network(net_cfg);
  const core::IcpdaConfig cfg;
  std::uint64_t parallel = 0, gated = 0, rounds = 0, gate_rounds = 0;
  std::uint64_t last_executed = 0;
  for (auto _ : state) {
    core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
    if (const net::ShardEngine* eng = network.shard_engine()) {
      // Engine stats are per-run (one run per epoch); executed() below
      // is cumulative, hence the delta.
      parallel += eng->stats().parallel_events;
      gated += eng->stats().gate_events;
      rounds += eng->stats().rounds;
      gate_rounds += eng->stats().gate_rounds;
    } else {
      parallel += network.scheduler().executed() - last_executed;
      last_executed = network.scheduler().executed();
    }
  }
  const double events = static_cast<double>(parallel + gated);
  state.SetItemsProcessed(static_cast<std::int64_t>(parallel + gated));
  state.counters["events_per_epoch"] =
      benchmark::Counter(events / static_cast<double>(state.iterations()));
  state.counters["parallel_fraction"] = benchmark::Counter(
      events > 0 ? static_cast<double>(parallel) / events : 1.0);
  state.counters["rounds_per_epoch"] = benchmark::Counter(
      static_cast<double>(rounds) / static_cast<double>(state.iterations()));
  state.counters["gate_round_fraction"] = benchmark::Counter(
      rounds > 0 ? static_cast<double>(gate_rounds) / static_cast<double>(rounds)
                 : 0.0);
}
BENCHMARK(BM_IcpdaEpochSharded)
    ->Args({2000, 1})
    ->Args({2000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_ServicePipeline(benchmark::State& state) {
  // One continuous-query service run: 8 queries offered at 0.4 q/s —
  // past a single slot's capacity — with Arg() in-flight slots. The
  // arg=1/arg=4 pair prices the pipelining machinery itself: both runs
  // do the same protocol work, so the delta is mux routing plus the
  // shorter (overlapped) simulated horizon. Each iteration needs a
  // fresh Network (a Dispatcher run is one-shot), built untimed.
  const auto slots = static_cast<std::uint32_t>(state.range(0));
  const auto keys = bench::default_keys();
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // The dispatcher drives network.scheduler() directly and is not
    // shard-aware (net/network.h): one engine.
    net::Network network(bench::paper_network(200, 0x51CDA));
    service::ServiceConfig cfg;
    cfg.offered_load_qps = 0.4;
    cfg.query_count = 8;
    cfg.max_in_flight = slots;
    cfg.deadline_s = 1e9;  // complete everything: fixed work per run
    cfg.max_queue = 64;
    cfg.seed = 0x51CDA;
    service::Dispatcher dispatcher(network, cfg, &keys,
                                   proto::constant_reading(1.0));
    state.ResumeTiming();
    dispatcher.run();
    events += network.scheduler().executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_run"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ServicePipeline)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TopologyBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const net::Field field(400, 400);
  sim::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::make_random_topology(field, n, 50.0, rng));
  }
}
BENCHMARK(BM_TopologyBuild)->Arg(200)->Arg(600)->Arg(2000);

}  // namespace

// The smoke lane runs every registered benchmark, so the expensive T3
// scaling points (N=3000..5000 is minutes of wall-clock per pass) are
// only registered under ICPDA_BIG_N=1. Larger constant-density epochs
// are footprint_probe's (`tools/perf_vs_parent.sh footprint:<N>x<S>`).
int main(int argc, char** argv) {
  if (std::getenv("ICPDA_BIG_N")) {
    benchmark::RegisterBenchmark("BM_IcpdaEpoch", BM_IcpdaEpoch)
        ->Arg(3000)
        ->Arg(4000)
        ->Arg(5000)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
