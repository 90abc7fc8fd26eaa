// Per-node memory footprint probe.
//
// Builds one deployment at constant paper density (400 nodes per
// 400x400 m^2 field, 50 m range — the field side scales as
// 20*sqrt(N)), runs one full iCPDA epoch, and emits a single JSON
// object on stdout: the Network's per-subsystem heap accounting
// (Network::footprint), process RSS/HWM from /proc/self/status, wall
// clock, and — for sharded runs — the engine's parallel-fraction
// counters. tools/mem_footprint.py consumes this to gate
// bytes-per-node against the checked-in baseline.
//
// Usage: footprint_probe [--nodes=N] [--shards=S] [--seed=X]
//        (S at most sim::kMaxShards)

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "proto/epoch.h"
#include "runner/cli.h"
#include "sim/shard.h"

namespace {

/// VmRSS / VmHWM in kB from /proc/self/status (0 if unavailable).
std::size_t proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t out = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      out = std::strtoull(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return out;
}

/// Print the usage line; returns the exit code of a bad invocation.
int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--nodes=N] [--shards=S] [--seed=X] (S <= %zu)\n",
               argv0, icpda::sim::kMaxShards);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icpda;

  unsigned long long nodes = 20000, shards = 1, seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    unsigned long long* value = name == "--nodes"    ? &nodes
                                : name == "--shards" ? &shards
                                : name == "--seed"   ? &seed
                                                     : nullptr;
    if (value == nullptr || eq == std::string::npos ||
        !runner::parse_uint(arg.substr(eq + 1), *value)) {
      return usage(argv[0]);
    }
  }
  // Each shard is a worker thread: refuse a huge count before the
  // Network starts any.
  if (shards > sim::kMaxShards) return usage(argv[0]);
  if (nodes == 0 || shards == 0) {
    std::fprintf(stderr, "--nodes/--shards must be positive\n");
    return 2;
  }

  net::NetworkConfig cfg;
  cfg.node_count = static_cast<std::size_t>(nodes);
  // Constant density: the paper's 400/400^2 nodes/m^2 at every N, so
  // degree (and with it per-node event load) stays in the paper regime.
  const double side = 20.0 * std::sqrt(static_cast<double>(nodes));
  cfg.field_width_m = side;
  cfg.field_height_m = side;
  cfg.seed = seed;
  cfg.shards = static_cast<std::size_t>(shards);

  const auto t0 = std::chrono::steady_clock::now();
  net::Network network(cfg);
  const auto t_built = std::chrono::steady_clock::now();

  const core::IcpdaConfig icpda_cfg;
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(0x1CDA2009)};
  const core::IcpdaOutcome outcome = core::run_icpda_epoch(
      network, icpda_cfg, proto::constant_reading(1.0), keys);
  const auto t_done = std::chrono::steady_clock::now();

  const net::Network::Footprint fp = network.footprint();
  const double wall_build =
      std::chrono::duration<double>(t_built - t0).count();
  const double wall_epoch =
      std::chrono::duration<double>(t_done - t_built).count();

  std::uint64_t gate_events = 0, parallel_events = 0;
  if (const net::ShardEngine* engine = network.shard_engine()) {
    gate_events = engine->stats().gate_events;
    parallel_events = engine->stats().parallel_events;
  }
  const std::uint64_t total_events = gate_events + parallel_events;

  std::printf(
      "{\"nodes\": %llu, \"shards\": %llu, \"seed\": %llu,\n"
      " \"topology_bytes\": %zu, \"scheduler_bytes\": %zu,\n"
      " \"channel_bytes\": %zu, \"mac_bytes\": %zu,\n"
      " \"metrics_bytes\": %zu, \"plan_bytes\": %zu,\n"
      " \"object_bytes\": %zu, \"total_bytes\": %zu,\n"
      " \"bytes_per_node\": %.1f,\n"
      " \"rss_kb\": %zu, \"hwm_kb\": %zu,\n"
      " \"build_s\": %.3f, \"epoch_s\": %.3f,\n"
      " \"gate_events\": %llu, \"parallel_events\": %llu,\n"
      " \"parallel_fraction\": %.4f,\n"
      " \"reporters\": %u, \"accepted\": %s}\n",
      nodes, shards, seed, fp.topology, fp.schedulers, fp.channel, fp.macs,
      fp.metrics, fp.plan, fp.objects, fp.total(),
      static_cast<double>(fp.total()) / static_cast<double>(nodes),
      proc_status_kb("VmRSS"), proc_status_kb("VmHWM"), wall_build, wall_epoch,
      static_cast<unsigned long long>(gate_events),
      static_cast<unsigned long long>(parallel_events),
      total_events == 0
          ? 0.0
          : static_cast<double>(parallel_events) / static_cast<double>(total_events),
      outcome.reporters, outcome.accepted() ? "true" : "false");
  return 0;
}
