// Shared plumbing for the experiment-reproduction binaries.
//
// Each bench_* executable (bench_micro aside) regenerates one
// table/figure of the paper (see DESIGN.md section 3) as a
// runner::Campaign: it declares the paper's parameter axis, a
// Monte-Carlo cell (usually one full protocol epoch) and a row
// formatter, and hands them to runner::bench_main, which gives every
// bench the shared CLI (--threads/--shards/--trials/--points/--out,
// runner/cli.h) and JSONL rows. Absolute numbers depend on the
// substrate; the shapes are what EXPERIMENTS.md compares against the
// paper.
//
// ICPDA_TRIALS scales the Monte-Carlo effort (default keeps the whole
// bench suite in the low minutes on a laptop).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "crypto/keyring.h"
#include "net/network.h"
#include "proto/epoch.h"
#include "runner/campaign.h"
#include "runner/cli.h"
#include "sim/rng.h"

namespace icpda::bench {

/// Every experiment's RNG-stream namespace, in one place so no two
/// binaries can reuse an id. Sub-experiments within a binary (F6a vs
/// F6b, the A2 probe vs its epoch runs) get their own entries: seed
/// streams must never overlap across sweeps that interpret the
/// (point, trial) coordinates differently.
enum class Experiment : std::uint64_t {
  kDeployment = 1,          // T1
  kClusterFormation = 2,    // T2
  kMsgOverhead = 3,         // F1
  kCommOverhead = 4,        // F2
  kAccuracy = 5,            // F3
  kPrivacy = 6,             // F4
  kCollusion = 7,           // F5
  kIntegrityDetection = 8,  // F6a
  kIntegrityFalseAlarm = 9, // F6b
  kLocalization = 10,       // F7
  kLatency = 11,            // F8
  kPcSweep = 12,            // A1
  kKeyschemeProbe = 13,     // A2: shared topology probe
  kKeyschemeEpoch = 14,     // A2: per-scheme epoch accuracy (paired across schemes)
  kKeyschemeRing = 15,      // A2: EG ring draws (point = pool size)
  kClusterPolicy = 16,      // A3
  kAdaptivePc = 17,         // A4
  kFault = 18,              // F9
  kAttack = 19,             // A5: Byzantine adversary suite
  kService = 20,            // S1: continuous-query service under load
};

/// A malformed environment variable is a hard error, not a silent
/// fall-back to the default: a typo'd value would quietly change the
/// experiment.
[[noreturn]] inline void bad_env(const char* name, const char* value,
                                 const char* expected) {
  std::fprintf(stderr, "%s: expected %s, got '%s'\n", name, expected, value);
  std::exit(2);
}

/// Monte-Carlo trials per configuration point, from ICPDA_TRIALS.
/// Capped so the benches' scaled counts (F5 draws 40x) fit an int.
inline int trials() {
  const char* env = std::getenv("ICPDA_TRIALS");
  if (!env) return 5;
  unsigned long long t = 0;
  if (!runner::parse_uint(env, t) || t == 0 || t > (1u << 20)) {
    bad_env("ICPDA_TRIALS", env, "a positive integer up to 1048576");
  }
  return static_cast<int>(t);
}

/// The sweep's network-size axis, overridable via ICPDA_N_AXIS — a
/// comma-separated size list (e.g. ICPDA_N_AXIS=2000,3000,4000,5000
/// for the T3 wall-clock scaling sweep, EXPERIMENTS.md). Cell seeds
/// key on the flat point *index*, so an overridden axis is its own
/// deterministic experiment: byte-stable across runs and thread
/// counts for a fixed axis, but its rows are not point-for-point
/// comparable with the default axis.
inline std::vector<double> size_axis(std::vector<double> defaults) {
  const char* env = std::getenv("ICPDA_N_AXIS");
  if (!env || !*env) return defaults;
  std::vector<double> sizes;
  const std::string list = env;
  for (std::size_t pos = 0; pos <= list.size();) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    unsigned long long v = 0;
    if (!runner::parse_uint(list.substr(pos, comma - pos), v) || v == 0) {
      bad_env("ICPDA_N_AXIS", env, "a comma-separated list of positive sizes");
    }
    sizes.push_back(static_cast<double>(v));
    pos = comma + 1;
  }
  return sizes;
}

/// A paper-family deployment (400 m x 400 m field, 50 m range) on one
/// engine, for runs outside a campaign cell.
inline net::NetworkConfig paper_network(std::size_t n, std::uint64_t seed) {
  net::NetworkConfig cfg;
  cfg.node_count = n;
  cfg.seed = seed;
  return cfg;
}

/// The deployment a campaign cell simulates: split into the cell's
/// --shards spatial shards (rows are byte-identical at every value —
/// tests/shard_determinism_test.cc), seeded by the cell's own stream
/// unless the table pairs its cells on another one.
inline net::NetworkConfig paper_network(const runner::CellContext& ctx, std::size_t n,
                                        std::uint64_t seed) {
  net::NetworkConfig cfg = paper_network(n, seed);
  cfg.shards = ctx.shards;
  return cfg;
}
inline net::NetworkConfig paper_network(const runner::CellContext& ctx, std::size_t n) {
  return paper_network(ctx, n, ctx.seed);
}

inline crypto::MasterPairwiseScheme default_keys() {
  return crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x1CDA2009)};
}

/// Per-run seeds: deterministic but distinct per (experiment, point,
/// trial) so adding trials never changes earlier rows. SplitMix64-
/// chained (sim::seed_mix) — the earlier small-multiplier linear form
/// made (experiment, point, trial) tuples collide: 991·1009 + 84 =
/// 1000003, so (e, 0, 0) equals (e−1, 991, 84), and any trial stride
/// over 1009 (bench_localization used trial·1000 + epoch) bled into
/// neighbouring points' streams.
inline std::uint64_t run_seed(Experiment experiment, std::uint64_t point,
                              std::uint64_t trial) {
  return sim::seed_mix(static_cast<std::uint64_t>(experiment), point, trial);
}

}  // namespace icpda::bench
