// Declarative experiment campaigns: sweep × trials → JSONL rows.
//
// A Campaign replaces the hand-rolled nested loops of the bench
// binaries: it names the experiment (for seed derivation), declares
// the parameter grid (Sweep), the Monte-Carlo trial count, a per-cell
// body and a per-point row formatter. The engine executes the
// (point, trial) cells — sequentially or on a fixed ThreadPool — and
// reduces each point's per-cell MetricRegistry instances into one
// summary via MetricRegistry::merge.
//
// Determinism contract:
//  * every cell runs against its own MetricRegistry, seeded by
//    sim::seed_mix(experiment, point_index, trial) — a pure function
//    of the declaration, independent of scheduling;
//  * per-point reduction merges cell registries in ascending trial
//    order, and rows are emitted in ascending point order, regardless
//    of which threads finish first;
//  * therefore the emitted rows are byte-for-byte identical at every
//    --threads value, and a --points subset reproduces exactly the
//    rows the full grid would emit for those points.
// Scheduling: with one worker (--threads<=1, or a single cell) cells
// run in declaration order and each row streams to the sink as soon as
// its point completes, so the campaign can be tail-followed. On the
// pool, cells are dispatched heaviest first — in descending slot
// order, so the last declared point's trials start first, because size
// and load axes are declared ascending — and the pool has no more
// workers than cells. Point 0 then finishes last, so a pooled run's
// rows reach the sink together near the end; progress still goes to
// stderr as cells finish.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "runner/cli.h"
#include "runner/jsonl.h"
#include "runner/sweep.h"
#include "sim/metrics.h"

namespace icpda::runner {

/// Everything a cell body needs: where it is in the grid, its
/// deterministic seed, and its private metrics registry.
struct CellContext {
  const Point& point;
  int trial;
  std::uint64_t seed;
  sim::MetricRegistry& metrics;
  /// --trace was given: the cell body should enable its Network's
  /// tracer and fold per-phase results into `metrics`. Tracing must
  /// stay observational — base metrics identical either way.
  bool trace = false;
  /// --shards: spatial shards per simulated Network (bench::paper_network
  /// builds its config from this). Rows are byte-identical at every value.
  std::size_t shards = 1;
};

/// Per-point reduction result handed to the row formatter.
struct PointSummary {
  sim::MetricRegistry metrics;  ///< cell registries merged in trial order
  int trials = 0;               ///< cells reduced into `metrics`
  bool trace = false;           ///< --trace was given (CellContext::trace)
};

struct Campaign {
  /// Header title, echoed as the leading `# ...` comment line.
  std::string name;
  /// Short progress-reporter label; when empty, bench_main uses the
  /// binary's file name and run_campaign falls back to `name`.
  std::string label;
  /// Experiment id (bench::Experiment) mixed into every cell seed.
  std::uint64_t experiment = 0;
  Sweep sweep;
  /// Default Monte-Carlo trials per point (--trials overrides).
  int trials = 1;
  /// Cell body: one independent simulation/estimation run.
  std::function<void(CellContext&)> cell;
  /// Row formatter: summary of one point -> one JSONL row. Must emit
  /// the same key sequence for every point (enforced by JsonlSink).
  std::function<void(const Point&, const PointSummary&, JsonRow&)> row;
};

/// Execute `campaign` under `options`, writing rows to `sink` as a new
/// table (its own header and row schema). Returns a process exit code
/// (0 on success; 1 on a failed cell or an invalid option/declaration,
/// with the reason on stderr).
int run_campaign(const Campaign& campaign, const RunnerOptions& options,
                 JsonlSink& sink);

/// Complete main() body for a bench binary: parse the shared CLI
/// (--help included), then run the campaigns in order into one sink
/// (--out file or stdout). --points indexes the binary's rows in output
/// order: the second campaign's point 0 is flat index
/// `campaigns[0].sweep.point_count()`, and so on.
int bench_main(std::span<const Campaign> campaigns, int argc, char** argv);
int bench_main(const Campaign& campaign, int argc, char** argv);

}  // namespace icpda::runner
