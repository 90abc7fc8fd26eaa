// Shared command-line layer for the bench binaries.
//
//   --threads=N   worker threads (0 = all hardware threads); default
//                 from ICPDA_THREADS, else 1 so plain invocations stay
//                 sequential and comparable. Row output is identical
//                 at every thread count (see campaign.h).
//   --shards=N    spatial shards per simulated Network (default from
//                 ICPDA_SHARDS, else 1). Row output is identical at
//                 every shard count (see net/shard_engine.h).
//   --trials=N    Monte-Carlo trials per grid point; default from the
//                 campaign declaration (usually ICPDA_TRIALS-scaled).
//   --points=SPEC run only the listed flat grid points, e.g.
//                 "0,3,7" or "2-5" or "0,4-6" (order-normalized).
//   --out=PATH    write rows to PATH instead of stdout.
//   --trace       enable structured event tracing in each cell; trace-
//                 aware campaigns emit per-phase breakdown columns.
//                 Purely observational: base columns stay byte-
//                 identical to an untraced run.
//   --no-progress suppress the stderr progress reporter.
//   --help        print usage and exit 0.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace icpda::runner {

struct RunnerOptions {
  unsigned threads = 1;
  /// Spatial shards per simulated Network (see net/shard_engine.h);
  /// default from ICPDA_SHARDS, else 1. Reaches cells as
  /// CellContext::shards. Rows are byte-identical at every shard count
  /// — that is what tests/shard_determinism_test.cc pins.
  std::size_t shards = 1;
  int trials = 0;                    // 0 = use the campaign's default
  std::vector<std::size_t> points;   // empty = whole grid
  std::string out;                   // empty = stdout
  bool trace = false;
  bool progress = true;
  bool help = false;
};

/// Parse argv (and ICPDA_THREADS / ICPDA_SHARDS) into `options`.
/// Returns false and fills `error` on a malformed flag or variable;
/// `options.help` is set (and true returned) for --help. Unknown flags
/// are errors — a typo'd axis restriction must not silently run the
/// full grid.
bool parse_cli(int argc, char** argv, RunnerOptions& options, std::string& error);

/// Strict non-negative decimal integer: rejects a sign, leading
/// whitespace and trailing characters (strtoull accepts all three).
bool parse_uint(const std::string& s, unsigned long long& out);

/// Usage text for --help / parse errors (writes to stderr).
void print_usage(const char* argv0);

/// Parse a "--points" spec ("0,3,7", "2-5", "0,4-6") into sorted,
/// deduplicated indices; returns false on malformed input.
bool parse_point_spec(const std::string& spec, std::vector<std::size_t>& out);

}  // namespace icpda::runner
