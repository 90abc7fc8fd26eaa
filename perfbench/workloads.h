// The benchmark's three workloads (README.md says why each exists).
//
// A workload runs untimed set-up, then repeats its unit of fixed work
// (a round of campaign cells, one epoch, or one service run) until the
// time budget is spent, checking every output. Simulated statistics
// (coverage, query latency) are taken from the first `min_units` units
// only, so they are a pure function of the seed whatever the host speed.
// The traced variant (Options::trace) reports per-layer metrics
// instead, from separate traced and counting passes.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test scale: every workload shrunk to well under a second of work.
  bool tiny = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Count one checked operation; record it as failed unless `ok`.
  void check(bool ok, const std::string& what);
};

/// A broken invariant (a traced epoch that differs from the untraced
/// one, a lookahead violation): the run's numbers cannot be trusted.
struct InvariantError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload; throws InvariantError or std::invalid_argument.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
