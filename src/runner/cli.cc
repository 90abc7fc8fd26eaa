#include "runner/cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "runner/thread_pool.h"
#include "sim/shard.h"

namespace icpda::runner {

bool parse_uint(const std::string& s, unsigned long long& out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && end == s.c_str() + s.size();
}

namespace {

/// Split "--flag=value" / "--flag value" style arguments. Returns true
/// if argv[i] names `flag`, with `value` filled (consuming argv[i+1]
/// when needed) and `i` advanced accordingly.
bool take_value_flag(int argc, char** argv, int& i, const char* flag,
                     std::string& value, std::string& error) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, len) != 0) return false;
  const char* rest = argv[i] + len;
  if (*rest == '=') {
    value = rest + 1;
    return true;
  }
  if (*rest == '\0') {
    if (i + 1 >= argc) {
      error = std::string(flag) + " requires a value";
      value.clear();
      return true;
    }
    value = argv[++i];
    return true;
  }
  return false;
}

/// --threads / ICPDA_THREADS: 0 means all hardware threads; a value
/// that does not fit `unsigned` is refused rather than wrapped.
bool parse_threads(const std::string& s, unsigned& out) {
  unsigned long long t = 0;
  if (!parse_uint(s, t) || t > std::numeric_limits<unsigned>::max()) return false;
  out = t == 0 ? ThreadPool::default_threads() : static_cast<unsigned>(t);
  return true;
}

/// --shards / ICPDA_SHARDS: 1..sim::kMaxShards (each shard is a
/// thread, so a huge count is refused before anything starts).
bool parse_shards(const std::string& s, unsigned long long& out) {
  return parse_uint(s, out) && out >= 1 && out <= sim::kMaxShards;
}

}  // namespace

bool parse_point_spec(const std::string& spec, std::vector<PointRange>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t dash = item.find('-');
    unsigned long long lo = 0, hi = 0;
    if (dash == std::string::npos) {
      if (!parse_uint(item, lo)) return false;
      hi = lo;
    } else {
      if (!parse_uint(item.substr(0, dash), lo) ||
          !parse_uint(item.substr(dash + 1), hi) || hi < lo) {
        return false;
      }
    }
    if (hi > std::numeric_limits<std::size_t>::max()) return false;
    out.push_back({static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)});
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  std::sort(out.begin(), out.end());
  std::size_t kept = 0;
  for (const PointRange& r : out) {
    // Sorted by first, so r.first >= the kept range's first; the
    // difference form cannot overflow at SIZE_MAX.
    if (kept > 0 && (r.first <= out[kept - 1].last || r.first - out[kept - 1].last == 1)) {
      out[kept - 1].last = std::max(out[kept - 1].last, r.last);
    } else {
      out[kept++] = r;
    }
  }
  out.resize(kept);
  return true;
}

bool parse_cli(int argc, char** argv, RunnerOptions& options, std::string& error) {
  // Reject garbage in the environment loudly: a typo'd count silently
  // replaced by a default would invalidate every number downstream.
  if (const char* env = std::getenv("ICPDA_THREADS")) {
    if (!parse_threads(env, options.threads)) {
      error = std::string("ICPDA_THREADS: expected a non-negative integer below 2^32, got '") +
              env + "'";
      return false;
    }
  }
  if (const char* env = std::getenv("ICPDA_SHARDS")) {
    unsigned long long s = 0;
    if (!parse_shards(env, s)) {
      error = std::string("ICPDA_SHARDS: expected an integer in 1..") +
              std::to_string(sim::kMaxShards) + ", got '" + env + "'";
      return false;
    }
    options.shards = static_cast<std::size_t>(s);
  }
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      options.help = true;
      return true;
    }
    if (std::strcmp(argv[i], "--no-progress") == 0) {
      options.progress = false;
      continue;
    }
    if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace = true;
      continue;
    }
    if (take_value_flag(argc, argv, i, "--threads", value, error)) {
      if (!error.empty()) return false;
      if (!parse_threads(value, options.threads)) {
        error = "--threads: expected a non-negative integer below 2^32, got '" + value + "'";
        return false;
      }
      continue;
    }
    if (take_value_flag(argc, argv, i, "--shards", value, error)) {
      unsigned long long s = 0;
      if (!error.empty()) return false;
      if (!parse_shards(value, s)) {
        error = "--shards: expected an integer in 1.." + std::to_string(sim::kMaxShards) +
                ", got '" + value + "'";
        return false;
      }
      options.shards = static_cast<std::size_t>(s);
      continue;
    }
    if (take_value_flag(argc, argv, i, "--trials", value, error)) {
      unsigned long long t = 0;
      if (!error.empty()) return false;
      if (!parse_uint(value, t) || t == 0 ||
          t > static_cast<unsigned long long>(std::numeric_limits<int>::max())) {
        error = "--trials: expected a positive integer below 2^31, got '" + value + "'";
        return false;
      }
      options.trials = static_cast<int>(t);
      continue;
    }
    if (take_value_flag(argc, argv, i, "--points", value, error)) {
      if (!error.empty()) return false;
      if (!parse_point_spec(value, options.points)) {
        error = "--points: malformed spec '" + value + "' (want e.g. 0,3,7 or 2-5)";
        return false;
      }
      continue;
    }
    if (take_value_flag(argc, argv, i, "--out", value, error)) {
      if (!error.empty()) return false;
      options.out = value;
      continue;
    }
    error = std::string("unknown argument '") + argv[i] + "'";
    return false;
  }
  return true;
}

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads=N] [--shards=N] [--trials=N] [--points=SPEC]\n"
               "          [--out=PATH] [--trace] [--no-progress] [--help]\n"
               "  --threads=N    worker threads (0 = all hardware threads;\n"
               "                 default $ICPDA_THREADS or 1). Rows are\n"
               "                 byte-identical at every thread count.\n"
               "  --shards=N     spatial shards per simulated network, 1..%zu\n"
               "                 (default $ICPDA_SHARDS or 1). Rows are\n"
               "                 byte-identical at every shard count.\n"
               "  --trials=N     Monte-Carlo trials per grid point\n"
               "                 (default: campaign declaration / $ICPDA_TRIALS)\n"
               "  --points=SPEC  run a subset of flat grid points: 0,3,7 or 2-5\n"
               "  --out=PATH     write result rows to PATH instead of stdout\n"
               "  --trace        per-cell structured tracing (trace-aware\n"
               "                 campaigns add per-phase breakdown columns)\n"
               "  --no-progress  suppress the stderr progress/ETA reporter\n",
               argv0, sim::kMaxShards);
}

}  // namespace icpda::runner
