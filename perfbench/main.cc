// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//             [--tiny] [--commit SHA]
//
// Prints one JSON report line per workload on stdout: the host
// fingerprint, every metric with its unit and sample count, and the
// correctness tally. perfbench/run.py builds this binary and turns the
// report into the benchmark's result line. Exit codes: 0 ran (check
// `failed`), 2 bad arguments, 3 a broken invariant (no report).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "runner/jsonl.h"
#include "workloads.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace {

using namespace perfbench;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + icpda::runner::json_escape(s) + "\""; }

void print_report(const Options& opt, const std::string& commit, const Report& rep) {
  std::string line = "{\"workload\": " + quoted(opt.workload) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"fingerprint\": {\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"cpu\": " + quoted(cpu_model()) +
                     ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + quoted(compiler()) + ", \"commit\": " + quoted(commit) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"seconds\": " + number(opt.seconds) +
                     ", \"tiny\": " + (opt.tiny ? "true" : "false") + "}" +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"failures\": [";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    line += (i ? ", " : "") + quoted(rep.failures[i]);
  }
  line += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    line += (first ? "" : ", ") + quoted(name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] "
               "[--tiny] [--commit SHA]\nworkloads:",
               argv0);
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage(argv[0]);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage(argv[0]);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage(argv[0]);
      opt.trace = v == "1";
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload.empty()) return usage(argv[0]);

  std::vector<std::string> names{opt.workload};
  if (opt.workload == "all") names = workload_names();
  try {
    for (const std::string& name : names) {
      Options one = opt;
      one.workload = name;
      const Report rep = run_workload(one);
      print_report(one, commit, rep);
    }
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "perfbench: invariant broken: %s\n", e.what());
    return 3;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
