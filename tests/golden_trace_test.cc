// Golden-trace regression: a pinned-seed 30-node, 2-epoch iCPDA run
// must produce a bit-identical event trace forever. The trace is a
// deterministic function of (configuration, seed) — see DESIGN.md §5e —
// so ANY drift in scheduling, protocol logic, instrumentation sites or
// digest arithmetic shows up here, with the first diverging event
// printed for diagnosis.
//
// Golden files (tests/golden/):
//   trace_digest.txt  — FNV-1a-64 of the merged stream, one hex line.
//   trace_excerpt.txt — the first kExcerptEvents events, one
//                       format_trace_event line each.
//
// To regenerate after an INTENTIONAL behaviour change:
//   ICPDA_UPDATE_GOLDEN=1 ./golden_trace_test
// then inspect the diff of tests/golden/ like any other code change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_report.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "sim/trace.h"

#ifndef ICPDA_GOLDEN_DIR
#error "golden_trace_test requires -DICPDA_GOLDEN_DIR=\"<path>\""
#endif

namespace icpda::core {
namespace {

constexpr std::size_t kExcerptEvents = 80;
constexpr char kDigestFile[] = ICPDA_GOLDEN_DIR "/trace_digest.txt";
constexpr char kExcerptFile[] = ICPDA_GOLDEN_DIR "/trace_excerpt.txt";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  out << text;
}

bool update_mode() { return std::getenv("ICPDA_UPDATE_GOLDEN") != nullptr; }

class GoldenTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net::NetworkConfig ncfg;
    ncfg.node_count = 30;
    ncfg.field_width_m = 120.0;  // 30 nodes at 50 m range: connected
    ncfg.field_height_m = 120.0;
    ncfg.range_m = 50.0;
    ncfg.seed = 0x601D;

    network_ = new net::Network(ncfg);
    ASSERT_TRUE(network_->topology().connected())
        << "golden scenario must be a single component";

    sim::Tracer::Config tcfg;
    tcfg.capacity = 16384;  // full-fidelity: nothing may ring-wrap
    network_->enable_trace(tcfg);

    const auto keys =
        crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x601D)};
    const IcpdaConfig cfg;
    run_icpda_epoch(*network_, cfg, proto::constant_reading(1.0), keys);
    run_icpda_epoch(*network_, cfg, proto::constant_reading(1.0), keys);
    ASSERT_EQ(network_->tracer().dropped(), 0u)
        << "ring wrap would truncate the golden stream";
    events_ = network_->tracer().merged();
  }

  static void TearDownTestSuite() {
    delete network_;
    network_ = nullptr;
  }

  static net::Network* network_;
  static std::vector<sim::TraceEvent> events_;
};

net::Network* GoldenTraceTest::network_ = nullptr;
std::vector<sim::TraceEvent> GoldenTraceTest::events_;

TEST_F(GoldenTraceTest, ScenarioIsNonTrivial) {
  EXPECT_GT(events_.size(), 500u);
  EXPECT_EQ(network_->tracer().epoch(), 2u);
  const auto report = analysis::fold_trace(events_);
  EXPECT_EQ(report.unmatched_ends, 0u);
  // Both epochs carried protocol traffic.
  EXPECT_GT(report.epoch_tx_bytes(0), 0u);
  EXPECT_GT(report.epoch_tx_bytes(1), 0u);
}

TEST_F(GoldenTraceTest, DigestMatchesGolden) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(analysis::trace_digest(events_)));
  const std::string digest = std::string(hex) + "\n";

  if (update_mode()) {
    write_file(kDigestFile, digest);
    GTEST_SKIP() << "golden digest regenerated: " << kDigestFile;
  }
  const std::string golden = read_file(kDigestFile);
  ASSERT_FALSE(golden.empty())
      << kDigestFile << " missing — regenerate with ICPDA_UPDATE_GOLDEN=1";
  EXPECT_EQ(digest, golden)
      << "trace digest drifted. If the protocol/scheduler change is\n"
      << "intentional, regenerate with ICPDA_UPDATE_GOLDEN=1 and review\n"
      << "the tests/golden/ diff. First events now produced:\n"
      << analysis::trace_excerpt(events_, 10);
}

// Differential determinism (DESIGN.md §5f): an independent, freshly
// constructed Network run with the same (config, seed) must reproduce
// the suite fixture's stream bit for bit — this is what lets the
// substrate's internals (event queue layout, fan-out strategy) be
// optimized freely: any run-to-run divergence trips here even before
// the checked-in golden files are consulted.
TEST_F(GoldenTraceTest, SeedPairedRerunIsBitIdentical) {
  net::NetworkConfig ncfg;
  ncfg.node_count = 30;
  ncfg.field_width_m = 120.0;
  ncfg.field_height_m = 120.0;
  ncfg.range_m = 50.0;
  ncfg.seed = 0x601D;
  net::Network rerun(ncfg);

  sim::Tracer::Config tcfg;
  tcfg.capacity = 16384;
  rerun.enable_trace(tcfg);

  const auto keys = crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x601D)};
  const IcpdaConfig cfg;
  run_icpda_epoch(rerun, cfg, proto::constant_reading(1.0), keys);
  run_icpda_epoch(rerun, cfg, proto::constant_reading(1.0), keys);
  ASSERT_EQ(rerun.tracer().dropped(), 0u);

  const auto repeated = rerun.tracer().merged();
  ASSERT_EQ(repeated.size(), events_.size());
  EXPECT_EQ(analysis::trace_digest(repeated), analysis::trace_digest(events_))
      << "same (config, seed) produced a different stream — the run is\n"
      << "no longer a pure function of its inputs. First events:\n"
      << analysis::trace_excerpt(repeated, 10);

  // And the digest is actually sensitive: a different seed must not
  // collide (guards against a degenerate digest implementation).
  ncfg.seed = 0x601E;
  net::Network other(ncfg);
  other.enable_trace(tcfg);
  run_icpda_epoch(other, cfg, proto::constant_reading(1.0), keys);
  run_icpda_epoch(other, cfg, proto::constant_reading(1.0), keys);
  EXPECT_NE(analysis::trace_digest(other.tracer().merged()),
            analysis::trace_digest(events_));
}

TEST_F(GoldenTraceTest, ExcerptMatchesGoldenLineForLine) {
  const std::string excerpt = analysis::trace_excerpt(events_, kExcerptEvents);

  if (update_mode()) {
    write_file(kExcerptFile, excerpt);
    GTEST_SKIP() << "golden excerpt regenerated: " << kExcerptFile;
  }
  const std::string golden = read_file(kExcerptFile);
  ASSERT_FALSE(golden.empty())
      << kExcerptFile << " missing — regenerate with ICPDA_UPDATE_GOLDEN=1";
  if (excerpt == golden) return;

  // Diverged: point at the first differing event, not just "not equal".
  std::istringstream got(excerpt), want(golden);
  std::string got_line, want_line;
  std::size_t line = 0;
  while (true) {
    const bool has_got = static_cast<bool>(std::getline(got, got_line));
    const bool has_want = static_cast<bool>(std::getline(want, want_line));
    if (!has_got && !has_want) break;
    if (!has_got) got_line = "<stream ended>";
    if (!has_want) want_line = "<stream ended>";
    ASSERT_EQ(got_line, want_line) << "first diverging event at excerpt line "
                                   << line << " (0-based)";
    ++line;
  }
  FAIL() << "excerpts differ but no diverging line found (trailing bytes?)";
}

// Second pinned scenario: the SAME 30-node deployment with 10% of the
// nodes compromised (pollution attack) and the hardening switched on.
// Pins the adversary interception sites, the detection machinery and
// the epoch-tag wire format the same way the benign digest pins the
// honest path — any drift in attack scheduling or hardening logic
// lands here without disturbing tests/golden/trace_digest.txt.
TEST(GoldenAdversaryTraceTest, AdversarialDigestMatchesGolden) {
  constexpr char kAdversaryDigestFile[] =
      ICPDA_GOLDEN_DIR "/trace_digest_adversary.txt";

  net::NetworkConfig ncfg;
  ncfg.node_count = 30;
  ncfg.field_width_m = 120.0;
  ncfg.field_height_m = 120.0;
  ncfg.range_m = 50.0;
  ncfg.seed = 0x601D;
  net::Network network(ncfg);

  sim::Tracer::Config tcfg;
  tcfg.capacity = 16384;
  network.enable_trace(tcfg);

  const auto keys = crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x601D)};
  AdversaryPlan plan;
  plan.attack = AttackClass::kPollution;
  plan.compromised = {3, 13, 23};  // 3 of 30 sensors: the 10% scenario
  AdversaryState st;
  for (std::uint32_t e = 1; e <= 2; ++e) {
    IcpdaConfig cfg;
    cfg.hardening.epoch_tag = e;
    cfg.hardening.digest_crosscheck = true;
    cfg.hardening.attribute_withholders = true;
    run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys, plan, st);
  }
  ASSERT_EQ(network.tracer().dropped(), 0u);
  // The scenario is genuinely adversarial, not a benign run in costume.
  EXPECT_GE(st.digests_forged, 1u);

  const auto events = network.tracer().merged();
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(analysis::trace_digest(events)));
  const std::string digest = std::string(hex) + "\n";

  if (update_mode()) {
    write_file(kAdversaryDigestFile, digest);
    GTEST_SKIP() << "adversarial golden digest regenerated: "
                 << kAdversaryDigestFile;
  }
  const std::string golden = read_file(kAdversaryDigestFile);
  ASSERT_FALSE(golden.empty()) << kAdversaryDigestFile
                               << " missing — regenerate with ICPDA_UPDATE_GOLDEN=1";
  EXPECT_EQ(digest, golden)
      << "adversarial trace digest drifted. If the adversary/hardening\n"
      << "change is intentional, regenerate with ICPDA_UPDATE_GOLDEN=1 and\n"
      << "review the tests/golden/ diff. First events now produced:\n"
      << analysis::trace_excerpt(events, 10);
}

}  // namespace
}  // namespace icpda::core
