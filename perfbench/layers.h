// Layer timing from outside the simulator.
//
// Every span here wraps a call into one layer's public interface: the
// App callbacks a node dispatches (net::App), link-key derivation
// (crypto::KeyScheme), whole Network::run calls, and kernel replays
// over an epoch's recorded work. Nothing inside src/ is instrumented,
// so an untraced run executes exactly the production code.
//
// Spans are recorded per thread (the sharded engine runs App callbacks
// on its worker pool) and summed after the run. A thread's time inside
// Network::run is split into three self times:
//   core   — App callbacks, minus the KeyScheme calls they make;
//   crypto — every KeyScheme call (from callbacks or from timers);
//   net    — the rest: scheduler, channel, MAC, engine, and protocol
//            work that runs from timers rather than App callbacks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/config.h"
#include "core/faults.h"
#include "core/icpda.h"
#include "crypto/keys.h"
#include "net/channel.h"
#include "net/network.h"
#include "net/node.h"

namespace perfbench {

using namespace icpda;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span slots: one per frame type (every proto::MsgType is below 16),
/// plus the two callbacks that carry no frame type.
inline constexpr std::size_t kTypeSlots = 16;
inline constexpr std::size_t kSendFailedSlot = kTypeSlots;
inline constexpr std::size_t kStartSlot = kTypeSlots + 1;
inline constexpr std::size_t kSlots = kTypeSlots + 2;

/// The iCPDA message types, with the names the metrics use.
const std::vector<std::pair<net::FrameType, std::string>>& icpda_types();

/// One thread's span totals.
struct Ledger {
  std::array<std::uint64_t, kSlots> app_ns{};         ///< outermost callbacks
  std::array<std::uint64_t, kSlots> app_calls{};      ///< every callback
  std::array<std::uint64_t, kSlots> app_crypto_ns{};  ///< KeyScheme time inside
  std::uint64_t crypto_ns = 0;                        ///< all KeyScheme time
  std::uint64_t link_keys_calls = 0;
  std::uint64_t link_key_calls = 0;

  void add(const Ledger& other);
};

/// Zero / sum every thread's ledger. Call only while no simulation runs.
void reset_ledgers();
[[nodiscard]] Ledger sum_ledgers();

/// net::App decorator: times each callback into the wrapped app.
class TimedApp final : public net::App {
 public:
  explicit TimedApp(std::unique_ptr<net::App> inner) : inner_(std::move(inner)) {}

  void start(net::Node& node) override;
  void on_receive(net::Node& node, const net::Frame& frame) override;
  void on_overhear(net::Node& node, const net::Frame& frame) override;
  void on_send_failed(net::Node& node, const net::Frame& frame) override;

 private:
  std::unique_ptr<net::App> inner_;
};

/// crypto::KeyScheme decorator: times every link-key derivation.
class TimedKeys final : public crypto::KeyScheme {
 public:
  explicit TimedKeys(const crypto::KeyScheme& inner) : inner_(inner) {}

  [[nodiscard]] std::optional<crypto::Key> link_key(net::NodeId a,
                                                    net::NodeId b) const override;
  void link_keys(net::NodeId self, std::span<const net::NodeId> peers,
                 std::vector<std::optional<crypto::Key>>& out) const override;
  [[nodiscard]] bool third_party_can_read(net::NodeId a, net::NodeId b,
                                          net::NodeId c) const override {
    return inner_.third_party_can_read(a, b, c);
  }

 private:
  const crypto::KeyScheme& inner_;
};

/// Frames on the air, by type, seen through a channel tap. A tap makes
/// the sharded engine serialize, so census passes run unsharded.
struct FrameCensus {
  std::array<std::uint64_t, kTypeSlots> frames{};
  std::array<std::uint64_t, kTypeSlots> bytes{};  ///< air bytes, as channel.tx_bytes
  /// Every tapped proto frame, kept for the decode and crypto replays.
  std::vector<std::pair<net::FrameType, net::Bytes>> payloads;

  /// Install the tap; `this` must outlive the channel's use of it.
  void attach(net::Channel& channel);
};

/// Kernel replays over one pass's recorded work; each returns host ms.
/// Decode every tapped frame again with its proto decoder.
[[nodiscard]] double decode_replay_ms(const FrameCensus& census);
/// One seal_into + open_into per tapped share frame, at its size.
[[nodiscard]] double seal_open_replay_ms(const FrameCensus& census);
/// One make_shares_into / solve_cluster_sum per cluster member, over
/// the pass's cluster-size histogram (every member cuts shares and
/// interpolates its cluster sum once per epoch).
[[nodiscard]] double make_shares_replay_ms(const std::map<std::uint32_t, std::uint32_t>& sizes);
[[nodiscard]] double solve_replay_ms(const std::map<std::uint32_t, std::uint32_t>& sizes);

/// One epoch's inputs. `adversary.active()` selects the adversary
/// epoch (which also needs an AdversaryState per Network).
struct EpochSpec {
  core::IcpdaConfig config;
  double reading = 1.0;
  core::FaultPlan faults;
  core::AdversaryPlan adversary;
};

/// The production epoch: core::run_icpda_epoch.
core::IcpdaOutcome run_untraced(net::Network& net, const EpochSpec& spec,
                                const crypto::KeyScheme& keys,
                                core::AdversaryState& adv);

/// Host time of one traced epoch.
struct EpochTrace {
  std::uint64_t epoch_ns = 0;  ///< the whole epoch function
  std::uint64_t run_ns = 0;    ///< inside Network::run
  std::size_t threads = 1;     ///< threads that run events (= shard count)
  Ledger ledger;
};

/// The same epoch driven from public pieces, with every app wrapped in
/// a TimedApp and `keys` expected to be a TimedKeys. Must reproduce
/// run_untraced exactly (outcome and executed events).
core::IcpdaOutcome run_traced(net::Network& net, const EpochSpec& spec,
                              const crypto::KeyScheme& keys, core::AdversaryState& adv,
                              EpochTrace& trace);

/// First field in which two outcomes differ; empty when identical.
[[nodiscard]] std::string outcome_diff(const core::IcpdaOutcome& a,
                                       const core::IcpdaOutcome& b);

/// Traced epochs summed over one unit of a workload's work.
struct UnitTrace {
  std::uint64_t epoch_thread_ns = 0;  ///< epoch_ns x threads, summed
  std::uint64_t run_thread_ns = 0;    ///< run_ns x threads, summed
  Ledger ledger;

  void add(const EpochTrace& t);
};

/// Self times (ms) per layer and their coverage of the traced wall.
[[nodiscard]] std::map<std::string, double> layer_times(const UnitTrace& unit);
/// Span counts: callbacks per message type and KeyScheme calls.
[[nodiscard]] std::map<std::string, double> layer_counts(const Ledger& ledger);

}  // namespace perfbench
