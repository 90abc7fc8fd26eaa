#include "baselines/smart.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "crypto/cipher.h"

namespace icpda::baselines {

using proto::Aggregate;
using proto::HelloMsg;
using proto::TagReportMsg;
using proto::SliceMsg;

namespace {

/// Plaintext body of one slice message.
struct SliceBody {
  std::uint32_t query_id = 0;
  Aggregate slice;

  [[nodiscard]] net::Bytes to_bytes() const {
    net::WireWriter w;
    w.u32(query_id);
    slice.write(w);
    return std::move(w).take();
  }
  [[nodiscard]] static std::optional<SliceBody> from_bytes(const net::Bytes& b) {
    try {
      net::WireReader r(b);
      SliceBody body;
      body.query_id = r.u32();
      body.slice = Aggregate::read(r);
      return body;
    } catch (const net::WireError&) {
      return std::nullopt;
    }
  }
};

}  // namespace

void SmartApp::start(net::Node& node) {
  if (!node.is_base_station()) return;
  joined_ = true;
  node.schedule(sim::seconds(config_.timing.start_delay_s), [this, &node] {
    HelloMsg hello;
    hello.query_id = config_.query_id;
    hello.hop = 0;
    node.broadcast(proto::kHello, hello.to_bytes());
    node.schedule(config_.timing.close_delay(), [this, &node] { close_epoch(node); });
  });
}

void SmartApp::note_participant(net::NodeId id) {
  if (id == 0) return;  // base station is not a slice recipient
  if (std::find(participants_.begin(), participants_.end(), id) == participants_.end()) {
    participants_.push_back(id);
  }
}

void SmartApp::on_receive(net::Node& node, const net::Frame& frame) {
  switch (frame.type) {
    case proto::kHello:
      handle_hello(node, frame);
      break;
    case proto::kSmartSlice:
      handle_slice(node, frame);
      break;
    case proto::kSmartReport:
      handle_report(node, frame);
      break;
    default:
      break;
  }
}

void SmartApp::on_overhear(net::Node& node, const net::Frame& frame) {
  // Unicast HELLOs do not exist, but slices addressed to others reveal
  // participation too.
  (void)node;
  if (frame.type == proto::kSmartSlice) note_participant(frame.src);
}

void SmartApp::handle_hello(net::Node& node, const net::Frame& frame) {
  note_participant(frame.src);
  if (node.is_base_station() || joined_) return;
  const auto hello = HelloMsg::from_bytes(frame.payload);
  if (!hello || hello->query_id != config_.query_id) return;
  if (hello->hop >= config_.timing.max_hops) return;

  joined_ = true;
  parent_ = frame.src;
  hop_ = static_cast<std::uint16_t>(hello->hop + 1);
  kept_ = Aggregate::of(readings_(node.id()));
  node.metrics().add("smart.joined");

  HelloMsg rebroadcast = *hello;
  rebroadcast.hop = hop_;
  const auto jitter = sim::seconds(node.rng().uniform(0.0, config_.timing.hello_jitter_s));
  node.schedule(jitter, [&node, payload = rebroadcast.to_bytes()]() mutable {
    node.broadcast(proto::kHello, std::move(payload));
  });

  node.schedule(sim::seconds(config_.slice_delay_s), [this, &node] { send_slices(node); });
  node.schedule(config_.timing.report_delay(hop_), [this, &node] { send_report(node); });
}

void SmartApp::send_slices(net::Node& node) {
  if (sliced_ || !joined_ || node.is_base_station()) return;
  sliced_ = true;

  const std::uint32_t want = config_.slices > 0 ? config_.slices - 1 : 0;
  std::vector<net::NodeId> targets = participants_;
  node.rng().shuffle(targets);
  if (targets.size() > want) targets.resize(want);
  if (targets.size() < want) {
    node.metrics().add("smart.insufficient_neighbors");
    if (outcome_) ++outcome_->degraded_privacy;
  }

  for (const net::NodeId target : targets) {
    const auto key = keys_->link_key(node.id(), target);
    if (!key) {
      node.metrics().add("smart.no_link_key");
      continue;
    }
    // Random slice of each component; the kept slice absorbs the
    // remainder so the total is exactly the original contribution.
    Aggregate slice;
    slice.count = node.rng().uniform(-1.0, 1.0);
    slice.sum = node.rng().uniform(-1.0, 1.0) * (std::abs(kept_.sum) + 1.0);
    slice.sum_sq = node.rng().uniform(-1.0, 1.0) * (std::abs(kept_.sum_sq) + 1.0);
    kept_.count -= slice.count;
    kept_.sum -= slice.sum;
    kept_.sum_sq -= slice.sum_sq;

    SliceBody body{config_.query_id, slice};
    SliceMsg msg;
    msg.query_id = config_.query_id;
    msg.sender = node.id();
    msg.recipient = target;
    crypto::seal_into(*key, node.rng()(), body.to_bytes(), msg.sealed);
    node.send(target, proto::kSmartSlice, msg.to_bytes());
    node.metrics().add("smart.slice_sent");
  }
}

void SmartApp::handle_slice(net::Node& node, const net::Frame& frame) {
  const auto msg = SliceMsg::from_bytes(frame.payload);
  if (!msg || msg->query_id != config_.query_id || msg->recipient != node.id()) return;
  if (reported_) {
    node.metrics().add("smart.late_slice");
    return;
  }
  const auto key = keys_->link_key(msg->sender, node.id());
  if (!key) return;
  crypto::Bytes opened;
  if (!crypto::open_into(*key, msg->sealed, opened)) {
    node.metrics().add("smart.bad_slice_auth");
    return;
  }
  const auto body = SliceBody::from_bytes(opened);
  if (!body || body->query_id != config_.query_id) return;
  pending_.merge(body->slice);
  node.metrics().add("smart.slice_received");
}

void SmartApp::handle_report(net::Node& node, const net::Frame& frame) {
  const auto report = TagReportMsg::from_bytes(frame.payload);
  if (!report || report->query_id != config_.query_id) return;
  if (reported_) {
    node.metrics().add("smart.late_report");
    return;
  }
  pending_.merge(report->aggregate);
}

void SmartApp::send_report(net::Node& node) {
  if (reported_) return;
  reported_ = true;
  TagReportMsg report;
  report.query_id = config_.query_id;
  report.reporter = node.id();
  // Effective reading = kept slice (+ not-yet-sent remainder if slice
  // sending was impossible) + received slices + children reports.
  report.aggregate = pending_.merged(kept_);
  node.send(parent_, proto::kSmartReport, report.to_bytes());
  node.metrics().add("smart.report_sent");
  if (outcome_) ++outcome_->reporters;
}

void SmartApp::close_epoch(net::Node& node) {
  reported_ = true;
  if (outcome_) {
    outcome_->result = pending_;
    outcome_->closed_at = node.now();
  }
}

SmartOutcome run_smart_epoch(net::Network& net, const SmartConfig& config,
                             const proto::ReadingProvider& readings,
                             const crypto::KeyScheme& keys) {
  SmartOutcome outcome;
  net.attach_apps([&](net::Node&) {
    return std::make_unique<SmartApp>(config, readings, &keys, &outcome);
  });
  net.run(sim::seconds(config.timing.start_delay_s) + config.timing.close_delay() +
          sim::seconds(2.0));
  return outcome;
}

}  // namespace icpda::baselines
