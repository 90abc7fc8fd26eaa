#include "baselines/tag.h"

#include <utility>

namespace icpda::baselines {

using proto::HelloMsg;
using proto::TagReportMsg;

void TagApp::start(net::Node& node) {
  if (!node.is_base_station()) return;
  joined_ = true;  // the BS is the tree root
  node.schedule(sim::seconds(config_.timing.start_delay_s), [this, &node] {
    HelloMsg hello;
    hello.query_id = config_.query_id;
    hello.hop = 0;
    node.broadcast(proto::kHello, hello.to_bytes());
    node.metrics().add("tag.hello_sent");
    node.schedule(config_.timing.close_delay(), [this, &node] { close_epoch(node); });
  });
}

void TagApp::on_receive(net::Node& node, const net::Frame& frame) {
  switch (frame.type) {
    case proto::kHello:
      handle_hello(node, frame);
      break;
    case proto::kTagReport:
      handle_report(node, frame);
      break;
    default:
      break;
  }
}

void TagApp::handle_hello(net::Node& node, const net::Frame& frame) {
  if (node.is_base_station() || joined_) return;
  const auto hello = HelloMsg::from_bytes(frame.payload);
  if (!hello || hello->query_id != config_.query_id) return;
  if (hello->hop >= config_.timing.max_hops) {
    node.metrics().add("tag.hop_budget_exceeded");
    return;
  }

  joined_ = true;
  parent_ = frame.src;
  hop_ = static_cast<std::uint16_t>(hello->hop + 1);
  node.metrics().add("tag.joined");

  // Re-flood after jitter so the wavefront does not self-collide.
  HelloMsg rebroadcast = *hello;
  rebroadcast.hop = hop_;
  const auto jitter = sim::seconds(node.rng().uniform(0.0, config_.timing.hello_jitter_s));
  node.schedule(jitter, [&node, payload = rebroadcast.to_bytes()]() mutable {
    node.broadcast(proto::kHello, std::move(payload));
  });

  // Depth-scheduled report slot.
  node.schedule(config_.timing.report_delay(hop_), [this, &node] { send_report(node); });
}

void TagApp::handle_report(net::Node& node, const net::Frame& frame) {
  const auto report = TagReportMsg::from_bytes(frame.payload);
  if (!report || report->query_id != config_.query_id) return;
  if (reported_) {
    // Child missed the slot (losses/backoff); its data cannot be
    // included any more — this is TAG's data-loss mechanism.
    node.metrics().add("tag.late_report");
    return;
  }
  pending_.merge(report->aggregate);
  node.metrics().add("tag.report_received");
}

void TagApp::send_report(net::Node& node) {
  if (reported_) return;
  reported_ = true;
  TagReportMsg report;
  report.query_id = config_.query_id;
  report.reporter = node.id();
  report.aggregate = pending_.merged(proto::Aggregate::of(readings_(node.id())));
  node.send(parent_, proto::kTagReport, report.to_bytes());
  node.metrics().add("tag.report_sent");
  if (outcome_) ++outcome_->reporters;
}

void TagApp::close_epoch(net::Node& node) {
  reported_ = true;  // stop accepting input
  if (outcome_) {
    outcome_->result = pending_;
    outcome_->closed_at = node.now();
  }
  node.metrics().add("tag.epoch_closed");
}

TagOutcome run_tag_epoch(net::Network& net, const TagConfig& config,
                         const proto::ReadingProvider& readings) {
  TagOutcome outcome;
  net.attach_apps([&](net::Node&) {
    return std::make_unique<TagApp>(config, readings, &outcome);
  });
  net.run(sim::seconds(config.timing.start_delay_s) + config.timing.close_delay() +
          sim::seconds(2.0));
  return outcome;
}

}  // namespace icpda::baselines
