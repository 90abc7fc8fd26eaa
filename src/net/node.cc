#include "net/node.h"

#include "net/network.h"

namespace icpda::net {

sim::SimTime Node::now() const { return network_.scheduler_for(id_).now(); }

sim::Scheduler& Node::home_scheduler() { return network_.scheduler_for(id_); }

void Node::enqueue(NodeId dst, FrameType type, Bytes payload, std::uint16_t flood) {
  if (!alive_) return;  // dead radio: nothing leaves the node
  Frame f;
  f.dst = dst;
  f.type = type;
  f.flood = flood;
  f.payload = std::move(payload);
  network_.mac(id_).send(std::move(f));
}

void Node::broadcast(FrameType type, Bytes payload, std::uint16_t flood) {
  enqueue(kBroadcast, type, std::move(payload), flood);
}

std::uint16_t Node::open_flood() { return network_.channel().open_flood(id_); }

void Node::hold_flood(std::uint16_t tag) { network_.channel().hold_flood(id_, tag); }

void Node::attach_app(std::unique_ptr<App> app) {
  ++app_generation_;
  app_ = std::move(app);
  overheard_ = app_ ? app_->overheard_types() : ~std::uint64_t{0};
  network_.channel().clear_floods(id_);
}

void Node::purge_sends_to(NodeId dst) {
  if (!alive_) return;
  network_.mac(id_).fail_queued_to(dst);
}

sim::MetricRegistry& Node::metrics() { return network_.metrics_for(id_); }

sim::Tracer& Node::tracer() { return network_.tracer(); }

const Point& Node::position() const { return network_.topology().position(id_); }

}  // namespace icpda::net
