#include "net/node.h"

#include "net/network.h"

namespace icpda::net {

sim::SimTime Node::now() const { return network_.scheduler_for(id_).now(); }

sim::EventId Node::schedule(sim::SimTime delay, sim::EventFn fn) {
  // Liveness gate at fire time, not at schedule time: a node that
  // crashes loses its pending application timers (its program state is
  // gone), and a node that was down when the timer was set may be back
  // up when it fires. A timer also dies with the App that set it:
  // once attach_app has replaced that App, the closure may point into
  // freed memory. Timers run on the node's home-shard scheduler,
  // owner-tagged, and are never border events: application handlers
  // only touch the node's own state and send through its own MAC.
  return network_.scheduler_for(id_).after(
      delay,
      [this, generation = app_generation_, fn = std::move(fn)]() mutable {
        if (alive_ && generation == app_generation_) fn();
      },
      id_);
}

void Node::cancel(sim::EventId id) { network_.scheduler_for(id_).cancel(id); }

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
