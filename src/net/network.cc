#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace icpda::net {

namespace {
Topology build_topology(const NetworkConfig& config, sim::Rng& rng) {
  const Field field{config.field_width_m, config.field_height_m};
  sim::Rng topo_rng = rng.fork("topology");
  return make_random_topology(field, config.node_count, config.range_m, topo_rng);
}
}  // namespace

Network::Network(const NetworkConfig& config)
    : config_(config), rng_(config.seed), topology_(build_topology(config, rng_)) {
  wire();
}

Network::Network(Topology topology, const NetworkConfig& config)
    : config_(config), rng_(config.seed), topology_(std::move(topology)) {
  config_.node_count = topology_.size();
  wire();
}

void Network::wire() {
  if (topology_.size() == 0) {
    throw std::invalid_argument("Network: empty topology");
  }
  if (config_.shards > sim::kMaxShards) {
    throw std::invalid_argument("Network: shard count above sim::kMaxShards");
  }

  // Sharded setup first: the MACs below must be bound to their
  // home-shard scheduler/registry at construction.
  const auto shards = static_cast<std::uint32_t>(
      std::min<std::size_t>(config_.shards, topology_.size()));
  if (shards > 1) {
    std::vector<double> xs(topology_.size());
    std::vector<double> ys(topology_.size());
    for (NodeId id = 0; id < topology_.size(); ++id) {
      xs[id] = topology_.position(id).x;
      ys[id] = topology_.position(id).y;
    }
    plan_ = sim::make_tile_plan(
        xs, ys, config_.field_width_m, config_.field_height_m, config_.range_m,
        shards,
        [this](std::uint32_t node, const std::function<void(std::uint32_t)>& fn) {
          for (const NodeId r : topology_.neighbors(node)) fn(r);
        });
    shard_scheds_.reserve(shards);
    shard_metrics_.reserve(shards);
    // One counter table for all shards, so an event's key does not
    // depend on the shard that holds it (sim/scheduler.h).
    const auto counters =
        std::make_shared<sim::CreatorCounters>(topology_.size());
    for (std::uint32_t s = 0; s < shards; ++s) {
      shard_scheds_.push_back(std::make_unique<sim::Scheduler>(counters));
      shard_metrics_.push_back(std::make_unique<sim::MetricRegistry>());
    }
    // Trace rings stay single-writer under parallel drains only with
    // per-ring sequence numbers.
    tracer_.set_sharded(true);
    // Lookahead: the tightest bound on how soon a drained event can
    // spawn a border event — min(one contention slot, the airtime of a
    // payload-free frame + propagation). The SIFS ACK undercuts this,
    // which is why ACK-soliciting deliveries are gate-forced instead
    // (see Channel::transmit).
    const double spawn_floor_s = std::min(
        config_.mac.slot_time_s,
        static_cast<double>(kFrameOverheadBytes) * 8.0 / config_.channel.bit_rate_bps +
            config_.channel.propagation_delay_s);
    pool_ = std::make_unique<runner::ThreadPool>(shards);
    std::vector<sim::Scheduler*> raw;
    raw.reserve(shards);
    for (auto& s : shard_scheds_) raw.push_back(s.get());
    engine_ = std::make_unique<ShardEngine>(std::move(raw),
                                            sim::seconds(spawn_floor_s), *pool_);
  }

  channel_ = std::make_unique<Channel>(topology_, scheduler_, rng_.fork("channel"),
                                       metrics_, config_.channel);
  channel_->set_tracer(&tracer_);
  if (engine_) {
    Channel::ShardWiring wiring;
    for (auto& s : shard_scheds_) wiring.scheds.push_back(s.get());
    for (auto& m : shard_metrics_) wiring.metrics.push_back(m.get());
    wiring.shard_of = plan_.shard_of.data();
    wiring.border = plan_.border.data();
    channel_->set_shards(std::move(wiring));
  }
  macs_.reserve(topology_.size());
  nodes_.reserve(topology_.size());
  for (NodeId id = 0; id < topology_.size(); ++id) {
    macs_.push_back(std::make_unique<Mac>(id, *channel_, scheduler_for(id),
                                          rng_.fork("mac", id), metrics_for(id),
                                          config_.mac));
    macs_.back()->set_tracer(&tracer_);
    if (engine_) macs_.back()->set_border(plan_.border[id] != 0);
    nodes_.push_back(std::make_unique<Node>(id, *this, rng_.fork("node", id)));
  }
  // Delivery path: channel -> receiving MAC -> node -> app, wired as
  // direct sinks (no std::function hop on either leg — they fire once
  // per in-range node per frame). Dead-receiver filtering and its
  // channel.rx_dead accounting moved into Channel::deliver; the arrays
  // handed to set_sink never reallocate after this point.
  alive_.assign(topology_.size(), 1);
  mac_raw_.reserve(topology_.size());
  for (NodeId id = 0; id < topology_.size(); ++id) {
    mac_raw_.push_back(macs_[id].get());
    macs_[id]->set_sink(nodes_[id].get());
  }
  channel_->set_sink(mac_raw_.data(), alive_.data());
}

void Network::set_node_down(NodeId id) {
  if (id == base_station()) return;  // the sink never crashes
  if (!nodes_.at(id)->alive()) return;
  nodes_[id]->set_alive(false);
  alive_[id] = 0;
  macs_[id]->power_off();
  // Crash mid-phase: close every open span so traces stay balanced.
  // The node's home-shard clock is the acting time (fault events run on
  // the crashing node's shard).
  tracer_.interrupt(id, scheduler_for(id).now());
  metrics_for(id).add("net.node_down");
}

void Network::set_node_up(NodeId id) {
  if (nodes_.at(id)->alive()) return;
  nodes_[id]->set_alive(true);
  alive_[id] = 1;
  macs_[id]->power_on();
  metrics_for(id).add("net.node_up");
}

std::size_t Network::live_count() const {
  std::size_t live = 0;
  for (const auto& n : nodes_) {
    if (n->alive()) ++live;
  }
  return live;
}

void Network::start() {
  // Base station first: it owns query initiation in every protocol here.
  for (auto& n : nodes_) {
    if (n->app()) n->app()->start(*n);
  }
}

Network::Footprint Network::footprint() const {
  Footprint f;
  f.topology = topology_.footprint_bytes();
  f.schedulers = scheduler_.footprint_bytes() +
                 scheduler_.counters().footprint_bytes();
  for (const auto& s : shard_scheds_) f.schedulers += s->footprint_bytes();
  if (!shard_scheds_.empty()) {
    f.schedulers += shard_scheds_.front()->counters().footprint_bytes();
  }
  f.channel = channel_ ? channel_->footprint_bytes() : 0;
  for (const auto& m : macs_) f.macs += m->footprint_bytes();
  f.metrics = metrics_.footprint_bytes();
  for (const auto& m : shard_metrics_) f.metrics += m->footprint_bytes();
  f.plan = plan_.shard_of.capacity() * sizeof(std::uint32_t) +
           plan_.border.capacity() * sizeof(std::uint8_t) +
           plan_.shard_sizes.capacity() * sizeof(std::uint32_t) +
           plan_.est_load.capacity() * sizeof(std::uint64_t);
  f.objects = macs_.size() * (sizeof(Mac) + sizeof(Node) + 2 * sizeof(void*)) +
              mac_raw_.capacity() * sizeof(Mac*) +
              alive_.capacity() * sizeof(std::uint8_t) + sizeof(Network) +
              (channel_ ? sizeof(Channel) : 0);
  return f;
}

sim::SimTime Network::run(sim::SimTime horizon) {
  start();
  if (!engine_) {
    if (horizon.is_finite()) {
      scheduler_.run_until(horizon);
    } else {
      scheduler_.run();
    }
    return scheduler_.now();
  }

  // Arbitrary shared observers make every event a potential cross-shard
  // interaction: run the whole horizon through the serialized gate
  // (identical results, no parallelism) rather than risk a torn read.
  const bool serialize = serialize_all_ || channel_->has_taps();
  const sim::SimTime end = engine_->run(horizon, serialize);

  // Fold per-shard registries into the main one, in shard order —
  // deterministic, and Cell handles survive for the next run.
  for (auto& m : shard_metrics_) m->drain_into(metrics_);
  return end;
}

}  // namespace icpda::net
