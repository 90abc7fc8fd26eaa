// S1 [extension] — continuous-query service under open-loop load:
// completion-latency percentiles, drop/rejection rates and accuracy as
// the offered query rate sweeps past the service capacity, for two
// admission settings (serialized vs pipelined epochs).
//
// The epoch length is fixed by configuration (~6.6 s with the default
// timing), so the service rate of a single slot is ~1/(epoch + drain
// grace) ≈ 0.10 q/s. The load axis brackets that knee: well below it
// every query completes at the nominal latency; near it queueing
// inflates p99 first (the classic open-loop hockey stick); past it the
// deadline/queue admission policy sheds the excess and the drop rate —
// not the latency of survivors — absorbs the overload. max_in_flight=4
// moves the knee ~4x to the right at identical per-query accuracy,
// which is the point of pipelining the epochs.
//
// Determinism: each cell is one Dispatcher run, a pure function of
// (network seed, service config); rows are byte-identical at any
// --threads (enforced by a cmp smoke test).
#include <vector>

#include "bench/bench_util.h"
#include "runner/campaign.h"
#include "service/dispatcher.h"

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();
  constexpr std::size_t kNodes = 200;
  constexpr std::uint32_t kQueries = 12;

  runner::Campaign c;
  c.name =
      "S1: continuous-query service (latency percentiles / drop rate / "
      "accuracy vs offered load, serialized vs pipelined)";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kService);
  c.sweep.axis("load_qps", {0.05, 0.10, 0.20, 0.40})
      .axis("max_in_flight", {1.0, 4.0});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    // The dispatcher drives network.scheduler() directly and is not
    // shard-aware (net/network.h): one engine whatever --shards says.
    net::Network network(bench::paper_network(kNodes, ctx.seed));

    service::ServiceConfig cfg;
    cfg.offered_load_qps = ctx.point.get("load_qps");
    cfg.max_in_flight =
        static_cast<std::uint32_t>(ctx.point.get("max_in_flight"));
    cfg.query_count = kQueries;
    cfg.deadline_s = 30.0;
    cfg.seed = ctx.seed;

    service::Dispatcher dispatcher(network, cfg, &keys,
                                   proto::constant_reading(1.0));
    const sim::SimTime end = dispatcher.run();

    auto& m = ctx.metrics;
    const auto& records = dispatcher.records();
    m.observe("completed", dispatcher.completed());
    m.observe("dropped", dispatcher.dropped());
    m.observe("rejected", dispatcher.rejected());
    m.observe("p50_s", service::latency_percentile(records, 50.0));
    m.observe("p99_s", service::latency_percentile(records, 99.0));
    m.observe("makespan_s", end.seconds());
    for (const auto& r : records) {
      if (r.status != service::QueryStatus::kCompleted) continue;
      m.observe("latency_s", r.latency_s);
      m.observe("queue_wait_s", (r.launched - r.arrival).seconds());
      m.observe("abs_error", r.abs_error);
      m.observe("coverage", r.coverage);
      if (r.accepted) m.add("accepted");
    }
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto& m = s.metrics;
    const double queries = s.trials * static_cast<double>(kQueries);
    row.num("load_qps", p.get("load_qps"), 2)
        .num("max_in_flight", p.get("max_in_flight"), 0)
        .num("queries", queries, 0)
        .num("completed_rate", m.stat("completed").mean() / kQueries, 3)
        .num("drop_rate", m.stat("dropped").mean() / kQueries, 3)
        .num("reject_rate", m.stat("rejected").mean() / kQueries, 3)
        .num("p50_s", m.stat("p50_s").mean(), 3)
        .num("p99_s", m.stat("p99_s").mean(), 3)
        .num("queue_wait_mean_s", m.stat("queue_wait_s").mean(), 3)
        .num("abs_error_mean", m.stat("abs_error").mean(), 4)
        .num("coverage_mean", m.stat("coverage").mean(), 3)
        .num("accepted_rate",
             m.stat("completed").sum() > 0.0
                 ? static_cast<double>(m.counter("accepted")) /
                       m.stat("completed").sum()
                 : 0.0,
             3)
        .num("makespan_mean_s", m.stat("makespan_s").mean(), 1);
  };

  return runner::bench_main(c, argc, argv);
}
