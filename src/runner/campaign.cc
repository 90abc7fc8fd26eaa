#include "runner/campaign.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <vector>

#include "runner/progress.h"
#include "runner/thread_pool.h"
#include "sim/rng.h"

namespace icpda::runner {

namespace {

void run_cell(const Campaign& campaign, const RunnerOptions& options,
              const Point& point, int trial, sim::MetricRegistry& metrics) {
  CellContext ctx{point, trial,
                  sim::seed_mix(campaign.experiment,
                                static_cast<std::uint64_t>(point.index()),
                                static_cast<std::uint64_t>(trial)),
                  metrics, options.trace, options.shards};
  campaign.cell(ctx);
}

}  // namespace

int run_campaign(const Campaign& campaign, const RunnerOptions& options,
                 JsonlSink& sink) {
  if (!campaign.cell || !campaign.row) {
    std::fprintf(stderr, "campaign '%s': missing cell or row function\n",
                 campaign.name.c_str());
    return 1;
  }
  const std::size_t grid = campaign.sweep.point_count();
  std::vector<std::size_t> selected = options.points;
  if (selected.empty()) {
    selected.resize(grid);
    for (std::size_t i = 0; i < grid; ++i) selected[i] = i;
  } else if (selected.back() >= grid) {
    std::fprintf(stderr, "campaign '%s': --points index %zu out of range (grid has %zu points)\n",
                 campaign.name.c_str(), selected.back(), grid);
    return 1;
  }
  const int trials = options.trials > 0 ? options.trials : campaign.trials;
  if (trials <= 0) {
    std::fprintf(stderr, "campaign '%s': trials must be positive\n", campaign.name.c_str());
    return 1;
  }

  sink.table(campaign.name);
  sink.comment("trials per point: " + std::to_string(trials));

  // Surface the active shard partitions next to the progress/ETA line:
  // the Networks are built deep inside the cells, so the announcement
  // itself lives in Network::wire (once per distinct plan), opted in
  // here.
  if (options.progress && options.shards > 1) {
    setenv("ICPDA_ANNOUNCE_PLAN", "1", /*overwrite=*/0);
  }

  const std::size_t cells = selected.size() * static_cast<std::size_t>(trials);
  Progress progress(campaign.label.empty() ? campaign.name : campaign.label, cells,
                    options.progress);

  // One registry slot per cell, indexed point-major so the reduction
  // below can walk them in declaration order.
  std::vector<sim::MetricRegistry> results(cells);

  try {
    if (options.threads <= 1) {
      // Sequential path: no pool, same cell order and (crucially) the
      // same trial-ordered reduction as the parallel path.
      std::size_t slot = 0;
      for (const std::size_t p : selected) {
        const Point point = campaign.sweep.point(p);
        PointSummary summary;
        summary.trace = options.trace;
        for (int t = 0; t < trials; ++t, ++slot) {
          run_cell(campaign, options, point, t, results[slot]);
          progress.tick();
          summary.metrics.merge(results[slot]);
          ++summary.trials;
        }
        JsonRow row;
        campaign.row(point, summary, row);
        sink.write(row);
      }
    } else {
      ThreadPool pool(options.threads);
      std::vector<std::future<void>> futures;
      futures.reserve(cells);
      std::size_t slot = 0;
      for (const std::size_t p : selected) {
        for (int t = 0; t < trials; ++t, ++slot) {
          futures.push_back(pool.submit([&campaign, &progress, &results, &options, p,
                                         t, slot] {
            const Point point = campaign.sweep.point(p);
            run_cell(campaign, options, point, t, results[slot]);
            progress.tick();
          }));
        }
      }
      // Emit rows in point order as each point's trials complete;
      // later cells keep executing on the pool meanwhile.
      slot = 0;
      for (const std::size_t p : selected) {
        const Point point = campaign.sweep.point(p);
        PointSummary summary;
        summary.trace = options.trace;
        for (int t = 0; t < trials; ++t, ++slot) {
          futures[slot].get();
          summary.metrics.merge(results[slot]);
          ++summary.trials;
        }
        JsonRow row;
        campaign.row(point, summary, row);
        sink.write(row);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign '%s' failed: %s\n", campaign.name.c_str(), e.what());
    return 1;
  }

  progress.finish(options.threads);
  return 0;
}

int bench_main(std::span<const Campaign> campaigns, int argc, char** argv) {
  RunnerOptions options;
  std::string error;
  if (!parse_cli(argc, argv, options, error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    print_usage(argv[0]);
    return 2;
  }
  if (options.help) {
    print_usage(argv[0]);
    return 0;
  }
  std::size_t rows = 0;
  for (const Campaign& campaign : campaigns) rows += campaign.sweep.point_count();
  if (!options.points.empty() && options.points.back() >= rows) {
    std::fprintf(stderr, "%s: --points index %zu out of range (%zu rows)\n", argv[0],
                 options.points.back(), rows);
    return 1;
  }
  try {
    JsonlSink sink = options.out.empty() ? JsonlSink::to_stream(stdout)
                                         : JsonlSink::to_file(options.out);
    const char* slash = std::strrchr(argv[0], '/');
    std::size_t first = 0;  // flat index of this campaign's point 0
    for (Campaign campaign : campaigns) {
      if (campaign.label.empty()) campaign.label = slash ? slash + 1 : argv[0];
      const std::size_t grid = campaign.sweep.point_count();
      RunnerOptions own = options;
      own.points.clear();
      for (const std::size_t p : options.points) {
        if (p >= first && p < first + grid) own.points.push_back(p - first);
      }
      first += grid;
      if (own.points.empty() && !options.points.empty()) continue;  // none selected here
      if (const int rc = run_campaign(campaign, own, sink); rc != 0) return rc;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return 0;
}

int bench_main(const Campaign& campaign, int argc, char** argv) {
  return bench_main(std::span<const Campaign>(&campaign, 1), argc, argv);
}

}  // namespace icpda::runner
