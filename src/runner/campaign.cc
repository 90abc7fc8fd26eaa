#include "runner/campaign.h"

#include <algorithm>
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
  if (!options.points.empty() && options.points.back().last >= grid) {
    std::fprintf(stderr, "campaign '%s': --points index %zu out of range (grid has %zu points)\n",
                 campaign.name.c_str(), options.points.back().last, grid);
    return 1;
  }
  std::vector<std::size_t> selected;
  if (options.points.empty()) {
    selected.resize(grid);
    for (std::size_t i = 0; i < grid; ++i) selected[i] = i;
  } else {
    for (const PointRange& r : options.points) {
      for (std::size_t p = r.first; p <= r.last; ++p) selected.push_back(p);
    }
  }
  const int trials = options.trials > 0 ? options.trials : campaign.trials;
  if (trials <= 0) {
    std::fprintf(stderr, "campaign '%s': trials must be positive\n", campaign.name.c_str());
    return 1;
  }

  sink.table(campaign.name);
  sink.comment("trials per point: " + std::to_string(trials));

  const std::size_t cells = selected.size() * static_cast<std::size_t>(trials);
  Progress progress(campaign.label.empty() ? campaign.name : campaign.label, cells,
                    options.progress);

  // One registry slot per cell, indexed point-major so the reduction
  // below can walk them in declaration order.
  std::vector<sim::MetricRegistry> results(cells);

  // No more workers than cells: a 2-cell campaign never starts 64.
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(options.threads, cells));
  try {
    if (workers <= 1) {
      // Sequential path: no pool, same cell order and (crucially) the
      // same trial-ordered reduction as the parallel path. Rows stream
      // to the sink as each point completes.
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
      // Heaviest first: cells are submitted in descending slot order,
      // so the last declared point's trials start first. Size and load
      // axes are declared ascending, so the costliest cells no longer
      // run alone at the end of the campaign while the other workers
      // idle. Seeds and the reduction below do not depend on this
      // order; the price is that point 0 finishes last, so rows reach
      // the sink together near the end.
      ThreadPool pool(workers);
      std::vector<std::future<void>> futures(cells);
      for (std::size_t slot = cells; slot-- > 0;) {
        const std::size_t p = selected[slot / static_cast<std::size_t>(trials)];
        const int t = static_cast<int>(slot % static_cast<std::size_t>(trials));
        futures[slot] = pool.submit([&campaign, &progress, &results, &options, p, t, slot] {
          const Point point = campaign.sweep.point(p);
          run_cell(campaign, options, point, t, results[slot]);
          progress.tick();
        });
      }
      // Emit rows in point order as each point's trials complete.
      std::size_t slot = 0;
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

  progress.finish(std::max(workers, 1u));
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
  if (!options.points.empty() && options.points.back().last >= rows) {
    std::fprintf(stderr, "%s: --points index %zu out of range (%zu rows)\n", argv[0],
                 options.points.back().last, rows);
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
      for (const PointRange& r : options.points) {
        if (r.last < first || r.first >= first + grid) continue;
        own.points.push_back({std::max(r.first, first) - first,
                              std::min(r.last, first + grid - 1) - first});
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
