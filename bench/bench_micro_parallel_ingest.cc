// Micro-bench: ingest throughput of the concurrent pipeline (loaders
// publish into one catalog segment list under one lock) vs the
// sequential paper pipeline. Sweeps pool geometries (clients x
// loaders) over the same dataset and reports wall-clock ingest time,
// records/s, and speedup vs 1x1. Each geometry runs kRuns times, each a
// fresh Bootstrap and ingest; the table prints the median with the
// min-max across runs, so one slow run does not decide a comparison. On
// a multi-core host the 4x4 geometry should clear 2x; on a single
// hardware thread the pipeline still overlaps client prefiltering with
// server loading.
//
//   ./build/bench/bench_micro_parallel_ingest
//   CIAO_BENCH_SCALE=4 ./build/bench/bench_micro_parallel_ingest

#include <algorithm>

#include "bench_common.h"
#include "common/timer.h"

namespace ciao::bench {
namespace {

struct Geometry {
  size_t clients;
  size_t loaders;
  size_t capacity;
};

/// Fresh Bootstrap + ingest runs per geometry.
constexpr size_t kRuns = 5;

/// Median of an odd count.
double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// The median with the min-max across runs.
std::string MedianWithRange(const std::vector<double>& xs, int precision) {
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  return FormatDouble(Median(xs), precision) + " [" +
         FormatDouble(*lo, precision) + "-" + FormatDouble(*hi, precision) +
         "]";
}

void Run() {
  WarmUp();
  workload::GeneratorOptions gen;
  gen.num_records = Scaled(60000);
  gen.seed = 42;
  const workload::Dataset ds =
      workload::GenerateDataset(workload::DatasetKind::kWinLog, gen);
  const auto pool =
      workload::TemplatesFor(workload::DatasetKind::kWinLog).AllCandidates();
  Workload wl = workload::WorkloadA(pool);
  wl.queries.resize(std::min(wl.queries.size(), NumQueries()));

  std::printf(
      "=== micro: parallel ingest, dataset=%s, records=%zu, chunk=1000 ===\n",
      ds.name.c_str(), ds.records.size());
  std::printf("(client pool -> bounded transport -> loader pool -> "
              "catalog; budget 3us/record; median [min-max] of %zu runs)\n\n",
              kRuns);

  const std::vector<Geometry> geometries = {
      {1, 1, 64}, {1, 2, 64}, {2, 1, 64}, {2, 2, 64}, {4, 4, 64}, {8, 8, 64},
  };

  TablePrinter table({"clients", "loaders", "queue", "ingest_wall_s",
                      "krecords_s", "speedup_vs_1x1", "load_ratio",
                      "queries_ok"});
  double baseline_seconds = 0.0;
  for (const Geometry& g : geometries) {
    CiaoConfig config;
    config.budget_us = 3.0;
    config.chunk_size = 1000;
    config.sample_size = 2000;
    config.ingest.num_clients = g.clients;
    config.ingest.num_loaders = g.loaders;
    config.ingest.queue_capacity = g.capacity;
    std::vector<double> seconds;
    std::vector<double> krecords;
    std::vector<double> load_ratios;
    bool queries_ok = true;
    for (size_t run = 0; run < kRuns; ++run) {
      auto system = CiaoSystem::Bootstrap(ds.schema, wl, ds.records, config,
                                          CostModel::Default());
      if (!system.ok()) {
        std::fprintf(stderr, "bootstrap failed: %s\n",
                     system.status().ToString().c_str());
        std::exit(1);
      }
      Stopwatch watch;
      if (Status st = (*system)->IngestRecords(ds.records); !st.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      seconds.push_back(watch.ElapsedSeconds());
      krecords.push_back(ds.records.size() / seconds.back() / 1000.0);

      // Sanity: concurrency must not change results, in any run.
      queries_ok = queries_ok && (*system)->ExecuteWorkload().ok();
      load_ratios.push_back((*system)->load_stats().LoadingRatio());
    }
    const double median_seconds = Median(seconds);
    if (g.clients == 1 && g.loaders == 1) baseline_seconds = median_seconds;

    table.AddRow({
        StrFormat("%zu", g.clients),
        StrFormat("%zu", g.loaders),
        StrFormat("%zu", g.capacity),
        MedianWithRange(seconds, 3),
        MedianWithRange(krecords, 1),
        FormatDouble(baseline_seconds > 0 ? baseline_seconds / median_seconds
                                          : 1.0,
                     2),
        std::all_of(load_ratios.begin(), load_ratios.end(),
                    [&](double r) { return r == load_ratios.front(); })
            ? FormatDouble(load_ratios.front(), 3)
            : "varies",
        queries_ok ? "yes" : "NO",
    });
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());
}

}  // namespace
}  // namespace ciao::bench

int main() {
  ciao::bench::Run();
  return 0;
}
