// Ablation: why partial loading pays — per-query scan cost of columnar
// data vs raw JSON, and the effect of bitvector row skipping and whole-
// group skipping on scan time. The BM_RawScreen* cells screen the raw
// sideline with the query's clause patterns before parsing, cold (a
// fresh sideline per iteration) and warm (one sideline that remembers
// its verdicts).

#include <benchmark/benchmark.h>

#include <memory>
#include <string_view>
#include <vector>

#include "engine/executor.h"
#include "json/chunk.h"
#include "storage/partial_loader.h"
#include "workload/dataset.h"
#include "workload/templates.h"

namespace {

using namespace ciao;

struct ScanFixture {
  workload::Dataset ds;
  PredicateRegistry registry;
  TableCatalog columnar_catalog;   // everything loaded, annotations attached
  TableCatalog raw_catalog;        // everything sidelined raw
  Query query;

  ScanFixture()
      : ds(workload::GenerateWinLog({20000, 3})),
        columnar_catalog(ds.schema),
        raw_catalog(ds.schema) {
    const auto pool = workload::MicroTierPredicates(0.01);
    query.clauses = {pool[0]};
    registry.Register(pool[0], 0.01, 1.0).ok();

    PartialLoader loader(ds.schema, 1);
    LoadStats stats;
    const size_t chunk_size = 1000;
    for (size_t start = 0; start < ds.records.size(); start += chunk_size) {
      json::JsonChunk chunk;
      const size_t end = std::min(ds.records.size(), start + chunk_size);
      for (size_t i = start; i < end; ++i) {
        chunk.AppendSerialized(ds.records[i]);
      }
      BitVectorSet annotations(1, chunk.size());
      const auto& program = registry.Get(0).program;
      for (size_t r = 0; r < chunk.size(); ++r) {
        if (program.Matches(chunk.Record(r))) {
          annotations.mutable_vector(0)->Set(r, true);
        }
      }
      loader
          .IngestChunk(chunk, annotations, /*partial_loading_enabled=*/false,
                       &columnar_catalog, &stats)
          .ok();
      // Raw catalog: everything stays JSON.
      for (size_t i = start; i < end; ++i) {
        raw_catalog.AppendRawBatch({ds.records[i]});
      }
    }
  }
};

ScanFixture& Fixture() {
  static auto* fx = new ScanFixture();
  return *fx;
}

// A first-time scan: each iteration scans a catalog that has learned
// nothing, published from the fixture's segment bytes outside the timer.
void BM_ColumnarFullScanCold(benchmark::State& state) {
  ScanFixture& fx = Fixture();
  const std::vector<SegmentRef> segments =
      fx.columnar_catalog.SnapshotSegments();
  std::unique_ptr<TableCatalog> catalog;
  for (auto _ : state) {
    state.PauseTiming();
    catalog = std::make_unique<TableCatalog>(fx.ds.schema);
    for (const SegmentRef& segment : segments) {
      catalog->AddSegment(segment->file_bytes, segment->num_rows).ok();
    }
    const QueryExecutor executor(catalog.get(), &fx.registry);
    state.ResumeTiming();
    benchmark::DoNotOptimize(executor.ExecuteFullScan(fx.query));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.ds.records.size()));
}
BENCHMARK(BM_ColumnarFullScanCold);

// The same query repeated on one catalog: after the first iteration it
// is answered from the bits the earlier scans learned.
void BM_ColumnarFullScanWarm(benchmark::State& state) {
  ScanFixture& fx = Fixture();
  QueryExecutor executor(&fx.columnar_catalog, &fx.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteFullScan(fx.query));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.ds.records.size()));
}
BENCHMARK(BM_ColumnarFullScanWarm);

void BM_ColumnarSkippingScan(benchmark::State& state) {
  ScanFixture& fx = Fixture();
  QueryExecutor executor(&fx.columnar_catalog, &fx.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteWithSkipping(fx.query, {0}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.ds.records.size()));
}
BENCHMARK(BM_ColumnarSkippingScan);

// The paper's raw-parse ablation: the default executor options leave
// raw_prefilter off, so every sideline record is parsed and none is
// screened.
void BM_RawJsonScan(benchmark::State& state) {
  ScanFixture& fx = Fixture();
  QueryExecutor executor(&fx.raw_catalog, &fx.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteFullScan(fx.query));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.ds.records.size()));
}
BENCHMARK(BM_RawJsonScan);

ExecutorOptions RawScreenOptions() {
  ExecutorOptions options;
  options.raw_prefilter = true;
  return options;
}

// A 0.15, a 0.15 and a 0.01 marker clause: most records fail the first
// clause, so the order the screen runs clauses in decides its cost.
Query ScreenConjunction() {
  const auto tier15 = workload::MicroTierPredicates(0.15);
  Query query;
  query.clauses = {tier15[0], tier15[1],
                   workload::MicroTierPredicates(0.01)[0]};
  return query;
}

// A first-time raw screen of `query`: each iteration scans a freshly
// sidelined copy of every record, built outside the timer, so the
// sideline remembers no verdict.
void RawScreenCold(benchmark::State& state, const Query& query) {
  ScanFixture& fx = Fixture();
  const std::vector<std::string_view> records(fx.ds.records.begin(),
                                              fx.ds.records.end());
  std::unique_ptr<TableCatalog> catalog;
  for (auto _ : state) {
    state.PauseTiming();
    catalog = std::make_unique<TableCatalog>(fx.ds.schema);
    catalog->AppendRawBatch(records);
    const QueryExecutor executor(catalog.get(), &fx.registry,
                                 RawScreenOptions());
    state.ResumeTiming();
    benchmark::DoNotOptimize(executor.ExecuteFullScan(query));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.ds.records.size()));
}

void BM_RawScreenScanCold(benchmark::State& state) {
  RawScreenCold(state, Fixture().query);
}
BENCHMARK(BM_RawScreenScanCold);

void BM_RawScreenConjunctionCold(benchmark::State& state) {
  RawScreenCold(state, ScreenConjunction());
}
BENCHMARK(BM_RawScreenConjunctionCold);

// The same conjunction repeated on one sideline: after the first
// iteration the screen answers from the verdicts the sideline kept.
void BM_RawScreenConjunctionWarm(benchmark::State& state) {
  ScanFixture& fx = Fixture();
  const Query query = ScreenConjunction();
  const QueryExecutor executor(&fx.raw_catalog, &fx.registry,
                               RawScreenOptions());
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteFullScan(query));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.ds.records.size()));
}
BENCHMARK(BM_RawScreenConjunctionWarm);

}  // namespace

BENCHMARK_MAIN();
