// Ablation: why partial loading pays — per-query scan cost of columnar
// data vs raw JSON, and the effect of bitvector row skipping and whole-
// group skipping on scan time.

#include <benchmark/benchmark.h>

#include <memory>
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

}  // namespace

BENCHMARK_MAIN();
