// Concurrent ingest pipeline: N prefilter clients + M loader workers over
// a bounded transport must produce exactly the query results of the
// sequential paper pipeline — same counts, same loading decisions — for
// every workload, at every pool geometry.

#include <gtest/gtest.h>

#include "client/fleet.h"
#include "core/system.h"
#include "json/parser.h"
#include "predicate/semantic_eval.h"
#include "storage/partial_loader.h"
#include "storage/transport.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"
#include "workload/templates.h"

namespace ciao {
namespace {

uint64_t BruteForceCount(const std::vector<std::string>& records,
                         const Query& q) {
  uint64_t count = 0;
  for (const std::string& r : records) {
    auto v = json::Parse(r);
    if (v.ok() && EvaluateQuery(q, *v)) ++count;
  }
  return count;
}

struct PipelineFixture {
  workload::Dataset ds;
  Workload wl;

  explicit PipelineFixture(size_t num_records = 800) {
    workload::GeneratorOptions gen;
    gen.num_records = num_records;
    gen.seed = 19;
    ds = workload::GenerateDataset(workload::DatasetKind::kWinLog, gen);
    const auto pool =
        workload::TemplatesFor(workload::DatasetKind::kWinLog).AllCandidates();
    workload::WorkloadSpec spec;
    spec.num_queries = 20;
    spec.seed = 5;
    wl = workload::GenerateWorkload(pool, spec);
  }

  Result<std::unique_ptr<CiaoSystem>> Boot(const IngestOptions& ingest,
                                           size_t scan_threads = 1) const {
    CiaoConfig config;
    config.budget_us = 3.0;
    config.chunk_size = 100;
    config.sample_size = 400;
    config.ingest = ingest;
    config.query_scan_threads = scan_threads;
    return CiaoSystem::Bootstrap(ds.schema, wl, ds.records, config,
                                 CostModel::Default());
  }
};

TEST(ParallelIngestTest, PoolGeometriesMatchSequentialResults) {
  PipelineFixture fx;

  // Reference: the sequential paper pipeline.
  auto sequential = fx.Boot(IngestOptions{});
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  ASSERT_TRUE((*sequential)->IngestRecords(fx.ds.records).ok());
  auto sequential_results = (*sequential)->ExecuteWorkload();
  ASSERT_TRUE(sequential_results.ok());
  const LoadStats& seq_stats = (*sequential)->load_stats();

  const IngestOptions geometries[] = {
      {2, 1, 4},   // clients outnumber the single loader
      {1, 3, 4},   // loader pool drains one client
      {4, 4, 8},   // the acceptance-criteria geometry
      {4, 4, 1},   // minimal queue: maximal backpressure interleaving
  };
  for (const IngestOptions& ingest : geometries) {
    SCOPED_TRACE("clients=" + std::to_string(ingest.num_clients) +
                 " loaders=" + std::to_string(ingest.num_loaders) +
                 " capacity=" + std::to_string(ingest.queue_capacity));
    auto system = fx.Boot(ingest);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ASSERT_TRUE((*system)->IngestRecords(fx.ds.records).ok());

    // Identical per-record loading decisions: the concurrent pipeline
    // partitions chunk-wise, so chunk contents match the sequential path.
    const LoadStats& stats = (*system)->load_stats();
    EXPECT_EQ(stats.records_in, seq_stats.records_in);
    EXPECT_EQ(stats.records_loaded, seq_stats.records_loaded);
    EXPECT_EQ(stats.records_sidelined, seq_stats.records_sidelined);
    EXPECT_EQ(stats.parse_errors, 0u);

    auto results = (*system)->ExecuteWorkload();
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), sequential_results->size());
    for (size_t i = 0; i < results->size(); ++i) {
      EXPECT_EQ((*results)[i].count, (*sequential_results)[i].count)
          << fx.wl.queries[i].ToSql();
      EXPECT_EQ((*results)[i].plan, (*sequential_results)[i].plan);
      EXPECT_EQ((*results)[i].count,
                BruteForceCount(fx.ds.records, fx.wl.queries[i]));
    }
  }
}

TEST(ParallelIngestTest, ParallelScanMatchesSequentialScan) {
  PipelineFixture fx;
  auto system = fx.Boot(IngestOptions{4, 4, 8}, /*scan_threads=*/4);
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->IngestRecords(fx.ds.records).ok());
  // Many segments, published by four concurrent loaders.
  EXPECT_GT((*system)->catalog().num_segments(), 1u);

  auto results = (*system)->ExecuteWorkload();
  ASSERT_TRUE(results.ok());
  for (size_t i = 0; i < results->size(); ++i) {
    EXPECT_EQ((*results)[i].count,
              BruteForceCount(fx.ds.records, fx.wl.queries[i]))
        << fx.wl.queries[i].ToSql();
  }
}

TEST(ParallelIngestTest, MergedStatsAndReportAreCoherent) {
  PipelineFixture fx(600);
  auto system = fx.Boot(IngestOptions{3, 2, 4});
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->IngestRecords(fx.ds.records).ok());

  const PrefilterStats prefilter = (*system)->prefilter_stats();
  EXPECT_EQ(prefilter.records_filtered, fx.ds.records.size());
  EXPECT_GT(prefilter.seconds, 0.0);
  EXPECT_GT((*system)->ingest_wall_seconds(), 0.0);

  const EndToEndReport report = (*system)->BuildReport("concurrent");
  EXPECT_EQ(report.ingest_clients, 3u);
  EXPECT_EQ(report.ingest_loaders, 2u);
  EXPECT_GT(report.ingest_wall_seconds, 0.0);
  EXPECT_GT(report.prefilter_seconds, 0.0);
}

TEST(ParallelIngestTest, IncrementalConcurrentIngestAccumulates) {
  PipelineFixture fx(600);
  auto system = fx.Boot(IngestOptions{2, 2, 4});
  ASSERT_TRUE(system.ok());
  const size_t half = fx.ds.records.size() / 2;
  std::vector<std::string> part1(fx.ds.records.begin(),
                                 fx.ds.records.begin() + half);
  std::vector<std::string> part2(fx.ds.records.begin() + half,
                                 fx.ds.records.end());
  ASSERT_TRUE((*system)->IngestRecords(part1).ok());
  ASSERT_TRUE((*system)->IngestRecords(part2).ok());
  EXPECT_EQ((*system)->load_stats().records_in, fx.ds.records.size());

  auto results = (*system)->ExecuteWorkload();
  ASSERT_TRUE(results.ok());
  for (size_t i = 0; i < results->size(); ++i) {
    EXPECT_EQ((*results)[i].count,
              BruteForceCount(fx.ds.records, fx.wl.queries[i]));
  }
}

TEST(ParallelIngestTest, ClientAndLoaderPoolsComposeDirectly) {
  // Drive the pools without the CiaoSystem facade, the way a custom
  // server embedding would: explicit registry, transport, catalog.
  PipelineFixture fx(500);
  PredicateRegistry registry;
  const auto pushed = workload::MicroTierPredicates(0.15);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(registry.Register(pushed[i], 0.15, 1.0).ok());
  }

  TableCatalog catalog(fx.ds.schema);
  PartialLoader loader(fx.ds.schema, registry.size());
  BoundedTransport transport(/*capacity=*/4);
  transport.AddProducers(1);

  LoaderPoolOptions loader_options;
  loader_options.num_loaders = 3;
  LoaderPool loaders(&loader, &transport, &catalog, loader_options);
  loaders.Start();

  FleetOptions client_options;
  client_options.chunk_size = 50;
  FleetScheduler clients(&registry, &transport,
                         {{"c0"}, {"c1"}, {"c2"}}, client_options);
  ASSERT_TRUE(clients.SendRecords(fx.ds.records).ok());
  transport.ProducerDone();
  ASSERT_TRUE(loaders.Join().ok());

  EXPECT_EQ(loaders.stats().records_in, fx.ds.records.size());
  EXPECT_EQ(clients.stats().records_filtered, fx.ds.records.size());
  EXPECT_EQ(catalog.loaded_rows() + catalog.raw_rows(),
            fx.ds.records.size());

  QueryExecutor executor(&catalog, &registry);
  for (size_t p = 0; p < 3; ++p) {
    Query q;
    q.clauses = {pushed[p]};
    auto result = executor.Execute(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan, PlanKind::kSkippingScan);
    EXPECT_EQ(result->count, BruteForceCount(fx.ds.records, q)) << q.ToSql();
  }
}

}  // namespace
}  // namespace ciao
