// Heterogeneous fleet coordination: clients with different budgets get
// different (marginal-gain-optimal) predicate subsets, chunks flow
// through a work-stealing scheduler, and every chunk carries its
// evaluated-predicate mask so the server can complete the missing bits —
// or fall back to conservative all-ones. Correctness must hold for ANY
// fleet composition, speed mix, or injected failure: loaded rows and
// query results equal the sequential single-client oracle (the paper's
// per-client budget trade-off, abstract + §I).

#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "client/fleet.h"
#include "engine/executor.h"
#include "json/parser.h"
#include "predicate/semantic_eval.h"
#include "storage/partial_loader.h"
#include "storage/transport.h"
#include "workload/dataset.h"
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

struct MultiClientFixture {
  workload::Dataset ds = workload::GenerateWinLog({600, 41});
  PredicateRegistry registry;
  std::vector<Clause> pushed = workload::MicroTierPredicates(0.15);

  MultiClientFixture() {
    pushed.resize(4);
    double cost = 1.0;
    for (const Clause& c : pushed) {
      // Increasing costs: 1, 2, 3, 4 µs; identical selectivities, so the
      // allocator's gain/cost ranking is ascending-cost order.
      EXPECT_TRUE(registry.Register(c, 0.15, cost).ok());
      cost += 1.0;
    }
  }
};

/// One complete fleet ingest: FleetScheduler -> BoundedTransport ->
/// LoaderPool -> catalog. Collects everything a test wants to compare.
struct FleetRun {
  std::unique_ptr<TableCatalog> catalog;
  LoadStats load;
  PrefilterStats prefilter;
  std::vector<FleetClientStats> clients;
  uint64_t steals = 0;
  Status send_status;
  Status load_status;

  bool ok() const { return send_status.ok() && load_status.ok(); }
};

FleetRun RunFleet(const workload::Dataset& ds,
                  const PredicateRegistry& registry,
                  std::vector<FleetClientSpec> specs,
                  const std::vector<std::string>& records,
                  FleetOptions options, bool server_completion,
                  size_t num_loaders = 2) {
  FleetRun run;
  run.catalog = std::make_unique<TableCatalog>(ds.schema);
  PartialLoader loader(ds.schema, registry, /*annotation_epoch=*/0,
                       server_completion);
  BoundedTransport transport(/*capacity=*/8);
  transport.AddProducers(1);
  LoaderPoolOptions loader_options;
  loader_options.num_loaders = num_loaders;
  LoaderPool loaders(&loader, &transport, run.catalog.get(), loader_options);
  loaders.Start();

  FleetScheduler fleet(&registry, &transport, std::move(specs), options);
  run.send_status = fleet.SendRecords(records);
  transport.ProducerDone();
  run.load_status = loaders.Join();

  run.load = loaders.stats();
  run.prefilter = fleet.stats();
  run.steals = fleet.steals();
  for (size_t c = 0; c < fleet.num_clients(); ++c) {
    run.clients.push_back(fleet.client_stats(c));
  }
  return run;
}

/// The sequential single-client oracle: one full-budget client, one
/// loader, no concurrency.
FleetRun RunOracle(const workload::Dataset& ds,
                   const PredicateRegistry& registry,
                   const std::vector<std::string>& records,
                   size_t chunk_size = 100) {
  FleetOptions options;
  options.chunk_size = chunk_size;
  return RunFleet(ds, registry, {FleetClientSpec{"oracle"}}, records, options,
                  /*server_completion=*/true, /*num_loaders=*/1);
}

// ---------- Budget-aware allocator ----------

TEST(AllocatorTest, BudgetTiersSelectAffordableSets) {
  MultiClientFixture fx;
  // Registry costs are 1,2,3,4 with equal gains. Budgets: 0 -> {},
  // 1 -> {0}, 3.5 -> {0,1}, inf -> all.
  EXPECT_TRUE(AllocateForBudget(fx.registry, 0.0).ids.empty());
  EXPECT_EQ(AllocateForBudget(fx.registry, 1.0).ids,
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(AllocateForBudget(fx.registry, 3.5).ids,
            (std::vector<uint32_t>{0, 1}));
  const BudgetAllocation all = AllocateForBudget(
      fx.registry, std::numeric_limits<double>::infinity());
  EXPECT_EQ(all.ids, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(all.cost_us, 10.0);
}

TEST(AllocatorTest, SkipsUnaffordableButTakesLaterAffordable) {
  MultiClientFixture fx;
  // Budget 4.1: takes cost-1, cost-2 (total 3), cannot afford cost-3
  // (would be 6), and cost-4 doesn't fit either (3+4=7). -> {0,1}
  EXPECT_EQ(AllocateForBudget(fx.registry, 4.1).ids,
            (std::vector<uint32_t>{0, 1}));
}

TEST(AllocatorTest, RanksByMarginalGainPerCostNotRegistryOrder) {
  // Predicate 0 is nearly useless (sel .9) but first in registry order;
  // predicate 1 filters almost everything at the same cost. A 1µs budget
  // must pick {1} — the old prefix rule would have picked {0}.
  auto pushed = workload::MicroTierPredicates(0.15);
  PredicateRegistry registry;
  ASSERT_TRUE(registry.Register(pushed[0], 0.9, 1.0).ok());
  ASSERT_TRUE(registry.Register(pushed[1], 0.1, 1.0).ok());
  EXPECT_EQ(AllocateForBudget(registry, 1.0).ids,
            (std::vector<uint32_t>{1}));
}

TEST(AllocatorTest, BudgetsCanYieldDisjointNonPrefixSets) {
  // cost 3 / gain .9 (ratio .30) vs cost 2 / gain .5 (ratio .25): budget
  // 3 takes {0}; budget 2 cannot afford 0 and falls through to {1}.
  // Non-nested, non-prefix — the knapsack shape the prefix rule missed.
  auto pushed = workload::MicroTierPredicates(0.15);
  PredicateRegistry registry;
  ASSERT_TRUE(registry.Register(pushed[0], 0.1, 3.0).ok());
  ASSERT_TRUE(registry.Register(pushed[1], 0.5, 2.0).ok());
  EXPECT_EQ(AllocateForBudget(registry, 3.0).ids,
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(AllocateForBudget(registry, 2.0).ids,
            (std::vector<uint32_t>{1}));
}

TEST(AllocatorTest, BatchedBaseChargedOnceOnFirstPick) {
  auto pushed = workload::MicroTierPredicates(0.15);
  PredicateRegistry registry;
  ASSERT_TRUE(registry.Register(pushed[0], 0.2, 1.0).ok());
  ASSERT_TRUE(registry.Register(pushed[1], 0.2, 1.0).ok());
  registry.set_matcher_mode(ClientMatcherMode::kBatched);
  registry.set_base_cost_us(2.0);
  // base 2 + marginal 1 = 3 > 2.5: nothing fits.
  EXPECT_TRUE(AllocateForBudget(registry, 2.5).ids.empty());
  // Budget 3 affords exactly one predicate (base charged once)...
  const BudgetAllocation one = AllocateForBudget(registry, 3.0);
  EXPECT_EQ(one.ids, (std::vector<uint32_t>{0}));
  EXPECT_DOUBLE_EQ(one.cost_us, 3.0);
  // ...and budget 4 both — the second pays only its marginal µs.
  const BudgetAllocation both = AllocateForBudget(registry, 4.0);
  EXPECT_EQ(both.ids, (std::vector<uint32_t>{0, 1}));
  EXPECT_DOUBLE_EQ(both.cost_us, 4.0);

  // Per-pattern mode has no shared scan: budget 2 fits both predicates.
  registry.set_matcher_mode(ClientMatcherMode::kPerPattern);
  EXPECT_EQ(AllocateForBudget(registry, 2.0).ids,
            (std::vector<uint32_t>{0, 1}));
}

// ---------- Coordinator edge cases ----------

TEST(FleetEdgeCaseTest, ZeroBudgetClientShipsUnannotatedChunks) {
  MultiClientFixture fx;
  FleetOptions options;
  options.chunk_size = 90;
  FleetRun run = RunFleet(fx.ds, fx.registry, {{"zero", 0.0}}, fx.ds.records,
                          options, /*server_completion=*/true);
  ASSERT_TRUE(run.ok()) << run.send_status.ToString();
  EXPECT_EQ(run.load.records_in, fx.ds.records.size());
  // The server completed every predicate on every chunk...
  const size_t num_chunks = (fx.ds.records.size() + 89) / 90;
  EXPECT_EQ(run.load.predicates_completed, num_chunks * fx.registry.size());
  // ...so loading is as precise as the oracle's.
  FleetRun oracle = RunOracle(fx.ds, fx.registry, fx.ds.records);
  EXPECT_EQ(run.load.records_loaded, oracle.load.records_loaded);
  EXPECT_EQ(run.load.records_sidelined, oracle.load.records_sidelined);
}

TEST(FleetEdgeCaseTest, AllZeroBudgetFleetStaysCorrect) {
  MultiClientFixture fx;
  FleetOptions options;
  options.chunk_size = 50;
  FleetRun run = RunFleet(fx.ds, fx.registry,
                          {{"z0", 0.0}, {"z1", 0.0}, {"z2", 0.0}},
                          fx.ds.records, options, /*server_completion=*/true);
  ASSERT_TRUE(run.ok());
  FleetRun oracle = RunOracle(fx.ds, fx.registry, fx.ds.records);
  EXPECT_EQ(run.load.records_loaded, oracle.load.records_loaded);

  QueryExecutor executor(run.catalog.get(), &fx.registry);
  for (const Clause& c : fx.pushed) {
    Query q;
    q.clauses = {c};
    auto result = executor.Execute(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan, PlanKind::kSkippingScan);
    EXPECT_EQ(result->count, BruteForceCount(fx.ds.records, q)) << q.ToSql();
  }
}

TEST(FleetEdgeCaseTest, PredicateTooExpensiveForEveryClientIsUncovered) {
  auto pushed = workload::MicroTierPredicates(0.15);
  PredicateRegistry registry;
  ASSERT_TRUE(registry.Register(pushed[0], 0.2, 1.0).ok());
  ASSERT_TRUE(registry.Register(pushed[1], 0.2, 100.0).ok());  // unaffordable

  workload::Dataset ds = workload::GenerateWinLog({400, 17});
  InMemoryTransport unused;
  FleetScheduler fleet(&registry, &unused, {{"a", 5.0}, {"b", 10.0}}, {});
  EXPECT_EQ(fleet.assigned_ids(0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(fleet.assigned_ids(1), (std::vector<uint32_t>{0}));
  EXPECT_EQ(fleet.uncovered_ids(), (std::vector<uint32_t>{1}));

  // End-to-end the fleet still matches the oracle: the server completes
  // the uncovered predicate on every chunk.
  FleetOptions options;
  options.chunk_size = 64;
  FleetRun run = RunFleet(ds, registry, {{"a", 5.0}, {"b", 10.0}}, ds.records,
                          options, /*server_completion=*/true);
  ASSERT_TRUE(run.ok());
  FleetRun oracle = RunOracle(ds, registry, ds.records);
  EXPECT_EQ(run.load.records_loaded, oracle.load.records_loaded);
  QueryExecutor executor(run.catalog.get(), &registry);
  for (size_t p = 0; p < 2; ++p) {
    Query q;
    q.clauses = {pushed[p]};
    auto result = executor.Execute(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, BruteForceCount(ds.records, q)) << q.ToSql();
  }
}

// ---------- Conservative fallback (server completion off) ----------

TEST(FleetTest, WithoutCompletionWeakChunksLoadConservativelyMore) {
  MultiClientFixture fx;
  FleetOptions options;
  options.chunk_size = 100;
  // Budget 1 affords only predicate 0; without completion the three
  // unevaluated predicates are all-ones per chunk, loading everything.
  FleetRun weak = RunFleet(fx.ds, fx.registry, {{"weak", 1.0}},
                           fx.ds.records, options,
                           /*server_completion=*/false);
  ASSERT_TRUE(weak.ok());
  EXPECT_EQ(weak.load.LoadingRatio(), 1.0);
  EXPECT_EQ(weak.load.predicates_completed, 0u);

  // With completion the same weak fleet loads exactly the oracle's rows.
  FleetRun exact = RunFleet(fx.ds, fx.registry, {{"weak", 1.0}},
                            fx.ds.records, options,
                            /*server_completion=*/true);
  ASSERT_TRUE(exact.ok());
  FleetRun oracle = RunOracle(fx.ds, fx.registry, fx.ds.records);
  EXPECT_EQ(exact.load.records_loaded, oracle.load.records_loaded);
  EXPECT_LT(exact.load.LoadingRatio(), 0.75);

  // Either way queries stay exact (all-ones is sound, just imprecise).
  QueryExecutor executor(weak.catalog.get(), &fx.registry);
  for (const Clause& c : fx.pushed) {
    Query q;
    q.clauses = {c};
    auto result = executor.Execute(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, BruteForceCount(fx.ds.records, q)) << q.ToSql();
  }
}

// ---------- Property/fuzz: any fleet == the sequential oracle ----------

TEST(FleetPropertyTest, RandomHeterogeneousFleetsMatchSequentialOracle) {
  MultiClientFixture fx;
  FleetRun oracle = RunOracle(fx.ds, fx.registry, fx.ds.records);
  ASSERT_TRUE(oracle.ok());

  // Queries checked each trial: every single pushed predicate plus one
  // conjunction.
  std::vector<Query> queries;
  for (const Clause& c : fx.pushed) {
    Query q;
    q.clauses = {c};
    queries.push_back(q);
  }
  Query conj;
  conj.clauses = {fx.pushed[0], fx.pushed[1]};
  queries.push_back(conj);
  std::vector<uint64_t> expected;
  expected.reserve(queries.size());
  for (const Query& q : queries) {
    expected.push_back(BruteForceCount(fx.ds.records, q));
  }

  for (uint64_t trial = 0; trial < 12; ++trial) {
    std::mt19937_64 rng(0xF1EE7 + trial);
    const size_t num_clients = 1 + rng() % 5;
    std::vector<FleetClientSpec> specs(num_clients);
    // At most num_clients-1 failures, so the fleet always finishes.
    size_t failures_left = num_clients - 1;
    for (size_t c = 0; c < num_clients; ++c) {
      specs[c].name = "c" + std::to_string(c);
      // Budgets span empty, partial, and full assignments (total cost 10).
      specs[c].budget_us = static_cast<double>(rng() % 1200) / 100.0;
      // Mild slowdowns only — the delays must not dominate test time.
      specs[c].speed_factor = 0.5 + static_cast<double>(rng() % 50) / 100.0;
      if (failures_left > 0 && rng() % 3 == 0) {
        specs[c].fail_after_chunks = rng() % 4;
        --failures_left;
      }
    }
    FleetOptions options;
    options.chunk_size = 7 + rng() % 200;
    options.work_stealing = rng() % 4 != 0;  // mostly on, sometimes static
    const size_t num_loaders = 1 + rng() % 3;

    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " clients=" + std::to_string(num_clients) +
                 " chunk=" + std::to_string(options.chunk_size) +
                 " ws=" + std::to_string(options.work_stealing));
    FleetRun run = RunFleet(fx.ds, fx.registry, specs, fx.ds.records, options,
                            /*server_completion=*/true, num_loaders);
    ASSERT_TRUE(run.ok()) << run.send_status.ToString() << " / "
                          << run.load_status.ToString();

    // Loaded rows identical to the oracle — per-chunk masks + completion
    // make the per-record loading decision independent of which client
    // handled the chunk, how records were chunked, or who failed.
    EXPECT_EQ(run.load.records_in, fx.ds.records.size());
    EXPECT_EQ(run.load.records_loaded, oracle.load.records_loaded);
    EXPECT_EQ(run.load.records_sidelined, oracle.load.records_sidelined);
    EXPECT_EQ(run.prefilter.records_filtered, fx.ds.records.size());

    QueryExecutor executor(run.catalog.get(), &fx.registry);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto result = executor.Execute(queries[i]);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->count, expected[i]) << queries[i].ToSql();
    }
  }
}

// ---------- Straggler absorption & failure injection ----------

TEST(FleetTest, WorkStealingAbsorbsStraggler) {
  MultiClientFixture fx;
  FleetOptions options;
  options.chunk_size = 20;  // 30 chunks
  FleetRun run = RunFleet(fx.ds, fx.registry,
                          {{"fast-0"},
                           {"fast-1"},
                           {"straggler", std::numeric_limits<double>::infinity(),
                            /*speed_factor=*/0.02}},
                          fx.ds.records, options, /*server_completion=*/true);
  ASSERT_TRUE(run.ok());
  const size_t num_chunks = (fx.ds.records.size() + 19) / 20;
  // The 50x straggler must end up with far less than its static third.
  EXPECT_LT(run.clients[2].chunks_processed, num_chunks / 3);
  EXPECT_GT(run.steals, 0u);
  EXPECT_EQ(run.load.records_in, fx.ds.records.size());
}

TEST(FleetTest, FailedClientsChunksAreAbsorbed) {
  MultiClientFixture fx;
  FleetRun oracle = RunOracle(fx.ds, fx.registry, fx.ds.records);
  for (const bool work_stealing : {true, false}) {
    SCOPED_TRACE(work_stealing ? "work-stealing" : "static");
    FleetOptions options;
    options.chunk_size = 10;  // 60 chunks: the flaky client WILL get work
    options.work_stealing = work_stealing;
    FleetRun run = RunFleet(
        fx.ds, fx.registry,
        {{"healthy"},
         {"flaky", std::numeric_limits<double>::infinity(),
          /*speed_factor=*/1.0, /*fail_after_chunks=*/2}},
        fx.ds.records, options, /*server_completion=*/true);
    ASSERT_TRUE(run.ok()) << run.send_status.ToString();
    // The injection caps the flaky client at 2 chunks. (Whether the
    // `failed` flag fired is a scheduling race — under starvation the
    // healthy client may drain everything first — so the invariants are
    // the cap and, below, zero data loss.)
    EXPECT_LE(run.clients[1].chunks_processed, 2u);
    // No chunk lost: every record arrived exactly once, loads match the
    // oracle.
    EXPECT_EQ(run.load.records_in, fx.ds.records.size());
    EXPECT_EQ(run.load.records_loaded, oracle.load.records_loaded);
  }
}

TEST(FleetTest, AllClientsFailingIsAnError) {
  MultiClientFixture fx;
  FleetOptions options;
  options.chunk_size = 50;
  FleetRun run = RunFleet(
      fx.ds, fx.registry,
      {{"dies-immediately", std::numeric_limits<double>::infinity(), 1.0,
        /*fail_after_chunks=*/0}},
      fx.ds.records, options, /*server_completion=*/true);
  EXPECT_FALSE(run.send_status.ok());
}

// ---------- Chunk order ----------

/// The straggler fleet of WorkStealingAbsorbsStraggler: it finishes
/// chunks far out of index order.
std::vector<FleetClientSpec> StragglerFleet() {
  return {{"fast-0"},
          {"fast-1"},
          {"straggler", std::numeric_limits<double>::infinity(),
           /*speed_factor=*/0.02}};
}

TEST(FleetOrderTest, StragglerFleetSendsChunksInIndexOrder) {
  MultiClientFixture fx;
  FleetOptions options;
  options.chunk_size = 20;  // 30 chunks
  const size_t num_chunks =
      (fx.ds.records.size() + options.chunk_size - 1) / options.chunk_size;
  // Room for every chunk, so no send blocks and nothing drains early.
  BoundedTransport transport(/*capacity=*/num_chunks);
  transport.AddProducers(1);
  FleetScheduler fleet(&fx.registry, &transport, StragglerFleet(), options);
  ASSERT_TRUE(fleet.SendRecords(fx.ds.records).ok());
  transport.ProducerDone();
  EXPECT_GT(fleet.steals(), 0u);

  size_t received = 0;
  while (true) {
    auto payload = transport.Receive();
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    if (!payload->has_value()) break;
    auto msg = ChunkMessage::Deserialize(**payload);
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    const size_t start = received * options.chunk_size;
    ASSERT_LT(start, fx.ds.records.size());
    EXPECT_EQ(msg->chunk.Record(0), fx.ds.records[start])
        << "payload " << received << " is not chunk " << received;
    ++received;
  }
  EXPECT_EQ(received, num_chunks);
}

// One loader publishes segments in the order payloads arrive, so a fleet
// that finishes chunks out of order still yields the sequential oracle's
// catalog: the same segment bytes in the same snapshot positions, on
// every run.
TEST(FleetOrderTest, StragglerFleetPublishesInTheSameSnapshotOrderEveryRun) {
  MultiClientFixture fx;
  const FleetRun oracle = RunOracle(fx.ds, fx.registry, fx.ds.records,
                                    /*chunk_size=*/20);
  ASSERT_TRUE(oracle.ok());
  const std::vector<SegmentRef> expected = oracle.catalog->SnapshotSegments();
  ASSERT_GT(expected.size(), 1u);
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    FleetOptions options;
    options.chunk_size = 20;
    const FleetRun fleet =
        RunFleet(fx.ds, fx.registry, StragglerFleet(), fx.ds.records, options,
                 /*server_completion=*/true, /*num_loaders=*/1);
    ASSERT_TRUE(fleet.ok());
    const std::vector<SegmentRef> actual = fleet.catalog->SnapshotSegments();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i]->file_bytes, expected[i]->file_bytes)
          << "snapshot position " << i;
    }
  }
}

}  // namespace
}  // namespace ciao
