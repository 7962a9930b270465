// The raw sideline remembers its screens (RawStore::Screen): per clause,
// the records its raw program ran on and those it matched. A repeated
// screen answers from those verdicts instead of re-reading raw JSON, so
// it must give exactly what running every program again would: the same
// survivors as RawQueryScreen::MaySatisfy record by record, and the same
// counts as parsing every record. These cases pin that down across
// repeated queries, appends, promotions that replace the store, and
// concurrent screens, and check that the verdicts stay under their cap
// and never outlive the store they describe.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/system.h"
#include "engine/executor.h"
#include "json/writer.h"
#include "predicate/pattern_compiler.h"
#include "storage/backfill.h"
#include "storage/jit_loader.h"
#include "storage/raw_store.h"
#include "storage/rewrite.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"
#include "workload/templates.h"

namespace ciao {
namespace {

columnar::Schema RandomSchema() {
  return columnar::Schema({{"name", columnar::ColumnType::kString},
                           {"city", columnar::ColumnType::kString},
                           {"n", columnar::ColumnType::kInt64},
                           {"tag", columnar::ColumnType::kString}});
}

// Records with the shapes a raw screen must get right: escapes,
// multi-byte UTF-8, NULLs, missing keys, and numbers and strings that
// look alike ("7" and 7), serialized by the canonical compact writer.
std::string RandomRecord(Rng* rng) {
  static const std::vector<std::string> kStrings = {
      "Bob",  "bob",     "a\"b", "back\\slash", "Z\xC3\xBCrich",
      "\xE6\x97\xA5\xE6\x9C\xAC", "\xC3\xA9", "tab\there", "7", "70",
      "Bob Bob", ""};
  static const std::vector<json::Value> kNumbers = {7, 70, -7, 0, 1.5};
  json::Object record;
  for (const char* field : {"name", "city", "n", "tag"}) {
    const uint64_t shape = rng->NextBounded(10);
    if (shape == 0) continue;  // missing key
    if (shape == 1) {
      record.emplace_back(field, json::Value());
    } else if (shape <= 6) {
      record.emplace_back(field,
                          kStrings[rng->NextBounded(kStrings.size())]);
    } else {
      record.emplace_back(field, kNumbers[rng->NextBounded(kNumbers.size())]);
    }
  }
  return json::Write(json::Value(std::move(record)));
}

// Exact, substring, presence, key-value and multi-term clauses, plus a
// range clause that cannot run on raw bytes and so never screens.
std::vector<Clause> ClausePool() {
  using P = SimplePredicate;
  return {
      Clause::Of(P::Exact("name", "Bob")),
      Clause::Of(P::Exact("city", "Z\xC3\xBCrich")),
      Clause::Of(P::Exact("name", "a\"b")),
      Clause::Of(P::Exact("tag", "7")),
      Clause::Of(P::Substring("tag", "back")),
      Clause::Of(P::Substring("city", "\xE6\x97\xA5")),
      Clause::Of(P::Presence("tag")),
      Clause::Of(P::Presence("n")),
      Clause::Of(P::KeyValue("n", 7)),
      Clause::Of(P::KeyValue("name", json::Value("Bob"))),
      Clause::Or({P::Exact("name", "bob"), P::KeyValue("n", 70)}),
      Clause::Or({P::Substring("name", "\xC3\xA9"), P::Presence("city")}),
      Clause::Of(P::RangeLess("n", 10)),
  };
}

// One to three distinct clauses of the pool, in random order; every
// other query projects `name`.
Query RandomConjunction(Rng* rng) {
  const std::vector<Clause> pool = ClausePool();
  Query q;
  const size_t num_clauses = 1 + rng->NextBounded(3);
  while (q.clauses.size() < num_clauses) {
    const Clause& pick = pool[rng->NextBounded(pool.size())];
    bool seen = false;
    for (const Clause& c : q.clauses) {
      seen = seen || c.CanonicalKey() == pick.CanonicalKey();
    }
    if (!seen) q.clauses.push_back(pick);
  }
  if (rng->NextBounded(2) == 0) q.projected = {"name"};
  return q;
}

// The survivors of `screen` over `raw`, one record at a time.
BitVector BruteForceSurvivors(const RawStore& raw,
                              const RawQueryScreen& screen) {
  BitVector out(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    out.Set(i, screen.MaySatisfy(raw.Record(i)));
  }
  return out;
}

// The programs MaySatisfy runs over records [begin, raw.size()): one per
// clause up to and including the first miss.
uint64_t ShortCircuitEvals(const RawStore& raw, const RawQueryScreen& screen,
                           size_t begin = 0) {
  uint64_t evals = 0;
  for (size_t i = begin; i < raw.size(); ++i) {
    for (size_t c = 0; c < screen.num_clauses(); ++c) {
      ++evals;
      if (!screen.Matches(c, raw.Record(i))) break;
    }
  }
  return evals;
}

ExecutorOptions Screening(bool raw_prefilter) {
  ExecutorOptions options;
  options.raw_prefilter = raw_prefilter;
  return options;
}

void AppendAll(TableCatalog* catalog, const std::vector<std::string>& records) {
  catalog->AppendRawBatch(
      std::vector<std::string_view>(records.begin(), records.end()));
}

// 3,000 winlog records, all sidelined.
struct WinLogSideline {
  workload::Dataset ds = workload::GenerateWinLog({3000, 11});
  TableCatalog catalog{ds.schema};
  PredicateRegistry registry;

  WinLogSideline() { AppendAll(&catalog, ds.records); }
};

TEST(RawScreenTest, RepeatedFullScanRunsNoClauseProgram) {
  WinLogSideline fx;
  const std::vector<Clause> tier15 = workload::MicroTierPredicates(0.15);
  const std::vector<Clause> tier01 = workload::MicroTierPredicates(0.01);
  Query first;
  first.clauses = {tier15[0], tier15[1], tier01[0]};
  first.projected = {"time", "level"};
  const QueryExecutor executor(&fx.catalog, &fx.registry, Screening(true));
  const QueryExecutor parse_all(&fx.catalog, &fx.registry, Screening(false));
  const std::shared_ptr<const RawStore> raw = fx.catalog.SnapshotRaw();

  Result<QueryResult> cold = executor.ExecuteFullScan(first);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  // A first screen does the short-circuit work of MaySatisfy, no more.
  EXPECT_EQ(cold->stats.raw_clause_evals,
            ShortCircuitEvals(*raw, RawQueryScreen(first)));
  EXPECT_GT(cold->stats.raw_records_screened_out, 0u);
  Result<QueryResult> reference = parse_all.ExecuteFullScan(first);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->stats.raw_clause_evals, 0u);
  EXPECT_EQ(cold->count, reference->count);
  EXPECT_EQ(cold->projected_hashes, reference->projected_hashes);

  Result<QueryResult> warm = executor.ExecuteFullScan(first);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.raw_clause_evals, 0u);
  EXPECT_EQ(warm->count, cold->count);
  EXPECT_EQ(warm->projected_hashes, cold->projected_hashes);
  EXPECT_EQ(warm->stats.raw_records_screened_out,
            cold->stats.raw_records_screened_out);
  EXPECT_EQ(warm->stats.raw_records_scanned, cold->stats.raw_records_scanned);

  // The shared clause was decided on every record; only the records it
  // passes run the clause this query adds.
  Query second;
  second.clauses = {tier15[0], tier15[2]};
  const RawClauseProgram shared =
      RawClauseProgram::Compile(tier15[0]).value();
  uint64_t shared_hits = 0;
  for (size_t i = 0; i < raw->size(); ++i) {
    if (shared.Matches(raw->Record(i))) ++shared_hits;
  }
  ASSERT_GT(shared_hits, 0u);
  Result<QueryResult> partly = executor.ExecuteFullScan(second);
  ASSERT_TRUE(partly.ok());
  EXPECT_EQ(partly->stats.raw_clause_evals, shared_hits);
  Result<QueryResult> second_reference = parse_all.ExecuteFullScan(second);
  ASSERT_TRUE(second_reference.ok());
  EXPECT_EQ(partly->count, second_reference->count);
  Result<QueryResult> second_warm = executor.ExecuteFullScan(second);
  ASSERT_TRUE(second_warm.ok());
  EXPECT_EQ(second_warm->stats.raw_clause_evals, 0u);
  EXPECT_EQ(second_warm->count, partly->count);
  EXPECT_LE(raw->screen_bytes(), raw->screen_byte_cap());
}

TEST(RawScreenTest, ExecutorPassAfterPromotionRunsNoClauseProgram) {
  WinLogSideline fx;
  const std::vector<Clause> tier01 = workload::MicroTierPredicates(0.01);
  Query query;
  query.clauses = {tier01[0], tier01[1]};
  const QueryExecutor executor(&fx.catalog, &fx.registry, Screening(true));
  Result<QueryResult> expected =
      QueryExecutor(&fx.catalog, &fx.registry, Screening(false))
          .ExecuteFullScan(query);
  ASSERT_TRUE(expected.ok());

  // The query promotes its survivors, and the sideline it leaves is a
  // new store: the scan right after screens it afresh.
  JitStats jit;
  QueryPromotionStats promotion;
  ASSERT_TRUE(PromoteForQuery(&fx.catalog, query, fx.registry, 0, &jit,
                              &promotion)
                  .ok());
  ASSERT_GT(promotion.promoted, 0u);
  Result<QueryResult> first = executor.ExecuteFullScan(query);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->count, expected->count);
  EXPECT_GT(first->stats.raw_clause_evals, 0u);
  EXPECT_EQ(first->stats.raw_records_scanned, 0u);

  // From then on the query's promotion screens from the verdicts,
  // publishes nothing, and the executor's pass after it runs nothing.
  const std::shared_ptr<const RawStore> raw = fx.catalog.SnapshotRaw();
  promotion = QueryPromotionStats();
  ASSERT_TRUE(PromoteForQuery(&fx.catalog, query, fx.registry, 0, &jit,
                              &promotion)
                  .ok());
  EXPECT_EQ(promotion.promoted, 0u);
  EXPECT_EQ(promotion.screened_out, raw->size());
  EXPECT_EQ(fx.catalog.SnapshotRaw(), raw);
  Result<QueryResult> again = executor.ExecuteFullScan(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->count, expected->count);
  EXPECT_EQ(again->stats.raw_clause_evals, 0u);
  EXPECT_EQ(again->stats.raw_records_screened_out, raw->size());

  // A query whose screen rules every record out: its promotion runs
  // the programs once and publishes nothing; the pass after runs none.
  Query nothing;
  nothing.clauses = {Clause::Of(SimplePredicate::Exact("level", "Nope"))};
  RewriteInput input;
  input.sideline = raw;
  input.select = SidelineSelect::kQueryScreen;
  input.query = &nothing;
  RewriteStats rewrite;
  ASSERT_TRUE(RewriteSegments(&fx.catalog, fx.registry, 0, input, nullptr,
                              RewriteLayout{}, &rewrite)
                  .ok());
  EXPECT_FALSE(rewrite.published);
  EXPECT_EQ(rewrite.records_unselected, raw->size());
  EXPECT_EQ(rewrite.raw_clause_evals, raw->size());
  Result<QueryResult> none = executor.ExecuteFullScan(nothing);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->count, 0u);
  EXPECT_EQ(none->stats.raw_clause_evals, 0u);
  EXPECT_EQ(none->stats.raw_records_screened_out, raw->size());
}

TEST(RawScreenTest, AppendedRecordsAreTheOnlyOnesScreenedAgain) {
  Rng rng(41);
  RawStore store;
  for (int i = 0; i < 500; ++i) store.Append(RandomRecord(&rng));
  Query query;
  query.clauses = {ClausePool()[6], ClausePool()[0]};
  const RawQueryScreen screen(query);
  uint64_t evals = 0;
  store.Screen(screen, &evals);
  EXPECT_EQ(evals, ShortCircuitEvals(store, screen));

  const size_t before = store.size();
  for (int i = 0; i < 130; ++i) store.Append(RandomRecord(&rng));
  evals = 0;
  const BitVector survivors = store.Screen(screen, &evals);
  EXPECT_EQ(evals, ShortCircuitEvals(store, screen, before));
  EXPECT_EQ(survivors, BruteForceSurvivors(store, screen));
  evals = 0;
  EXPECT_EQ(store.Screen(screen, &evals), survivors);
  EXPECT_EQ(evals, 0u);
}

TEST(RawScreenDifferentialTest, SurvivorsEqualTheRecordAtATimeScreen) {
  Rng rng(20231019);
  RawStore store;
  for (int i = 0; i < 400; ++i) store.Append(RandomRecord(&rng));
  for (int round = 0; round < 600; ++round) {
    if (round % 40 == 39) {
      const uint64_t more = 1 + rng.NextBounded(70);
      for (uint64_t i = 0; i < more; ++i) store.Append(RandomRecord(&rng));
    }
    const Query query = RandomConjunction(&rng);
    const RawQueryScreen screen(query);
    uint64_t evals = 0;
    const BitVector survivors = store.Screen(screen, &evals);
    ASSERT_EQ(survivors, BruteForceSurvivors(store, screen))
        << "round " << round << ": " << query.ToSql();
    ASSERT_LE(evals, ShortCircuitEvals(store, screen)) << query.ToSql();
    ASSERT_LE(store.screen_bytes(), store.screen_byte_cap());
  }
  EXPECT_GT(store.screen_bytes(), 0u);
}

TEST(RawScreenDifferentialTest, CountsEqualParsingEveryRecord) {
  Rng rng(7);
  const columnar::Schema schema = RandomSchema();
  TableCatalog screened(schema);
  TableCatalog reference(schema);
  const PredicateRegistry registry;
  const QueryExecutor executor(&screened, &registry, Screening(true));
  const QueryExecutor parse_all(&reference, &registry, Screening(false));
  const auto append = [&](size_t n) {
    std::vector<std::string> records;
    for (size_t i = 0; i < n; ++i) records.push_back(RandomRecord(&rng));
    AppendAll(&screened, records);
    AppendAll(&reference, records);
  };
  append(600);
  uint64_t promotions = 0;
  for (int round = 0; round < 240; ++round) {
    if (round % 30 == 29) append(1 + rng.NextBounded(90));
    const Query query = RandomConjunction(&rng);
    SCOPED_TRACE(testing::Message() << "round " << round << ": "
                                    << query.ToSql());
    if (round % 11 == 10) {
      // Replaces the store with a new one holding what stayed raw.
      JitStats jit;
      QueryPromotionStats promotion;
      ASSERT_TRUE(
          PromoteForQuery(&screened, query, registry, 0, &jit, &promotion)
              .ok());
      if (promotion.promoted > 0) ++promotions;
    }
    const std::shared_ptr<const RawStore> raw = screened.SnapshotRaw();
    const BitVector expected_survivors =
        BruteForceSurvivors(*raw, RawQueryScreen(query));
    Result<QueryResult> actual = executor.ExecuteFullScan(query);
    Result<QueryResult> expected = parse_all.ExecuteFullScan(query);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_EQ(actual->count, expected->count);
    ASSERT_EQ(actual->projected_hashes, expected->projected_hashes);
    ASSERT_EQ(actual->stats.raw_records_scanned +
                  actual->stats.raw_parse_errors,
              expected_survivors.CountOnes());
    ASSERT_EQ(actual->stats.raw_records_screened_out,
              raw->size() - expected_survivors.CountOnes());
  }
  EXPECT_GT(promotions, 0u);
}

// Three threads screen one store at once, each checking every answer
// against the record-at-a-time screen; verdicts merge while others read.
TEST(RawScreenConcurrencyTest, ThreeScreensOfOneStoreAgreeWithBruteForce) {
  Rng rng(99);
  RawStore store;
  for (int i = 0; i < 1500; ++i) store.Append(RandomRecord(&rng));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 3; ++t) {
    threads.emplace_back([&store, &mismatches, t] {
      Rng local(1000 + t);
      for (int i = 0; i < 120; ++i) {
        const RawQueryScreen screen(RandomConjunction(&local));
        uint64_t evals = 0;
        if (store.Screen(screen, &evals) !=
            BruteForceSurvivors(store, screen)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (const Clause& clause : ClausePool()) {
    Query single;
    single.clauses = {clause};
    const RawQueryScreen screen(single);
    uint64_t evals = 0;
    EXPECT_EQ(store.Screen(screen, &evals), BruteForceSurvivors(store, screen))
        << clause.ToSql();
  }
  EXPECT_LE(store.screen_bytes(), store.screen_byte_cap());
}

// Three query threads run full scans over one catalog whose sideline
// they all screen; every count equals the parse-everything answer.
TEST(RawScreenConcurrencyTest, ThreeQueryThreadsOnOneSidelineCountExactly) {
  Rng rng(5);
  const columnar::Schema schema = RandomSchema();
  TableCatalog catalog(schema);
  std::vector<std::string> records;
  for (int i = 0; i < 1200; ++i) records.push_back(RandomRecord(&rng));
  AppendAll(&catalog, records);
  const PredicateRegistry registry;
  std::vector<Query> queries;
  std::vector<QueryResult> expected;
  const QueryExecutor parse_all(&catalog, &registry, Screening(false));
  for (int i = 0; i < 40; ++i) {
    queries.push_back(RandomConjunction(&rng));
    Result<QueryResult> r = parse_all.ExecuteFullScan(queries.back());
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }
  const QueryExecutor executor(&catalog, &registry, Screening(true));
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < 3 * queries.size(); ++k) {
        const size_t q = (k * (t + 1) + t) % queries.size();
        Result<QueryResult> r = executor.ExecuteFullScan(queries[q]);
        if (!r.ok() || r->count != expected[q].count ||
            r->projected_hashes != expected[q].projected_hashes) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  for (const Query& q : queries) {
    Result<QueryResult> r = executor.ExecuteFullScan(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.raw_clause_evals, 0u) << q.ToSql();
  }
}

TEST(RawScreenTest, ManyDistinctClausesStayUnderTheCap) {
  Rng rng(3);
  RawStore store;
  for (int i = 0; i < 1000; ++i) store.Append(RandomRecord(&rng));
  std::vector<Query> queries;
  for (int k = 0; k < 300; ++k) {
    Query q;
    q.clauses = {Clause::Of(
        k % 2 == 0 ? SimplePredicate::Substring("tag", std::to_string(k))
                   : SimplePredicate::Exact("name", "v" + std::to_string(k)))};
    queries.push_back(std::move(q));
  }
  for (const Query& q : queries) {
    const RawQueryScreen screen(q);
    uint64_t evals = 0;
    ASSERT_EQ(store.Screen(screen, &evals), BruteForceSurvivors(store, screen))
        << q.ToSql();
    ASSERT_LE(store.screen_bytes(), store.screen_byte_cap());
  }
  EXPECT_GT(store.screen_bytes(), store.screen_byte_cap() / 2);
  // The first clauses are remembered; past the cap the last ones are
  // screened without remembering, and still answered exactly.
  uint64_t evals = 0;
  store.Screen(RawQueryScreen(queries.front()), &evals);
  EXPECT_EQ(evals, 0u);
  const RawQueryScreen last(queries.back());
  EXPECT_EQ(store.Screen(last, &evals), BruteForceSurvivors(store, last));
  EXPECT_EQ(evals, store.size());
}

// Screens `query` on the catalog's sideline through a full scan, so the
// store it snapshots remembers something.
void ScreenOnce(const TableCatalog& catalog, const PredicateRegistry& registry,
                const Query& query) {
  const QueryExecutor executor(&catalog, &registry, Screening(true));
  Result<QueryResult> r = executor.ExecuteFullScan(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->stats.raw_clause_evals, 0u);
  ASSERT_GT(catalog.SnapshotRaw()->screen_bytes(), 0u);
}

TEST(RawScreenTest, RebuiltSidelineRemembersNothing) {
  const std::vector<Clause> tier15 = workload::MicroTierPredicates(0.15);
  Query query;
  query.clauses = {tier15[0]};
  const auto expect_fresh = [&](const TableCatalog& catalog,
                                const std::shared_ptr<const RawStore>& old) {
    const std::shared_ptr<const RawStore> raw = catalog.SnapshotRaw();
    EXPECT_NE(raw, old);
    ASSERT_FALSE(raw->empty());
    EXPECT_EQ(raw->screen_bytes(), 0u);
    uint64_t evals = 0;
    raw->Screen(RawQueryScreen(query), &evals);
    EXPECT_EQ(evals, raw->size());
  };

  {
    SCOPED_TRACE("promotion");
    WinLogSideline fx;
    ScreenOnce(fx.catalog, fx.registry, query);
    const std::shared_ptr<const RawStore> old = fx.catalog.SnapshotRaw();
    JitStats jit;
    QueryPromotionStats promotion;
    ASSERT_TRUE(PromoteForQuery(&fx.catalog, query, fx.registry, 0, &jit,
                                &promotion)
                    .ok());
    ASSERT_GT(promotion.promoted, 0u);
    expect_fresh(fx.catalog, old);
  }
  {
    SCOPED_TRACE("backfill");
    WinLogSideline fx;
    ScreenOnce(fx.catalog, fx.registry, query);
    const std::shared_ptr<const RawStore> old = fx.catalog.SnapshotRaw();
    PredicateRegistry next;
    ASSERT_TRUE(next.Register(tier15[1], 0.15, 1.0).ok());
    BackfillStats backfill;
    ASSERT_TRUE(BackfillEpochAnnotations(&fx.catalog, next, 1, &backfill).ok());
    ASSERT_GT(backfill.raw_promoted, 0u);
    expect_fresh(fx.catalog, old);
  }
  {
    SCOPED_TRACE("compaction");
    WinLogSideline fx;
    // Records that fail to parse stay raw through compaction.
    AppendAll(&fx.catalog, {"{\"info\":\"torn", "not json"});
    ScreenOnce(fx.catalog, fx.registry, query);
    const std::shared_ptr<const RawStore> old = fx.catalog.SnapshotRaw();
    JitStats jit;
    ASSERT_TRUE(PromoteRawToColumnar(&fx.catalog, fx.registry, 0, &jit).ok());
    EXPECT_EQ(fx.catalog.raw_rows(), 2u);
    expect_fresh(fx.catalog, old);
  }
  {
    SCOPED_TRACE("move");
    RawStore store;
    for (int i = 0; i < 10; ++i) {
      store.Append("{\"info\":\"" + std::string(100, 'x') + "\"}");
    }
    uint64_t evals = 0;
    store.Screen(RawQueryScreen(query), &evals);
    ASSERT_GT(store.screen_bytes(), 0u);
    const RawStore moved(std::move(store));
    EXPECT_EQ(moved.size(), 10u);
    EXPECT_EQ(moved.screen_bytes(), 0u);
    EXPECT_EQ(store.screen_bytes(), 0u);  // NOLINT(bugprone-use-after-move)
  }
}

TEST(RawScreenTest, RecoveredSidelineRemembersNothing) {
  workload::GeneratorOptions gen;
  gen.num_records = 400;
  gen.seed = 7;
  const workload::Dataset ds =
      workload::GenerateDataset(workload::DatasetKind::kYcsb, gen);
  workload::WorkloadSpec spec;
  spec.num_queries = 12;
  spec.seed = 5;
  const Workload wl = workload::GenerateWorkload(
      workload::TemplatesFor(workload::DatasetKind::kYcsb).AllCandidates(),
      spec);
  CiaoConfig config;
  config.budget_us = 80.0;
  config.chunk_size = 64;
  config.sample_size = 200;
  config.storage.enabled = true;
  config.storage.dir = (std::filesystem::temp_directory_path() /
                        ("ciao_raw_screen_" + std::to_string(::getpid())))
                           .string();
  std::filesystem::remove_all(config.storage.dir);
  const PredicateRegistry none;
  Query query;
  query.clauses = {wl.queries.front().clauses.front()};
  {
    auto system = CiaoSystem::Bootstrap(ds.schema, wl, ds.records, config,
                                        CostModel::Default());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ASSERT_TRUE((*system)->IngestRecords(ds.records).ok());
    ASSERT_GT((*system)->catalog().raw_rows(), 0u);
    ScreenOnce((*system)->catalog(), none, query);
    // Destruction checkpoints the sideline.
  }
  auto reopened = CiaoSystem::Bootstrap(ds.schema, wl, ds.records, config,
                                        CostModel::Default());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const std::shared_ptr<const RawStore> raw =
      (*reopened)->catalog().SnapshotRaw();
  ASSERT_FALSE(raw->empty());
  EXPECT_EQ(raw->screen_bytes(), 0u);
  reopened->reset();
  std::filesystem::remove_all(config.storage.dir);
}

}  // namespace
}  // namespace ciao
