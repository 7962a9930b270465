// A record's answer must not depend on where it lives. The full scan
// evaluates raw sideline records with the same typed evaluator as loaded
// row groups (tape parse into a batch, then the typed kernels), so a
// query counts and projects the same before and after the sideline is
// promoted into columnar form — including values the converter coerces
// to NULL, and across the sideline's parse-batch boundaries.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "client/client_filter.h"
#include "engine/executor.h"
#include "engine/projection.h"
#include "json/parser.h"
#include "predicate/semantic_eval.h"
#include "storage/jit_loader.h"
#include "storage/partial_loader.h"
#include "workload/dataset.h"
#include "workload/templates.h"

namespace ciao {
namespace {

struct Answer {
  uint64_t count = 0;
  std::vector<uint64_t> projected_hashes;
  ScanStats stats;
};

std::vector<Answer> FullScanAll(const QueryExecutor& executor,
                                const std::vector<Query>& queries) {
  std::vector<Answer> out;
  for (const Query& q : queries) {
    Result<QueryResult> result = executor.ExecuteFullScan(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return out;
    out.push_back({result->count, result->projected_hashes, result->stats});
  }
  return out;
}

ExecutorOptions Options(QueryEvalMode mode, bool raw_prefilter) {
  ExecutorOptions options;
  options.query_eval = mode;
  options.raw_prefilter = raw_prefilter;
  return options;
}

// {"n":1.5} in an Int64 column and {"s":3} in a String column load as
// NULL, and a NULL matches nothing but is still hashed as NULL. The raw
// sideline must give the loaded answer: n < 2 counts 1, not 2, and
// s IS PRESENT counts 2, not 3.
TEST(SidelineScanTest, CoercedValuesAnswerTheSameRawAndPromoted) {
  const columnar::Schema schema({{"n", columnar::ColumnType::kInt64},
                                 {"s", columnar::ColumnType::kString}});
  const std::vector<std::string> records = {
      R"({"n":1.5,"s":"a"})", R"({"n":7,"s":3})", R"({"n":1,"s":"b"})"};
  Query n_lt_2;
  n_lt_2.clauses = {Clause::Of(SimplePredicate::RangeLess("n", 2))};
  Query s_present;
  s_present.clauses = {Clause::Of(SimplePredicate::Presence("s"))};
  Query n_lt_2_projecting_n = n_lt_2;
  n_lt_2_projecting_n.projected = {"n"};
  const std::vector<Query> queries = {n_lt_2, s_present, n_lt_2_projecting_n};

  for (const QueryEvalMode mode :
       {QueryEvalMode::kVectorized, QueryEvalMode::kRowwise}) {
    for (const bool raw_prefilter : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "rowwise=" << (mode == QueryEvalMode::kRowwise)
                   << " raw_prefilter=" << raw_prefilter);
      TableCatalog catalog(schema);
      catalog.AppendRawBatch(
          std::vector<std::string_view>(records.begin(), records.end()));
      const PredicateRegistry registry;
      const QueryExecutor executor(&catalog, &registry,
                                   Options(mode, raw_prefilter));

      const std::vector<Answer> raw = FullScanAll(executor, queries);
      ASSERT_EQ(raw.size(), queries.size());
      EXPECT_EQ(raw[0].count, 1u);
      EXPECT_EQ(raw[1].count, 2u);
      EXPECT_EQ(raw[2].count, 1u);
      EXPECT_EQ(raw[0].stats.raw_records_scanned, 3u);
      EXPECT_EQ(raw[0].stats.rows_decoded, 0u);
      EXPECT_EQ(raw[0].stats.rows_evaluated, 0u);
      EXPECT_EQ(raw[2].projected_hashes,
                std::vector<uint64_t>{HashProjectedInt64(1)});

      JitStats jit;
      ASSERT_TRUE(PromoteRawToColumnar(&catalog, registry,
                                       /*annotation_epoch=*/0, &jit)
                      .ok());
      ASSERT_EQ(catalog.raw_rows(), 0u);
      const std::vector<Answer> promoted = FullScanAll(executor, queries);
      ASSERT_EQ(promoted.size(), queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(raw[q].count, promoted[q].count) << queries[q].ToSql();
        EXPECT_EQ(raw[q].projected_hashes, promoted[q].projected_hashes)
            << queries[q].ToSql();
      }
    }
  }
}

// 10,000 winlog records with one selective pushed predicate leave more
// than two parse batches (4096 rows each) in the sideline. Queries with
// no pushed clause scan all of it; their counts must equal brute force
// and the counts after compaction, with and without the raw screen.
TEST(SidelineScanTest, SidelineLargerThanOneParseBatchCountsExactly) {
  const workload::Dataset ds = workload::GenerateWinLog({10000, 5});
  PredicateRegistry registry;
  ASSERT_TRUE(
      registry.Register(workload::MicroTierPredicates(0.15)[0], 0.15, 1.0)
          .ok());
  TableCatalog catalog(ds.schema);
  const PartialLoader loader(ds.schema, registry.size());
  const ClientFilter filter(&registry);
  LoadStats load;
  PrefilterStats prefilter;
  for (size_t start = 0; start < ds.records.size(); start += 1000) {
    json::JsonChunk chunk;
    for (size_t i = start; i < start + 1000; ++i) {
      chunk.AppendSerialized(ds.records[i]);
    }
    ASSERT_TRUE(loader
                    .IngestChunk(chunk, filter.Evaluate(chunk, &prefilter),
                                 /*partial_loading_enabled=*/true, &catalog,
                                 &load)
                    .ok());
  }
  const uint64_t sideline = catalog.raw_rows();
  ASSERT_GT(sideline, 2u * 4096u);

  const std::vector<Clause> tier35 = workload::MicroTierPredicates(0.35);
  Query info_level;
  info_level.clauses = {Clause::Of(SimplePredicate::Exact("level", "Info"))};
  Query token_and_source;
  token_and_source.clauses = {tier35[0],
                              Clause::Of(SimplePredicate::Presence("source"))};
  token_and_source.projected = {"time"};
  Query token_or_error;
  token_or_error.clauses = {Clause::Or(
      {tier35[1].terms[0], SimplePredicate::Exact("level", "Error")})};
  token_or_error.projected = {"level", "info"};
  const std::vector<Query> queries = {info_level, token_and_source,
                                      token_or_error};
  for (const Query& q : queries) {
    ASSERT_EQ(PlanQuery(q, registry).kind, PlanKind::kFullScan);
  }

  std::vector<uint64_t> brute_force(queries.size(), 0);
  for (const std::string& record : ds.records) {
    Result<json::Value> parsed = json::Parse(record);
    ASSERT_TRUE(parsed.ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      if (EvaluateQuery(queries[q], *parsed)) ++brute_force[q];
    }
  }

  const std::vector<ExecutorOptions> variants = {
      Options(QueryEvalMode::kVectorized, false),
      Options(QueryEvalMode::kVectorized, true),
      Options(QueryEvalMode::kRowwise, false),
      Options(QueryEvalMode::kRowwise, true)};
  std::vector<std::vector<Answer>> raw;
  for (const ExecutorOptions& options : variants) {
    raw.push_back(
        FullScanAll(QueryExecutor(&catalog, &registry, options), queries));
    ASSERT_EQ(raw.back().size(), queries.size());
  }
  for (size_t v = 0; v < variants.size(); ++v) {
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(testing::Message() << "variant " << v << " query "
                                      << queries[q].ToSql());
      const ScanStats& stats = raw[v][q].stats;
      EXPECT_EQ(raw[v][q].count, brute_force[q]);
      EXPECT_EQ(raw[v][q].projected_hashes, raw[0][q].projected_hashes);
      EXPECT_EQ(stats.raw_parse_errors, 0u);
      EXPECT_EQ(stats.raw_records_scanned + stats.raw_records_screened_out,
                sideline);
      if (!variants[v].raw_prefilter) {
        EXPECT_EQ(stats.raw_records_screened_out, 0u);
      }
    }
  }
  // The screen passes most "Info" records, so the screened scan crosses
  // the batch boundary too.
  EXPECT_GT(raw[1][0].stats.raw_records_scanned, 4096u);
  EXPECT_GT(raw[1][1].stats.raw_records_screened_out, 0u);

  JitStats jit;
  ASSERT_TRUE(PromoteRawToColumnar(&catalog, registry,
                                   /*annotation_epoch=*/0, &jit)
                  .ok());
  ASSERT_EQ(catalog.raw_rows(), 0u);
  for (size_t v = 0; v < variants.size(); ++v) {
    const std::vector<Answer> compacted = FullScanAll(
        QueryExecutor(&catalog, &registry, variants[v]), queries);
    ASSERT_EQ(compacted.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(compacted[q].count, raw[v][q].count) << queries[q].ToSql();
      EXPECT_EQ(compacted[q].projected_hashes, raw[v][q].projected_hashes)
          << queries[q].ToSql();
    }
  }
}

}  // namespace
}  // namespace ciao
