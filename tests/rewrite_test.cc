// The segment-rewrite primitive (storage/rewrite.h) through its callers:
// backfill's hot/cold runs and exact bits (in RAM and disk-resident),
// the all-or-nothing publish with a sideline swap, query promotion that
// moves nothing, and backfill's in-place segment placement.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "client/client_filter.h"
#include "columnar/file_reader.h"
#include "columnar/json_converter.h"
#include "engine/typed_eval.h"
#include "json/chunk.h"
#include "storage/backfill.h"
#include "storage/catalog.h"
#include "storage/jit_loader.h"
#include "storage/partial_loader.h"
#include "storage/segment_store.h"
#include "workload/dataset.h"
#include "workload/templates.h"

namespace ciao {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Loads every record (no sideline), one segment per `chunk_rows` records,
/// with epoch-0 client bits for `registry`.
void IngestAll(const std::vector<std::string>& records, size_t chunk_rows,
               const PredicateRegistry& registry, TableCatalog* catalog) {
  PartialLoader loader(catalog->schema(), registry.size(), /*epoch=*/0);
  ClientFilter filter(&registry);
  LoadStats load_stats;
  PrefilterStats prefilter_stats;
  for (size_t start = 0; start < records.size(); start += chunk_rows) {
    const size_t end = std::min(start + chunk_rows, records.size());
    json::JsonChunk chunk;
    for (size_t i = start; i < end; ++i) chunk.AppendSerialized(records[i]);
    ASSERT_TRUE(loader
                    .IngestChunk(chunk, filter.Evaluate(chunk, &prefilter_stats),
                                 /*partial_loading_enabled=*/false, catalog,
                                 &load_stats)
                    .ok());
  }
}

/// Per-group shape of the exact segments a backfill wrote.
struct GroupCensus {
  size_t exact_segments = 0;
  size_t hot_groups = 0;
  size_t cold_groups = 0;
  size_t largest_segment_groups = 0;
};

/// Checks every `annotations_exact` segment (pinned, so disk-resident ones
/// are mapped): each row group is all-hot or all-cold, and every bit
/// equals the row-wise typed oracle.
void CheckExactSegments(const TableCatalog& catalog,
                        const PredicateRegistry& registry,
                        GroupCensus* census) {
  std::vector<CompiledTypedQuery> oracles;
  for (const RegisteredPredicate& p : registry.predicates()) {
    Query probe;
    probe.clauses = {p.clause};
    auto compiled = CompiledTypedQuery::Compile(probe, catalog.schema());
    ASSERT_TRUE(compiled.ok());
    oracles.push_back(std::move(compiled).value());
  }
  for (const SegmentRef& segment : catalog.SnapshotSegments()) {
    if (!segment->annotations_exact) continue;
    ++census->exact_segments;
    auto pin = PinSegment(*segment);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    auto reader = columnar::TableReader::OpenBorrowed(pin->bytes);
    ASSERT_TRUE(reader.ok());
    census->largest_segment_groups =
        std::max(census->largest_segment_groups, reader->num_row_groups());
    for (size_t g = 0; g < reader->num_row_groups(); ++g) {
      auto meta = reader->ReadMeta(g);
      ASSERT_TRUE(meta.ok());
      auto batch = reader->ReadBatch(g);
      ASSERT_TRUE(batch.ok());
      ASSERT_EQ(meta->annotations.num_predicates(), oracles.size());
      EXPECT_LE(meta->num_rows, 4096u);
      const size_t hot = meta->annotations.UnionAll().CountOnes();
      EXPECT_TRUE(hot == 0 || hot == meta->num_rows)
          << "row group " << g << " mixes " << hot << " rows with bits and "
          << meta->num_rows - hot << " all-zero rows";
      ++(hot == 0 ? census->cold_groups : census->hot_groups);
      for (size_t p = 0; p < oracles.size(); ++p) {
        for (size_t r = 0; r < meta->num_rows; ++r) {
          ASSERT_EQ(meta->annotations.vector(p).Get(r),
                    oracles[p].Matches(*batch, r))
              << "predicate " << p << " group " << g << " row " << r;
        }
      }
    }
  }
}

/// Ingests 12k records into two 6000-row segments under pool[0], adds a
/// raw sideline, and backfills epoch 1 pushing pool[1..2]. With ~15%
/// selectivity each, every segment splits into a hot run and a cold run
/// longer than one 4096-row group.
void BackfillAndCheck(SegmentStore* store) {
  const workload::Dataset ds = workload::GenerateWinLog({12300, 5});
  const auto pool = workload::MicroTierPredicates(0.15);
  PredicateRegistry old_registry;
  ASSERT_TRUE(old_registry.Register(pool[0], 0.15, 0.5).ok());
  PredicateRegistry new_registry;
  ASSERT_TRUE(new_registry.Register(pool[1], 0.15, 0.5).ok());
  ASSERT_TRUE(new_registry.Register(pool[2], 0.15, 0.5).ok());

  TableCatalog catalog(ds.schema);
  if (store != nullptr) catalog.AttachStore(store);
  const std::vector<std::string> loaded(ds.records.begin(),
                                        ds.records.begin() + 12000);
  IngestAll(loaded, 6000, old_registry, &catalog);
  std::vector<std::string_view> sideline(ds.records.begin() + 12000,
                                         ds.records.end());
  catalog.AppendRawBatch(sideline);

  BackfillStats stats;
  ASSERT_TRUE(
      BackfillEpochAnnotations(&catalog, new_registry, /*epoch=*/1, &stats)
          .ok());
  EXPECT_EQ(stats.segments_rebuilt, 2u);
  EXPECT_EQ(stats.rows_reannotated, 12000u);
  EXPECT_GT(stats.raw_promoted, 0u);

  GroupCensus census;
  CheckExactSegments(catalog, new_registry, &census);
  EXPECT_EQ(census.exact_segments, 2u);
  EXPECT_GT(census.hot_groups, 0u);
  EXPECT_GT(census.cold_groups, census.exact_segments)
      << "the cold runs should overflow one 4096-row group";
  EXPECT_GE(census.largest_segment_groups, 3u);
  if (store != nullptr) {
    for (const SegmentRef& segment : catalog.SnapshotSegments()) {
      EXPECT_NE(segment->disk, nullptr) << "rewrites spill on publish";
    }
  }
}

// Hot/cold runs and exact bits, in RAM.
TEST(RewriteTest, BackfillRunsAreHotOrColdAndBitsMatchOracleInRam) {
  BackfillAndCheck(nullptr);
}

// The same, disk-resident: inputs are mapped through a budget far smaller
// than the catalog, and the outputs spill.
TEST(RewriteTest, BackfillBitsMatchOracleDiskResident) {
  SegmentStore::Options options;
  options.dir = TempDir("ciao_rewrite_backfill_disk");
  options.memory_budget_bytes = 64 << 10;
  options.wal_sync = WalSyncMode::kNever;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  BackfillAndCheck(store->get());
  EXPECT_GT((*store)->cache()->mappings_created(), 0u);
}

columnar::Schema SmallSchema() {
  return columnar::Schema{{{"a", columnar::ColumnType::kInt64},
                           {"s", columnar::ColumnType::kString}}};
}

ColumnarSegment SmallSegment(uint64_t rows) {
  columnar::BatchBuilder builder(SmallSchema());
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(builder
                    .AppendSerialized("{\"a\":" + std::to_string(i) +
                                      ",\"s\":\"v" + std::to_string(i % 3) +
                                      "\"}")
                    .ok());
  }
  columnar::TableWriter writer(SmallSchema());
  EXPECT_TRUE(
      writer.AppendRowGroup(builder.Finish(), BitVectorSet(0, rows)).ok());
  ColumnarSegment segment;
  segment.file_bytes = std::move(writer).Finish();
  segment.num_rows = rows;
  return segment;
}

// A stale input aborts the whole publish, sideline swap included.
TEST(RewriteTest, StaleInputWithSidelineSwapPublishesNothing) {
  TableCatalog catalog(SmallSchema());
  catalog.AddSegment(SmallSegment(4));
  catalog.AppendRawBatch({R"({"a":7,"s":"v1"})", R"({"a":8,"s":"v2"})"});
  const SegmentRef stale = catalog.SnapshotSegments().front();

  std::vector<ColumnarSegment> fresh;
  fresh.push_back(SmallSegment(4));
  ASSERT_TRUE(catalog.ReplaceSegments({stale}, std::move(fresh)));

  const std::vector<SegmentRef> segments_before = catalog.SnapshotSegments();
  const std::shared_ptr<const RawStore> raw_before = catalog.SnapshotRaw();
  const uint64_t loaded_before = catalog.loaded_rows();

  std::vector<ColumnarSegment> replacement;
  replacement.push_back(SmallSegment(6));
  RawStore sideline;
  sideline.Append(R"({"a":9,"s":"v0"})");
  EXPECT_FALSE(catalog.ReplaceSegments({stale}, std::move(replacement),
                                       std::move(sideline)));

  EXPECT_EQ(catalog.SnapshotSegments(), segments_before);
  EXPECT_EQ(catalog.SnapshotRaw(), raw_before);
  EXPECT_EQ(catalog.raw_rows(), 2u);
  EXPECT_EQ(catalog.loaded_rows(), loaded_before);
}

// A screen that rules out every record moves nothing, so nothing is
// published: not even a copy of the sideline.
TEST(RewriteTest, FullyScreenedQueryPromotionPublishesNothing) {
  TableCatalog catalog(SmallSchema());
  catalog.AddSegment(SmallSegment(3));
  catalog.AppendRawBatch({R"({"a":1,"s":"v1"})", R"({"a":2,"s":"v2"})",
                          R"({"a":3,"s":"v0"})"});
  const std::vector<SegmentRef> segments_before = catalog.SnapshotSegments();
  const std::shared_ptr<const RawStore> raw_before = catalog.SnapshotRaw();

  PredicateRegistry registry;
  ASSERT_TRUE(
      registry.Register(Clause::Of(SimplePredicate::Exact("s", "v1")), 0.3, 1.0)
          .ok());
  Query query;
  query.clauses = {Clause::Of(SimplePredicate::Exact("s", "no-such-value"))};
  JitStats jit;
  QueryPromotionStats promotion;
  ASSERT_TRUE(PromoteForQuery(&catalog, query, registry, /*epoch=*/0, &jit,
                              &promotion)
                  .ok());
  EXPECT_EQ(promotion.screened_out, 3u);
  EXPECT_EQ(promotion.promoted, 0u);
  EXPECT_EQ(catalog.SnapshotRaw(), raw_before);
  EXPECT_EQ(catalog.SnapshotSegments(), segments_before);
}

// Backfill's one-for-one rewrite takes the old segment's slot, so the
// snapshot order (which decides sampling and pin order) is unchanged.
TEST(RewriteTest, BackfilledSegmentKeepsItsSnapshotPosition) {
  const workload::Dataset ds = workload::GenerateWinLog({1000, 8});
  const auto pool = workload::MicroTierPredicates(0.15);
  PredicateRegistry old_registry;
  ASSERT_TRUE(old_registry.Register(pool[0], 0.15, 0.5).ok());
  PredicateRegistry new_registry;
  ASSERT_TRUE(new_registry.Register(pool[1], 0.15, 0.5).ok());

  // Eleven segments of distinct sizes: more than the eight shards, so
  // shard-major snapshot order differs from publish order.
  TableCatalog catalog(ds.schema);
  size_t start = 0;
  for (size_t rows = 40; start + rows <= ds.records.size() && rows <= 140;
       rows += 10) {
    const std::vector<std::string> chunk(ds.records.begin() + start,
                                         ds.records.begin() + start + rows);
    IngestAll(chunk, rows, old_registry, &catalog);
    start += rows;
  }
  const std::vector<SegmentRef> before = catalog.SnapshotSegments();
  ASSERT_EQ(before.size(), 11u);

  BackfillStats stats;
  ASSERT_TRUE(
      BackfillEpochAnnotations(&catalog, new_registry, /*epoch=*/1, &stats)
          .ok());
  const std::vector<SegmentRef> after = catalog.SnapshotSegments();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NE(after[i], before[i]) << "segment " << i << " not rewritten";
    EXPECT_EQ(after[i]->annotation_epoch, 1u);
    EXPECT_EQ(after[i]->num_rows, before[i]->num_rows)
        << "segment " << i << " moved";
  }
}

}  // namespace
}  // namespace ciao
