// Learned bits (engine/learned_bits.h): what scans keep about the clauses
// no client bit covers, and the answers later scans read from it. The
// differential suite pins every answer to a brute-force row-wise count
// and projection checksum over random schemas, random clause streams and
// concurrent rewrites; TSan and ASan+UBSan run it in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "columnar/file_writer.h"
#include "columnar/record_batch.h"
#include "common/random.h"
#include "engine/executor.h"
#include "engine/learned_bits.h"
#include "engine/projection.h"
#include "engine/typed_eval.h"
#include "predicate/registry.h"
#include "storage/catalog.h"
#include "storage/rewrite.h"
#include "storage/segment_store.h"

namespace ciao {
namespace {

using columnar::ColumnType;
using columnar::ColumnVector;

// ---------- Random tables ----------

/// How a column's values are drawn. Every kind has NULLs; doubles have
/// NaN; kVocab strings repeat (dictionary-encoded in groups of 16 rows or
/// more), kUnique strings rarely do (plain-encoded).
enum class Gen { kInt, kDouble, kBool, kVocab, kUnique };

const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> words = {
      "alpha", "beta", "gamma", "alphabet", "", "betamax"};
  return words;
}

ColumnType TypeOf(Gen gen) {
  switch (gen) {
    case Gen::kInt:
      return ColumnType::kInt64;
    case Gen::kDouble:
      return ColumnType::kDouble;
    case Gen::kBool:
      return ColumnType::kBool;
    case Gen::kVocab:
    case Gen::kUnique:
      return ColumnType::kString;
  }
  return ColumnType::kString;
}

/// Draws one value and appends it to both columns.
void AppendCell(Gen gen, Rng* rng, ColumnVector* a, ColumnVector* b) {
  if (rng->NextBool(0.15)) {
    a->AppendNull();
    b->AppendNull();
    return;
  }
  switch (gen) {
    case Gen::kInt: {
      const int64_t v = rng->NextInt(-4, 4);
      a->AppendInt64(v);
      b->AppendInt64(v);
      return;
    }
    case Gen::kDouble: {
      static const double kValues[] = {-2.5, -1.0, 0.0, 0.5, 1.0, 3.0};
      const double v = rng->NextBool(0.1)
                           ? std::numeric_limits<double>::quiet_NaN()
                           : kValues[rng->NextBounded(6)];
      a->AppendDouble(v);
      b->AppendDouble(v);
      return;
    }
    case Gen::kBool: {
      const bool v = rng->NextBool();
      a->AppendBool(v);
      b->AppendBool(v);
      return;
    }
    case Gen::kVocab: {
      const std::string& v = Vocabulary()[rng->NextBounded(Vocabulary().size())];
      a->AppendString(v);
      b->AppendString(v);
      return;
    }
    case Gen::kUnique: {
      std::string v;
      const size_t len = 3 + rng->NextBounded(6);
      for (size_t i = 0; i < len; ++i) {
        v.push_back("abcd"[rng->NextBounded(4)]);
      }
      a->AppendString(v);
      b->AppendString(v);
      return;
    }
  }
}

/// A generated table: every row in one batch (the brute-force
/// reference) and the same rows as the row groups they are published in.
struct Table {
  std::vector<Gen> gens;
  columnar::Schema schema;
  columnar::RecordBatch all;
  std::vector<columnar::RecordBatch> groups;

  std::string Name(size_t column) const { return "c" + std::to_string(column); }

  /// The first column drawn by `gen`.
  std::string NameOf(Gen gen) const {
    for (size_t c = 0; c < gens.size(); ++c) {
      if (gens[c] == gen) return Name(c);
    }
    return "missing";
  }
};

/// One column of each kind plus up to three more, in random order, and
/// row groups of `sizes` rows each (cycled over `num_groups` groups).
Table MakeTable(uint64_t seed, size_t num_groups,
                const std::vector<size_t>& sizes) {
  Rng rng(seed);
  Table t;
  t.gens = {Gen::kInt, Gen::kDouble, Gen::kBool, Gen::kVocab, Gen::kUnique};
  const size_t extra = rng.NextBounded(4);
  for (size_t i = 0; i < extra; ++i) {
    t.gens.push_back(static_cast<Gen>(rng.NextBounded(5)));
  }
  for (size_t i = t.gens.size(); i > 1; --i) {
    std::swap(t.gens[i - 1], t.gens[rng.NextBounded(i)]);
  }
  std::vector<columnar::Field> fields;
  for (size_t c = 0; c < t.gens.size(); ++c) {
    fields.push_back({t.Name(c), TypeOf(t.gens[c])});
  }
  t.schema = columnar::Schema(std::move(fields));
  t.all = columnar::RecordBatch(t.schema);
  for (size_t g = 0; g < num_groups; ++g) {
    columnar::RecordBatch batch(t.schema);
    const size_t rows = sizes[g % sizes.size()];
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < t.gens.size(); ++c) {
        AppendCell(t.gens[c], &rng, batch.mutable_column(c),
                   t.all.mutable_column(c));
      }
    }
    t.groups.push_back(std::move(batch));
  }
  return t;
}

/// Row-group sizes around the 64-bit word boundaries.
const std::vector<size_t>& WordBoundarySizes() {
  static const std::vector<size_t> sizes = {1,   63,  64,  65, 127,
                                            128, 129, 200, 17};
  return sizes;
}

/// Candidate clauses over every column: dense and late terms, NULL
/// presence, cross-type and mismatched operands, and disjunctions.
std::vector<Clause> CandidateClauses(const Table& t) {
  std::vector<Clause> out;
  for (size_t c = 0; c < t.gens.size(); ++c) {
    const std::string f = t.Name(c);
    out.push_back(Clause::Of(SimplePredicate::Presence(f)));
    switch (t.gens[c]) {
      case Gen::kInt:
        out.push_back(Clause::Of(SimplePredicate::KeyValue(f, json::Value(2))));
        out.push_back(
            Clause::Of(SimplePredicate::KeyValue(f, json::Value(-1.0))));
        out.push_back(
            Clause::Of(SimplePredicate::RangeLess(f, json::Value(0))));
        out.push_back(
            Clause::Of(SimplePredicate::RangeLess(f, json::Value(2.5))));
        out.push_back(
            Clause::Of(SimplePredicate::KeyValue(f, json::Value("2"))));
        break;
      case Gen::kDouble:
        out.push_back(
            Clause::Of(SimplePredicate::KeyValue(f, json::Value(0.5))));
        out.push_back(Clause::Of(SimplePredicate::KeyValue(f, json::Value(1))));
        out.push_back(
            Clause::Of(SimplePredicate::RangeLess(f, json::Value(0.0))));
        break;
      case Gen::kBool:
        out.push_back(
            Clause::Of(SimplePredicate::KeyValue(f, json::Value(true))));
        out.push_back(
            Clause::Of(SimplePredicate::KeyValue(f, json::Value(false))));
        break;
      case Gen::kVocab:
        out.push_back(Clause::Of(SimplePredicate::Exact(f, "alpha")));
        out.push_back(
            Clause::Of(SimplePredicate::KeyValue(f, json::Value("beta"))));
        out.push_back(Clause::Of(SimplePredicate::Substring(f, "alph")));
        out.push_back(Clause::Of(SimplePredicate::Substring(f, "max")));
        break;
      case Gen::kUnique:
        out.push_back(Clause::Of(SimplePredicate::Substring(f, "ab")));
        out.push_back(Clause::Of(SimplePredicate::Substring(f, "dd")));
        out.push_back(Clause::Of(SimplePredicate::Substring(f, "abc")));
        out.push_back(Clause::Of(SimplePredicate::Exact(f, "abcd")));
        break;
    }
  }
  // Disjunctions: a late term beside a dense one, and two late terms.
  const std::string unique = t.NameOf(Gen::kUnique);
  out.push_back(Clause::Or({SimplePredicate::Substring(unique, "ca"),
                            SimplePredicate::KeyValue(t.NameOf(Gen::kInt),
                                                      json::Value(1))}));
  out.push_back(Clause::Or({SimplePredicate::Substring(unique, "bd"),
                            SimplePredicate::Substring(t.NameOf(Gen::kVocab),
                                                       "mm")}));
  return out;
}

/// `size` clauses drawn from the candidates, so a stream repeats them.
std::vector<Clause> ClausePool(const Table& t, Rng* rng, size_t size) {
  std::vector<Clause> candidates = CandidateClauses(t);
  std::vector<Clause> pool;
  for (size_t i = 0; i < size; ++i) {
    pool.push_back(candidates[rng->NextBounded(candidates.size())]);
  }
  return pool;
}

Query RandomQuery(const Table& t, const std::vector<Clause>& pool, Rng* rng) {
  Query q;
  const size_t n = 1 + rng->NextBounded(3);
  for (size_t i = 0; i < n; ++i) {
    q.clauses.push_back(pool[rng->NextBounded(pool.size())]);
  }
  const size_t projected = rng->NextBounded(3);
  for (size_t i = 0; i < projected; ++i) {
    q.projected.push_back(rng->NextBool(0.1)
                              ? std::string("missing")
                              : t.Name(rng->NextBounded(t.gens.size())));
  }
  return q;
}

struct Answer {
  uint64_t count = 0;
  std::vector<uint64_t> hashes;
  bool operator==(const Answer& other) const {
    return count == other.count && hashes == other.hashes;
  }
};

/// The brute-force answer: the row-wise oracle on every row, no executor.
Answer BruteForce(const Query& q, const Table& t) {
  auto compiled = CompiledTypedQuery::Compile(q, t.schema);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  const ProjectionSpec spec(q, t.schema);
  Answer answer;
  spec.EnsureSize(&answer.hashes);
  for (size_t r = 0; r < t.all.num_rows(); ++r) {
    if (!compiled->Matches(t.all, r)) continue;
    ++answer.count;
    spec.AccumulateRow(t.all, r, &answer.hashes);
  }
  return answer;
}

Answer AnswerOf(const QueryResult& result) {
  return Answer{result.count, result.projected_hashes};
}

/// The exact typed bits of `clause` over `batch`.
BitVector ExactBits(const Clause& clause, const columnar::Schema& schema,
                    const columnar::RecordBatch& batch) {
  Query q;
  q.clauses = {clause};
  auto compiled = CompiledTypedQuery::Compile(q, schema);
  EXPECT_TRUE(compiled.ok());
  BitVector bits(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    if (compiled->Matches(batch, r)) bits.Set(r, true);
  }
  return bits;
}

/// Publishes `t.groups` into `catalog`, `groups_per_segment` per segment,
/// annotated for every `registry` predicate. `exact` publishes the typed
/// bits as exact; otherwise each bit is a superset (random false
/// positives), like client-prefilter bits.
void Publish(const Table& t, const PredicateRegistry& registry,
             size_t groups_per_segment, bool exact, uint64_t seed,
             TableCatalog* catalog) {
  Rng rng(seed);
  for (size_t first = 0; first < t.groups.size();
       first += groups_per_segment) {
    columnar::TableWriter writer(t.schema);
    uint64_t rows = 0;
    const size_t end = std::min(t.groups.size(), first + groups_per_segment);
    for (size_t g = first; g < end; ++g) {
      const columnar::RecordBatch& batch = t.groups[g];
      BitVectorSet bits(registry.size(), batch.num_rows());
      for (size_t p = 0; p < registry.size(); ++p) {
        BitVector exact_bits = ExactBits(
            registry.Get(static_cast<uint32_t>(p)).clause, t.schema, batch);
        for (size_t r = 0; r < batch.num_rows(); ++r) {
          if (exact_bits.Get(r) || (!exact && rng.NextBool(0.1))) {
            bits.mutable_vector(p)->Set(r, true);
          }
        }
      }
      ASSERT_TRUE(writer.AppendRowGroup(batch, bits).ok());
      rows += batch.num_rows();
    }
    ColumnarSegment segment;
    segment.file_bytes = std::move(writer).Finish();
    segment.num_rows = rows;
    segment.annotations_exact = exact;
    ASSERT_TRUE(catalog->AddSegment(std::move(segment)).ok());
  }
}

/// Learned bytes over every published segment.
uint64_t LearnedBytes(const TableCatalog& catalog) {
  uint64_t bytes = 0;
  for (const SegmentRef& segment : catalog.SnapshotSegments()) {
    bytes += segment->learned->bytes();
  }
  return bytes;
}

// ---------- Repeated queries ----------

TEST(LearnedBitsTest, RepeatedFullScanAnswersFromLearnedBits) {
  const Table t = MakeTable(11, 12, WordBoundarySizes());
  PredicateRegistry no_pushdown;
  TableCatalog catalog(t.schema);
  Publish(t, no_pushdown, 3, /*exact=*/false, 1, &catalog);
  QueryExecutor executor(&catalog, &no_pushdown);

  Query q;  // a dense clause, then a late clause on the rows it leaves
  q.clauses = {Clause::Of(SimplePredicate::RangeLess(t.NameOf(Gen::kInt),
                                                     json::Value(2))),
               Clause::Of(SimplePredicate::Substring(t.NameOf(Gen::kUnique),
                                                     "a"))};
  q.projected = {t.NameOf(Gen::kBool)};
  const Answer expected = BruteForce(q, t);
  ASSERT_GT(expected.count, 0u);

  auto first = executor.ExecuteFullScan(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(AnswerOf(*first), expected);
  EXPECT_EQ(first->stats.rows_evaluated, t.all.num_rows());
  EXPECT_GT(LearnedBytes(catalog), 0u);

  auto repeat = executor.ExecuteFullScan(q);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(AnswerOf(*repeat), expected);
  const ScanStats& s = repeat->stats;
  EXPECT_EQ(s.rows_evaluated, 0u);
  EXPECT_EQ(s.groups_scanned, 0u);
  EXPECT_GT(s.groups_counted_learned, 0u);
  EXPECT_EQ(s.groups_counted_learned, s.groups_counted_exact);
  EXPECT_EQ(s.groups_skipped_learned, s.groups_skipped);
  EXPECT_EQ(s.groups_counted_learned + s.groups_skipped_learned +
                s.groups_skipped_zonemap,
            s.groups_considered);
  // Counting decodes the one projected column and no predicate column.
  EXPECT_EQ(s.columns_decoded, s.groups_counted_exact);
}

TEST(LearnedBitsTest, RepeatedSkippingScanLearnsItsUnpushedClause) {
  const Table t = MakeTable(12, 10, WordBoundarySizes());
  PredicateRegistry registry;
  const Clause pushed =
      Clause::Of(SimplePredicate::Exact(t.NameOf(Gen::kVocab), "alpha"));
  ASSERT_TRUE(registry.Register(pushed, 0.2, 1.0).ok());
  TableCatalog catalog(t.schema);
  // Exact bits, as backfill and re-layout publish them: the pushed clause
  // is decided by client bits, the unpushed one only by learned bits.
  Publish(t, registry, 2, /*exact=*/true, 2, &catalog);
  QueryExecutor executor(&catalog, &registry);

  Query q;
  q.clauses = {pushed,
               Clause::Of(SimplePredicate::Substring(t.NameOf(Gen::kUnique),
                                                     "b"))};
  q.projected = {t.NameOf(Gen::kDouble)};
  const Answer expected = BruteForce(q, t);
  ASSERT_GT(expected.count, 0u);

  auto first = executor.Execute(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->plan, PlanKind::kSkippingScan);
  EXPECT_EQ(AnswerOf(*first), expected);
  EXPECT_GT(first->stats.rows_evaluated, 0u);

  auto repeat = executor.Execute(q);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(AnswerOf(*repeat), expected);
  EXPECT_EQ(repeat->stats.rows_evaluated, 0u);
  EXPECT_EQ(repeat->stats.groups_scanned, 0u);
  EXPECT_GT(repeat->stats.groups_counted_learned, 0u);
  EXPECT_EQ(repeat->stats.columns_decoded,
            repeat->stats.groups_counted_exact);
}

TEST(LearnedBitsTest, RepeatedQueryOnDiskMapsNothing) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ciao_learned_bits").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    SegmentStore::Options options;
    options.dir = dir;
    options.memory_budget_bytes = 1;  // every pin maps afresh
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const Table t = MakeTable(13, 8, {128, 65});
    PredicateRegistry no_pushdown;
    TableCatalog catalog(t.schema);
    catalog.AttachStore(store->get());
    Publish(t, no_pushdown, 1, /*exact=*/false, 3, &catalog);
    ASSERT_NE(catalog.segment(0).disk, nullptr);
    QueryExecutor executor(&catalog, &no_pushdown);

    Query q;  // no projection: learned bits answer without any bytes
    q.clauses = {Clause::Of(SimplePredicate::Substring(t.NameOf(Gen::kUnique),
                                                       "dad"))};
    const Answer expected = BruteForce(q, t);
    auto first = executor.ExecuteFullScan(q);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(AnswerOf(*first), expected);
    EXPECT_EQ(first->stats.segments_read, 8u);

    const uint64_t mappings = (*store)->cache()->mappings_created();
    auto repeat = executor.ExecuteFullScan(q);
    ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
    EXPECT_EQ(AnswerOf(*repeat), expected);
    EXPECT_EQ(repeat->stats.segments_read, 0u);
    EXPECT_EQ(repeat->stats.segments_mapped, 0u);
    EXPECT_EQ((*store)->cache()->mappings_created(), mappings);
  }
  std::filesystem::remove_all(dir);
}

// ---------- Lifetime, cap and the covered-clause rule ----------

TEST(LearnedBitsTest, RewrittenSegmentStartsWithNothingLearned) {
  const Table t = MakeTable(14, 6, {100, 64});
  PredicateRegistry no_pushdown;
  TableCatalog catalog(t.schema);
  Publish(t, no_pushdown, 2, /*exact=*/false, 4, &catalog);
  QueryExecutor executor(&catalog, &no_pushdown);
  Query q;
  q.clauses = {Clause::Of(SimplePredicate::Substring(t.NameOf(Gen::kUnique),
                                                     "cb"))};
  const Answer expected = BruteForce(q, t);
  ASSERT_TRUE(executor.ExecuteFullScan(q).ok());

  // A copy with the same bytes keeps what was learned.
  const SegmentRef kept = catalog.SnapshotSegments()[0];
  const uint64_t learned = kept->learned->bytes();
  ASSERT_GT(learned, 0u);
  std::vector<ColumnarSegment> copy;
  copy.push_back(*kept);
  ASSERT_TRUE(catalog.ReplaceSegments({kept}, std::move(copy)));
  EXPECT_EQ(catalog.SnapshotSegments()[0]->learned->bytes(), learned);
  auto again = executor.ExecuteFullScan(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(AnswerOf(*again), expected);
  EXPECT_EQ(again->stats.rows_evaluated, 0u);

  // A rewrite publishes new bytes with a new index: nothing learned.
  const SegmentRef victim = catalog.SnapshotSegments()[0];
  RewriteStats stats;
  const RowOrder reverse = [](const std::vector<AnnotatedGroup>& groups) {
    std::vector<RowRef> refs;
    for (size_t g = groups.size(); g-- > 0;) {
      for (size_t r = groups[g].batch.num_rows(); r-- > 0;) {
        refs.push_back(
            RowRef{static_cast<uint32_t>(g), static_cast<uint32_t>(r), 0});
      }
    }
    return refs;
  };
  ASSERT_TRUE(RewriteSegments(&catalog, no_pushdown, 0,
                              RewriteInput{{victim}, nullptr}, reverse,
                              RewriteLayout{}, &stats)
                  .ok());
  ASSERT_TRUE(stats.published);
  // A one-for-one replacement takes the old segment's slot.
  const SegmentRef rewritten = catalog.SnapshotSegments()[0];
  ASSERT_NE(rewritten.get(), victim.get());
  EXPECT_EQ(rewritten->learned->bytes(), 0u);
  auto after = executor.ExecuteFullScan(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(AnswerOf(*after), expected);
  EXPECT_EQ(after->stats.rows_evaluated, rewritten->num_rows);
  EXPECT_GT(rewritten->learned->bytes(), 0u);
}

TEST(LearnedBitsTest, ManyDistinctClausesStayUnderTheCap) {
  const Table t = MakeTable(15, 2, {1000});
  PredicateRegistry no_pushdown;
  TableCatalog catalog(t.schema);
  Publish(t, no_pushdown, 1, /*exact=*/false, 5, &catalog);
  QueryExecutor executor(&catalog, &no_pushdown);

  // Every 1- to 3-letter needle over the unique column's alphabet, alone
  // and OR-ed with a dense term: mostly mixed groups, whose entries need
  // bit words.
  const std::string unique = t.NameOf(Gen::kUnique);
  std::vector<std::string> needles;
  for (const char a : std::string("abcd")) {
    needles.push_back(std::string(1, a));
    for (const char b : std::string("abcd")) {
      needles.push_back(std::string{a, b});
      for (const char c : std::string("abcd")) {
        needles.push_back(std::string{a, b, c});
      }
    }
  }
  std::vector<Query> queries;
  for (const std::string& needle : needles) {
    Query q;
    q.clauses = {Clause::Of(SimplePredicate::Substring(unique, needle))};
    queries.push_back(q);
    q.clauses = {Clause::Or({SimplePredicate::Substring(unique, needle),
                             SimplePredicate::KeyValue(t.NameOf(Gen::kInt),
                                                       json::Value(3))})};
    queries.push_back(q);
  }
  for (const Query& q : queries) {
    auto result = executor.ExecuteFullScan(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(AnswerOf(*result), BruteForce(q, t)) << q.ToSql();
    for (const SegmentRef& segment : catalog.SnapshotSegments()) {
      ASSERT_LE(segment->learned->bytes(), segment->learned->byte_cap());
    }
  }
  // The stream filled the cap: a mixed group's entry is 2 x 16 words.
  for (const SegmentRef& segment : catalog.SnapshotSegments()) {
    EXPECT_GT(segment->learned->bytes() + 2 * 16 * sizeof(uint64_t),
              segment->learned->byte_cap());
  }
  // Past the cap, what was learned still answers.
  auto repeat = executor.ExecuteFullScan(queries.front());
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(AnswerOf(*repeat), BruteForce(queries.front(), t));
  EXPECT_EQ(repeat->stats.rows_evaluated, 0u);
}

TEST(LearnedBitsTest, CoveredClauseIsNeverLearned) {
  const Table t = MakeTable(16, 6, WordBoundarySizes());
  PredicateRegistry registry;
  const Clause pushed =
      Clause::Of(SimplePredicate::Substring(t.NameOf(Gen::kVocab), "et"));
  ASSERT_TRUE(registry.Register(pushed, 0.3, 1.0).ok());
  TableCatalog catalog(t.schema);
  // Client-prefilter bits: a superset, so every candidate is re-verified.
  Publish(t, registry, 2, /*exact=*/false, 6, &catalog);
  QueryExecutor executor(&catalog, &registry);

  Query q;
  q.clauses = {pushed};
  const Answer expected = BruteForce(q, t);
  for (int i = 0; i < 3; ++i) {
    auto result = executor.Execute(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan, PlanKind::kSkippingScan);
    EXPECT_EQ(AnswerOf(*result), expected);
    EXPECT_GT(result->stats.rows_evaluated, 0u);
    EXPECT_EQ(LearnedBytes(catalog), 0u);
  }

  // Beside an unpushed clause, only the unpushed one is learned.
  Query mixed = q;
  mixed.clauses.push_back(
      Clause::Of(SimplePredicate::Presence(t.NameOf(Gen::kInt))));
  auto learned = executor.Execute(mixed);
  ASSERT_TRUE(learned.ok());
  EXPECT_EQ(AnswerOf(*learned), BruteForce(mixed, t));
  EXPECT_GT(LearnedBytes(catalog), 0u);
  auto covered = executor.Execute(q);
  ASSERT_TRUE(covered.ok());
  EXPECT_GT(covered->stats.rows_evaluated, 0u);

  // A full scan uses no client bits: there the clause is learned.
  ASSERT_TRUE(executor.ExecuteFullScan(q).ok());
  auto full = executor.ExecuteFullScan(q);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(AnswerOf(*full), expected);
  EXPECT_EQ(full->stats.rows_evaluated, 0u);
}

// ---------- Differential: random streams against brute force ----------

/// Runs `q` through one of the plan shapes: planned, forced full scan,
/// or a skipping scan against a stale epoch (bits never trusted).
Result<QueryResult> RunShape(const QueryExecutor& executor,
                             const PredicateRegistry& registry,
                             const Query& q, uint64_t shape) {
  if (shape == 1) return executor.ExecuteFullScan(q);
  const std::vector<uint32_t> ids = registry.PushedDownIds(q);
  if (shape == 2 && !ids.empty()) {
    return executor.ExecuteWithSkipping(q, ids, /*epoch_id=*/1);
  }
  return executor.Execute(q);
}

struct DifferentialFixture {
  Table t;
  PredicateRegistry registry;
  TableCatalog catalog;
  std::vector<Query> queries;
  std::vector<Answer> expected;

  explicit DifferentialFixture(uint64_t seed)
      : t(MakeTable(seed, 14, WordBoundarySizes())), catalog(t.schema) {
    Rng rng(seed * 7 + 1);
    const std::vector<Clause> pool = ClausePool(t, &rng, 10);
    // Two client-supported clauses of the pool are pushed down.
    size_t pushed = 0;
    for (const Clause& c : pool) {
      if (pushed < 2 && c.SupportedOnClient() &&
          registry.Find(c) == nullptr &&
          registry.Register(c, 0.3, 1.0).ok()) {
        ++pushed;
      }
    }
    Publish(t, registry, 1 + seed % 3, /*exact=*/false, seed, &catalog);
    for (int i = 0; i < 40; ++i) {
      queries.push_back(RandomQuery(t, pool, &rng));
      expected.push_back(BruteForce(queries.back(), t));
    }
  }
};

TEST(LearnedBitsDifferentialTest, RandomStreamsMatchBruteForce) {
  for (const uint64_t seed : {21, 22, 23, 24}) {
    DifferentialFixture fx(seed);
    ExecutorOptions rowwise_opt;
    rowwise_opt.query_eval = QueryEvalMode::kRowwise;
    const QueryExecutor vectorized(&fx.catalog, &fx.registry);
    const QueryExecutor rowwise(&fx.catalog, &fx.registry, rowwise_opt);
    Rng rng(seed);
    uint64_t from_learned = 0;
    for (int i = 0; i < 200; ++i) {
      const size_t qi = rng.NextBounded(fx.queries.size());
      const QueryExecutor& executor = rng.NextBool(0.2) ? rowwise : vectorized;
      auto result = RunShape(executor, fx.registry, fx.queries[qi],
                             rng.NextBounded(3));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(AnswerOf(*result), fx.expected[qi])
          << "seed " << seed << ": " << fx.queries[qi].ToSql();
      from_learned += result->stats.groups_counted_learned +
                      result->stats.groups_skipped_learned;
    }
    EXPECT_GT(from_learned, 0u) << "seed " << seed;
  }
}

TEST(LearnedBitsDifferentialTest, ConcurrentQueriesAndRewritesStayExact) {
  DifferentialFixture fx(31);
  const QueryExecutor executor(&fx.catalog, &fx.registry);
  constexpr int kThreads = 3;
  constexpr int kQueriesPerThread = 60;
  constexpr int kRewrites = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::latch start(kThreads + 1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      start.arrive_and_wait();
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t qi = rng.NextBounded(fx.queries.size());
        auto result = RunShape(executor, fx.registry, fx.queries[qi],
                               rng.NextBounded(3));
        if (!result.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (!(AnswerOf(*result) == fx.expected[qi])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Rewrites move rows between segments under the queries: shuffled
  // order, word-boundary group sizes. Each output segment starts with
  // nothing learned and exact client bits.
  threads.emplace_back([&] {
    Rng rng(7);
    start.arrive_and_wait();
    for (int i = 0;
         i < kRewrites && (i == 0 || !done.load(std::memory_order_relaxed));
         ++i) {
      const std::vector<SegmentRef> segments = fx.catalog.SnapshotSegments();
      RewriteInput input;
      input.segments = {segments[rng.NextBounded(segments.size())]};
      const RowOrder shuffle = [&](const std::vector<AnnotatedGroup>& groups) {
        std::vector<RowRef> refs;
        for (size_t g = 0; g < groups.size(); ++g) {
          for (size_t r = 0; r < groups[g].batch.num_rows(); ++r) {
            refs.push_back(RowRef{static_cast<uint32_t>(g),
                                  static_cast<uint32_t>(r),
                                  static_cast<uint32_t>(rng.NextBounded(2))});
          }
        }
        for (size_t k = refs.size(); k > 1; --k) {
          std::swap(refs[k - 1], refs[rng.NextBounded(k)]);
        }
        return refs;
      };
      RewriteLayout layout;
      layout.rows_per_group = WordBoundarySizes()[rng.NextBounded(
          WordBoundarySizes().size())];
      layout.groups_per_file = 2;
      RewriteStats stats;
      if (!RewriteSegments(&fx.catalog, fx.registry, 0, input, shuffle,
                           layout, &stats)
               .ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) threads[t].join();
  done.store(true, std::memory_order_relaxed);
  threads.back().join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fx.catalog.loaded_rows(), fx.t.all.num_rows());

  // And afterwards every query still answers exactly, twice over.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t qi = 0; qi < fx.queries.size(); ++qi) {
      auto result = executor.Execute(fx.queries[qi]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(AnswerOf(*result), fx.expected[qi])
          << fx.queries[qi].ToSql();
    }
  }
}

}  // namespace
}  // namespace ciao
