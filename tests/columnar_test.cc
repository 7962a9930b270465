#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "columnar/encoding.h"
#include "columnar/file_reader.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "columnar/wire.h"
#include "common/crc32.h"
#include "common/random.h"
#include "json/parser.h"
#include "workload/dataset.h"

namespace ciao::columnar {
namespace {

// ---------- Schema ----------

TEST(SchemaTest, FieldIndexAndSerialization) {
  Schema schema({{"a", ColumnType::kInt64},
                 {"b.c", ColumnType::kString},
                 {"d", ColumnType::kBool}});
  EXPECT_EQ(schema.FieldIndex("a"), 0);
  EXPECT_EQ(schema.FieldIndex("b.c"), 1);
  EXPECT_EQ(schema.FieldIndex("missing"), -1);

  std::string buf;
  schema.SerializeTo(&buf);
  size_t offset = 0;
  auto decoded = Schema::Deserialize(buf, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(offset, buf.size());
  EXPECT_TRUE(*decoded == schema);
}

TEST(SchemaTest, DeserializeRejectsBadType) {
  Schema schema({{"a", ColumnType::kInt64}});
  std::string buf;
  schema.SerializeTo(&buf);
  buf.back() = '\x7F';  // invalid type byte
  size_t offset = 0;
  EXPECT_TRUE(Schema::Deserialize(buf, &offset).status().IsCorruption());
}

// No CRC covers the schema: a field count the bytes cannot hold must be
// Corruption before anything is reserved for it.
TEST(SchemaTest, DeserializeRejectsCountBeyondBytes) {
  Schema schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kString}});
  std::string buf;
  schema.SerializeTo(&buf);
  buf[3] = static_cast<char>(buf[3] ^ 0x80);  // bit 31 of the field count
  size_t offset = 0;
  EXPECT_TRUE(Schema::Deserialize(buf, &offset).status().IsCorruption());
}

TEST(SchemaTest, TypeNames) {
  EXPECT_EQ(ColumnTypeName(ColumnType::kInt64), "int64");
  EXPECT_EQ(ColumnTypeName(ColumnType::kString), "string");
}

// ---------- ColumnVector ----------

TEST(ColumnVectorTest, TypedAppendAndGet) {
  ColumnVector ints(ColumnType::kInt64);
  ints.AppendInt64(5);
  ints.AppendNull();
  ints.AppendInt64(-7);
  EXPECT_EQ(ints.size(), 3u);
  EXPECT_TRUE(ints.IsValid(0));
  EXPECT_FALSE(ints.IsValid(1));
  EXPECT_EQ(ints.GetInt64(2), -7);
  EXPECT_EQ(ints.NullCount(), 1u);
  EXPECT_EQ(ints.GetNumeric(0), 5.0);

  ColumnVector strs(ColumnType::kString);
  strs.AppendString("hello");
  strs.AppendNull();
  strs.AppendString("");
  strs.AppendString("world");
  EXPECT_EQ(strs.GetString(0), "hello");
  EXPECT_EQ(strs.GetString(2), "");
  EXPECT_EQ(strs.GetString(3), "world");

  ColumnVector bools(ColumnType::kBool);
  bools.AppendBool(true);
  bools.AppendBool(false);
  EXPECT_TRUE(bools.GetBool(0));
  EXPECT_FALSE(bools.GetBool(1));
}

TEST(ColumnVectorTest, Equals) {
  ColumnVector a(ColumnType::kString), b(ColumnType::kString);
  a.AppendString("x");
  a.AppendNull();
  b.AppendString("x");
  b.AppendNull();
  EXPECT_TRUE(a.Equals(b));
  b.AppendString("y");
  EXPECT_FALSE(a.Equals(b));
}

// ---------- Encoding round trips ----------

ColumnVector RandomColumn(ColumnType type, size_t rows, Rng* rng,
                          size_t distinct_strings = 1000) {
  ColumnVector col(type);
  for (size_t i = 0; i < rows; ++i) {
    if (rng->NextBool(0.12)) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case ColumnType::kInt64:
        col.AppendInt64(rng->NextInt(-1000000, 1000000));
        break;
      case ColumnType::kDouble:
        col.AppendDouble(rng->NextDouble() * 1000 - 500);
        break;
      case ColumnType::kBool:
        col.AppendBool(rng->NextBool());
        break;
      case ColumnType::kString:
        col.AppendString("v" +
                         std::to_string(rng->NextBounded(distinct_strings)));
        break;
    }
  }
  return col;
}

class EncodingRoundTripTest : public ::testing::TestWithParam<ColumnType> {};

TEST_P(EncodingRoundTripTest, RoundTripsWithNulls) {
  Rng rng(77);
  for (const size_t rows : {0u, 1u, 17u, 64u, 257u}) {
    const ColumnVector col = RandomColumn(GetParam(), rows, &rng);
    std::string buf;
    EncodeColumn(col, &buf);
    size_t offset = 0;
    auto decoded = DecodeColumn(buf, &offset);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(offset, buf.size());
    EXPECT_TRUE(decoded->Equals(col)) << "rows=" << rows;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, EncodingRoundTripTest,
                         ::testing::Values(ColumnType::kInt64,
                                           ColumnType::kDouble,
                                           ColumnType::kBool,
                                           ColumnType::kString),
                         [](const auto& info) {
                           return std::string(ColumnTypeName(info.param));
                         });

TEST(EncodingTest, DictionaryKicksInForLowCardinality) {
  Rng rng(79);
  // 256 rows over 4 distinct values -> dictionary.
  const ColumnVector low = RandomColumn(ColumnType::kString, 256, &rng, 4);
  std::string low_buf;
  EncodeColumn(low, &low_buf);
  // encoding byte is at offset 1.
  EXPECT_EQ(static_cast<Encoding>(low_buf[1]), Encoding::kDictionary);

  // 64 rows of unique values -> plain.
  ColumnVector high(ColumnType::kString);
  for (int i = 0; i < 64; ++i) high.AppendString("unique_" + std::to_string(i));
  std::string high_buf;
  EncodeColumn(high, &high_buf);
  EXPECT_EQ(static_cast<Encoding>(high_buf[1]), Encoding::kPlain);

  // Dictionary round-trips.
  size_t offset = 0;
  auto decoded = DecodeColumn(low_buf, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Equals(low));
}

TEST(EncodingTest, DictionaryHeuristic) {
  EXPECT_TRUE(ShouldDictionaryEncode(4, 256));
  EXPECT_FALSE(ShouldDictionaryEncode(200, 256));  // distinct*2 > rows
  EXPECT_FALSE(ShouldDictionaryEncode(2, 8));      // too few rows
  EXPECT_FALSE(ShouldDictionaryEncode(70000, 200000));  // too wide
}

TEST(EncodingTest, DecodeRejectsCorruptHeaders) {
  ColumnVector col(ColumnType::kInt64);
  col.AppendInt64(1);
  std::string buf;
  EncodeColumn(col, &buf);
  {
    std::string bad = buf;
    bad[0] = '\x7F';  // type byte
    size_t offset = 0;
    EXPECT_TRUE(DecodeColumn(bad, &offset).status().IsCorruption());
  }
  {
    std::string bad = buf;
    bad[1] = '\x7F';  // encoding byte
    size_t offset = 0;
    EXPECT_TRUE(DecodeColumn(bad, &offset).status().IsCorruption());
  }
  {
    size_t offset = 0;
    EXPECT_TRUE(DecodeColumn(buf.substr(0, buf.size() / 2), &offset)
                    .status()
                    .IsCorruption());
  }
}

// ---------- RecordBatch ----------

RecordBatch MakeBatch(size_t rows, Rng* rng) {
  Schema schema({{"id", ColumnType::kInt64},
                 {"score", ColumnType::kDouble},
                 {"flag", ColumnType::kBool},
                 {"tag", ColumnType::kString}});
  RecordBatch batch(schema);
  for (size_t i = 0; i < rows; ++i) {
    batch.mutable_column(0)->AppendInt64(static_cast<int64_t>(i));
    batch.mutable_column(1)->AppendDouble(rng->NextDouble());
    batch.mutable_column(2)->AppendBool(rng->NextBool());
    if (rng->NextBool(0.1)) {
      batch.mutable_column(3)->AppendNull();
    } else {
      batch.mutable_column(3)->AppendString("t" +
                                            std::to_string(rng->NextBounded(5)));
    }
  }
  return batch;
}

TEST(RecordBatchTest, ValidateAndLookup) {
  Rng rng(83);
  RecordBatch batch = MakeBatch(10, &rng);
  EXPECT_TRUE(batch.Validate().ok());
  EXPECT_EQ(batch.num_rows(), 10u);
  EXPECT_EQ(batch.num_columns(), 4u);
  EXPECT_NE(batch.ColumnByName("score"), nullptr);
  EXPECT_EQ(batch.ColumnByName("nope"), nullptr);

  // Ragged batch fails validation.
  batch.mutable_column(0)->AppendInt64(99);
  EXPECT_FALSE(batch.Validate().ok());
}

// ---------- File writer / reader ----------

TEST(TableFileTest, WriteReadRoundTripWithAnnotations) {
  Rng rng(85);
  RecordBatch batch1 = MakeBatch(100, &rng);
  RecordBatch batch2 = MakeBatch(37, &rng);

  BitVectorSet ann1(2, 100), ann2(2, 37);
  for (size_t r = 0; r < 100; ++r) {
    ann1.mutable_vector(0)->Set(r, rng.NextBool());
    ann1.mutable_vector(1)->Set(r, rng.NextBool());
  }
  for (size_t r = 0; r < 37; ++r) ann2.mutable_vector(0)->Set(r, true);

  TableWriter writer(batch1.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch1, ann1).ok());
  ASSERT_TRUE(writer.AppendRowGroup(batch2, ann2).ok());
  EXPECT_EQ(writer.num_row_groups(), 2u);
  const std::string file = std::move(writer).Finish();

  auto reader = TableReader::Open(file);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->num_row_groups(), 2u);
  EXPECT_TRUE(reader->schema() == batch1.schema());
  EXPECT_EQ(*reader->TotalRows(), 137u);

  auto meta1 = reader->ReadMeta(0);
  ASSERT_TRUE(meta1.ok());
  EXPECT_EQ(meta1->num_rows, 100u);
  EXPECT_TRUE(meta1->annotations == ann1);
  ASSERT_EQ(meta1->zone_maps.size(), 4u);
  EXPECT_TRUE(meta1->zone_maps[0].has_minmax);  // id column
  EXPECT_EQ(meta1->zone_maps[0].min, 0.0);
  EXPECT_EQ(meta1->zone_maps[0].max, 99.0);
  EXPECT_FALSE(meta1->zone_maps[3].has_minmax);  // string column

  auto decoded1 = reader->ReadBatch(0);
  ASSERT_TRUE(decoded1.ok());
  EXPECT_TRUE(decoded1->Equals(batch1));
  auto decoded2 = reader->ReadBatch(1);
  ASSERT_TRUE(decoded2.ok());
  EXPECT_TRUE(decoded2->Equals(batch2));

  EXPECT_TRUE(reader->ReadMeta(2).status().IsOutOfRange());
  EXPECT_TRUE(reader->ReadBatch(2).status().IsOutOfRange());
}

TEST(TableFileTest, FinishedFileCarriesNoSpareCapacity) {
  // An in-RAM segment keeps the finished string for its whole life, so
  // the slack that doubling appends leave behind must not come with it.
  Rng rng(86);
  TableWriter writer(MakeBatch(1, &rng).schema());
  for (const size_t rows : {300, 1000, 77}) {
    const RecordBatch batch = MakeBatch(rows, &rng);
    ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  }
  const std::string file = std::move(writer).Finish();
  EXPECT_EQ(file.capacity(), file.size());
  auto reader = TableReader::Open(file);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(*reader->TotalRows(), 1377u);
}

TEST(TableFileTest, EmptyAnnotationsAllowed) {
  Rng rng(87);
  RecordBatch batch = MakeBatch(10, &rng);
  TableWriter writer(batch.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  auto reader = TableReader::Open(std::move(writer).Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadMeta(0)->annotations.num_predicates(), 0u);
}

TEST(TableFileTest, AnnotationLengthMismatchRejected) {
  Rng rng(89);
  RecordBatch batch = MakeBatch(10, &rng);
  TableWriter writer(batch.schema());
  EXPECT_FALSE(writer.AppendRowGroup(batch, BitVectorSet(1, 9)).ok());
}

TEST(TableFileTest, SchemaMismatchRejected) {
  Rng rng(91);
  RecordBatch batch = MakeBatch(5, &rng);
  TableWriter writer(Schema({{"other", ColumnType::kInt64}}));
  EXPECT_FALSE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
}

TEST(TableFileTest, OpenRejectsCorruptFraming) {
  Rng rng(93);
  RecordBatch batch = MakeBatch(20, &rng);
  TableWriter writer(batch.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  const std::string file = std::move(writer).Finish();

  EXPECT_TRUE(TableReader::Open("not a file").status().IsCorruption());
  EXPECT_TRUE(TableReader::Open("").status().IsCorruption());

  {
    std::string bad = file;
    bad[0] = 'X';  // magic
    EXPECT_TRUE(TableReader::Open(bad).status().IsCorruption());
  }
  {
    std::string bad = file.substr(0, file.size() - 4);  // truncated footer
    EXPECT_TRUE(TableReader::Open(bad).status().IsCorruption());
  }
}

uint32_t GetU32At(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 4);
  return v;
}

void PutU32At(std::string* bytes, size_t offset, uint32_t v) {
  std::memcpy(bytes->data() + offset, &v, 4);
}

TEST(TableFileTest, FlippedSchemaCountBitIsCorruption) {
  Rng rng(94);
  RecordBatch batch = MakeBatch(20, &rng);
  TableWriter writer(batch.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  std::string file = std::move(writer).Finish();
  file[8 + 3] = static_cast<char>(file[8 + 3] ^ 0x80);  // after "CIAOCOL1"
  EXPECT_TRUE(TableReader::OpenBorrowed(file, ChecksumMode::kTrust)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(TableReader::Open(file).status().IsCorruption());
}

// The group CRC is re-stamped, so the count itself is the only fault.
TEST(TableFileTest, ZoneMapCountBeyondHeaderIsCorruption) {
  Rng rng(97);
  RecordBatch batch = MakeBatch(20, &rng);
  TableWriter writer(batch.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  std::string file = std::move(writer).Finish();

  // Group 0 after magic and schema: "GRUP" | u32 header_len | header |
  // u32 body_len | body | u32 crc. The header opens with u64 rows and an
  // empty annotation set's u32 count; the zone-map count follows.
  std::string schema_bytes;
  batch.schema().SerializeTo(&schema_bytes);
  const size_t group = 8 + schema_bytes.size();
  const uint32_t header_len = GetU32At(file, group + 4);
  const size_t header = group + 8;
  const uint32_t body_len = GetU32At(file, header + header_len);
  const size_t body = header + header_len + 4;
  ASSERT_EQ(GetU32At(file, header + 12), 4u);  // one zone map per column
  PutU32At(&file, header + 12, 0xFFFFFFFFu);
  uint32_t crc = Crc32(file.data() + header, header_len, 0);
  crc = Crc32(file.data() + body, body_len, crc);
  PutU32At(&file, body + body_len, crc);

  auto reader = TableReader::OpenBorrowed(file);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->VerifyAllGroups().ok());
  EXPECT_TRUE(reader->ReadMeta(0).status().IsCorruption());
  EXPECT_TRUE(SegmentIndex::Build(file).status().IsCorruption());
}

TEST(TableFileTest, CrcDetectsBodyCorruption) {
  Rng rng(95);
  RecordBatch batch = MakeBatch(50, &rng);
  TableWriter writer(batch.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  std::string file = std::move(writer).Finish();

  // Flip one byte somewhere in the middle (column payload area).
  file[file.size() / 2] ^= 0x01;
  auto reader = TableReader::Open(file);
  // Framing may still parse; reading the batch must fail.
  if (reader.ok()) {
    EXPECT_FALSE(reader->ReadBatch(0).ok());
  }
}

TEST(TableFileTest, ProjectedReadDecodesOnlyWantedColumns) {
  Rng rng(96);
  RecordBatch batch = MakeBatch(40, &rng);
  TableWriter writer(batch.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  const std::string file = std::move(writer).Finish();
  auto reader = TableReader::Open(file);
  ASSERT_TRUE(reader.ok());

  std::vector<bool> wanted = {false, true, false, true};  // score, tag
  auto projected = reader->ReadBatchProjected(0, wanted);
  ASSERT_TRUE(projected.ok());
  // Wanted columns round-trip; unwanted stay empty placeholders.
  EXPECT_TRUE(projected->column(1).Equals(batch.column(1)));
  EXPECT_TRUE(projected->column(3).Equals(batch.column(3)));
  EXPECT_EQ(projected->column(0).size(), 0u);
  EXPECT_EQ(projected->column(2).size(), 0u);

  // Mask size must match the schema.
  EXPECT_TRUE(reader->ReadBatchProjected(0, {true, true})
                  .status()
                  .IsInvalidArgument());
}

TEST(TableFileTest, OpenBorrowedDoesNotCopy) {
  Rng rng(97);
  RecordBatch batch = MakeBatch(30, &rng);
  TableWriter writer(batch.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  const std::string file = std::move(writer).Finish();

  auto reader = TableReader::OpenBorrowed(file);
  ASSERT_TRUE(reader.ok());
  auto decoded = reader->ReadBatch(0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Equals(batch));
}

// ---------- Column-grouped (v4) bodies ----------

TEST(ColumnGroupLayoutTest, FactoriesAndValidate) {
  const ColumnGroupLayout single = ColumnGroupLayout::SingleGroup(4);
  ASSERT_EQ(single.groups.size(), 1u);
  EXPECT_EQ(single.groups[0], (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_TRUE(single.Validate(4).ok());

  const ColumnGroupLayout per_col = ColumnGroupLayout::PerColumn(3);
  ASSERT_EQ(per_col.groups.size(), 3u);
  EXPECT_TRUE(per_col.Validate(3).ok());
  EXPECT_TRUE(ColumnGroupLayout{}.empty());

  ColumnGroupLayout bad;
  bad.groups = {{0, 1}, {1, 2}};  // duplicate column 1
  EXPECT_TRUE(bad.Validate(3).IsInvalidArgument());
  bad.groups = {{0}, {2}};  // column 1 uncovered
  EXPECT_TRUE(bad.Validate(3).IsInvalidArgument());
  bad.groups = {{0, 1, 2, 3}};  // index out of range
  EXPECT_TRUE(bad.Validate(3).IsInvalidArgument());
  bad.groups = {{0, 1, 2}, {}};  // empty group
  EXPECT_TRUE(bad.Validate(3).IsInvalidArgument());
}

TEST(TableFileTest, GroupedBodyRoundTripsAllLayouts) {
  Rng rng(101);
  RecordBatch batch1 = MakeBatch(60, &rng);
  RecordBatch batch2 = MakeBatch(23, &rng);
  BitVectorSet ann(1, 60);
  for (size_t r = 0; r < 60; ++r) ann.mutable_vector(0)->Set(r, rng.NextBool());

  ColumnGroupLayout mined;
  mined.groups = {{0, 2}, {1, 3}};
  for (const ColumnGroupLayout& layout :
       {ColumnGroupLayout::SingleGroup(4), ColumnGroupLayout::PerColumn(4),
        mined}) {
    TableWriter writer(batch1.schema(), layout);
    ASSERT_TRUE(writer.AppendRowGroup(batch1, ann).ok());
    ASSERT_TRUE(writer.AppendRowGroup(batch2, BitVectorSet()).ok());
    auto reader = TableReader::Open(std::move(writer).Finish());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();

    // Header metadata is layout-independent.
    auto meta = reader->ReadMeta(0);
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(meta->num_rows, 60u);
    EXPECT_TRUE(meta->annotations == ann);

    // Whole-batch decode is byte-identical to the input.
    auto decoded1 = reader->ReadBatch(0);
    ASSERT_TRUE(decoded1.ok()) << decoded1.status().ToString();
    EXPECT_TRUE(decoded1->Equals(batch1));
    auto decoded2 = reader->ReadBatch(1);
    ASSERT_TRUE(decoded2.ok());
    EXPECT_TRUE(decoded2->Equals(batch2));
  }
}

TEST(TableFileTest, GroupedProjectedReadTouchesOnlyCoveringChunks) {
  Rng rng(103);
  RecordBatch batch = MakeBatch(80, &rng);
  ColumnGroupLayout layout;
  layout.groups = {{0, 1}, {2, 3}};
  TableWriter writer(batch.schema(), layout);
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  const std::string file = std::move(writer).Finish();
  auto reader = TableReader::Open(file);
  ASSERT_TRUE(reader.ok());

  // Wanting only column 0 decodes chunk {0,1}: its chunk-mate column 1
  // rides along (counted as waste), chunk {2,3} is never touched.
  DecodeStats stats;
  auto projected = reader->ReadBatchProjected(0, {true, false, false, false},
                                              &stats);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_TRUE(projected->column(0).Equals(batch.column(0)));
  EXPECT_TRUE(projected->column(1).Equals(batch.column(1)));
  EXPECT_EQ(projected->column(2).size(), 0u);
  EXPECT_EQ(projected->column(3).size(), 0u);
  EXPECT_EQ(stats.columns_decoded, 2u);
  EXPECT_GT(stats.bytes_decoded, 0u);
  EXPECT_GT(stats.bytes_wasted, 0u);
  EXPECT_LT(stats.bytes_wasted, stats.bytes_decoded);

  // A mask covering both chunks decodes everything with no waste beyond
  // unwanted chunk-mates (here: none — all four columns wanted).
  DecodeStats all_stats;
  auto all = reader->ReadBatchProjected(0, {true, true, true, true},
                                        &all_stats);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all_stats.columns_decoded, 4u);
  EXPECT_EQ(all_stats.bytes_wasted, 0u);
  EXPECT_GT(all_stats.bytes_decoded, stats.bytes_decoded);

  // Per-column layout: exactly the wanted column, zero waste.
  TableWriter pc_writer(batch.schema(), ColumnGroupLayout::PerColumn(4));
  ASSERT_TRUE(pc_writer.AppendRowGroup(batch, BitVectorSet()).ok());
  auto pc_reader = TableReader::Open(std::move(pc_writer).Finish());
  ASSERT_TRUE(pc_reader.ok());
  DecodeStats pc_stats;
  auto pc = pc_reader->ReadBatchProjected(0, {false, false, false, true},
                                          &pc_stats);
  ASSERT_TRUE(pc.ok());
  EXPECT_TRUE(pc->column(3).Equals(batch.column(3)));
  EXPECT_EQ(pc_stats.columns_decoded, 1u);
  EXPECT_EQ(pc_stats.bytes_wasted, 0u);
}

TEST(TableFileTest, GroupedChunkCrcIsolatesCorruption) {
  // A fat unique marker makes the string column's chunk easy to find in
  // the file bytes so the corruption lands in exactly one chunk.
  Schema schema({{"id", ColumnType::kInt64}, {"tag", ColumnType::kString}});
  RecordBatch batch(schema);
  const std::string marker = "CHUNK-CORRUPTION-MARKER-PAYLOAD";
  for (size_t i = 0; i < 32; ++i) {
    batch.mutable_column(0)->AppendInt64(static_cast<int64_t>(i));
    batch.mutable_column(1)->AppendString(marker + std::to_string(i));
  }
  TableWriter writer(schema, ColumnGroupLayout::PerColumn(2));
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  std::string file = std::move(writer).Finish();

  const size_t pos = file.find(marker);
  ASSERT_NE(pos, std::string::npos);
  file[pos] ^= 0x01;

  auto reader = TableReader::OpenBorrowed(file);  // kVerify
  ASSERT_TRUE(reader.ok());
  // The untouched id chunk still reads and verifies.
  DecodeStats stats;
  auto ids = reader->ReadBatchProjected(0, {true, false}, &stats);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_TRUE(ids->column(0).Equals(batch.column(0)));
  // Touching the corrupted tag chunk fails its CRC.
  EXPECT_TRUE(
      reader->ReadBatchProjected(0, {false, true}).status().IsCorruption());
  EXPECT_FALSE(reader->ReadBatch(0).ok());
  // kTrust skips the check (in-process bytes); decode still proceeds.
  auto trusting = TableReader::OpenBorrowed(file, ChecksumMode::kTrust);
  ASSERT_TRUE(trusting.ok());
  (void)trusting->ReadBatchProjected(0, {true, false});
}

TEST(TableFileTest, GroupedWriterRejectsInvalidLayout) {
  Rng rng(105);
  RecordBatch batch = MakeBatch(5, &rng);
  ColumnGroupLayout bad;
  bad.groups = {{0, 1}};  // does not cover columns 2, 3
  TableWriter writer(batch.schema(), bad);
  EXPECT_TRUE(
      writer.AppendRowGroup(batch, BitVectorSet()).IsInvalidArgument());
}

// ---------- Whole-array decoder: contract ----------

/// Byte offset of an encoded column's payload: the u8 type and encoding
/// bytes, the u64 row count, then the serialized validity.
size_t PayloadOffset(size_t rows) {
  return 2 + 8 + BitVector::SerializedBytes(rows);
}

/// `rows` rows of `type`, each NULL with probability `null_share`.
/// Strings draw from `distinct` values, or are all different when
/// `distinct` is 0.
ColumnVector ContractColumn(ColumnType type, size_t rows, double null_share,
                            size_t distinct, Rng* rng) {
  ColumnVector col(type);
  for (size_t i = 0; i < rows; ++i) {
    if (rng->NextBool(null_share)) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case ColumnType::kInt64:
        col.AppendInt64(rng->NextInt(-(int64_t{1} << 40), int64_t{1} << 40));
        break;
      case ColumnType::kDouble:
        col.AppendDouble(rng->NextDouble() * 2e6 - 1e6);
        break;
      case ColumnType::kBool:
        col.AppendBool(rng->NextBool());
        break;
      case ColumnType::kString:
        if (distinct == 0) {
          col.AppendString("unique_" + std::to_string(i));
        } else {
          col.AppendString("v" + std::to_string(rng->NextBounded(distinct)));
        }
        break;
    }
  }
  return col;
}

/// NULL slots hold the documented placeholders: 0, 0.0, false, and an
/// empty string (code 0 on a dictionary column).
void ExpectNullPlaceholders(const ColumnVector& col) {
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsValid(i)) continue;
    switch (col.type()) {
      case ColumnType::kInt64:
        EXPECT_EQ(col.int_data()[i], 0) << "row " << i;
        break;
      case ColumnType::kDouble:
        EXPECT_EQ(col.double_data()[i], 0.0) << "row " << i;
        EXPECT_FALSE(std::signbit(col.double_data()[i])) << "row " << i;
        break;
      case ColumnType::kBool:
        EXPECT_FALSE(col.GetBool(i)) << "row " << i;
        break;
      case ColumnType::kString:
        if (col.has_dictionary()) {
          EXPECT_EQ(col.dict_codes()[i], 0u) << "row " << i;
        } else {
          EXPECT_EQ(col.GetString(i), "") << "row " << i;
        }
        break;
    }
  }
  if (col.type() == ColumnType::kBool) {
    for (size_t wi = 0; wi * 64 < col.size(); ++wi) {
      EXPECT_EQ(col.BoolWord(wi) & ~col.ValidityWord(wi), 0u) << "word " << wi;
    }
  }
}

TEST(DecoderContractTest, RoundTripsEveryTypeRowCountAndNullShare) {
  Rng rng(131);
  size_t plain_strings = 0;
  size_t narrow_dictionaries = 0;
  size_t wide_dictionaries = 0;
  const std::vector<std::pair<ColumnType, size_t>> shapes = {
      {ColumnType::kInt64, 0},   {ColumnType::kDouble, 0},
      {ColumnType::kBool, 0},    {ColumnType::kString, 0},
      {ColumnType::kString, 8},  {ColumnType::kString, 300}};
  for (const auto& [type, distinct] : shapes) {
    for (const size_t rows : {0u, 1u, 63u, 64u, 65u, 500u, 4097u}) {
      for (const double null_share : {0.0, 0.3, 1.0}) {
        SCOPED_TRACE(std::string(ColumnTypeName(type)) + " distinct=" +
                     std::to_string(distinct) + " rows=" +
                     std::to_string(rows) +
                     " null_share=" + std::to_string(null_share));
        const ColumnVector col =
            ContractColumn(type, rows, null_share, distinct, &rng);
        std::string buf;
        EncodeColumn(col, &buf);
        size_t offset = 0;
        auto decoded = DecodeColumn(buf, &offset);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        EXPECT_EQ(offset, buf.size());
        ASSERT_EQ(decoded->size(), rows);
        EXPECT_TRUE(decoded->validity() == col.validity());
        EXPECT_TRUE(decoded->Equals(col));
        ExpectNullPlaceholders(*decoded);

        // The decoded column writes the bytes it was read from.
        std::string again;
        EncodeColumn(*decoded, &again);
        EXPECT_EQ(again, buf);

        if (type != ColumnType::kString) continue;
        if (static_cast<Encoding>(buf[1]) == Encoding::kPlain) {
          EXPECT_FALSE(decoded->has_dictionary());
          ++plain_strings;
          continue;
        }
        // A dictionary column keeps codes and values and has no arena,
        // unless no row is valid (no entries: an empty arena).
        ASSERT_EQ(decoded->has_dictionary(), col.NullCount() < rows);
        if (!decoded->has_dictionary()) {
          EXPECT_EQ(decoded->offsets(), std::vector<uint32_t>(rows + 1, 0));
          continue;
        }
        EXPECT_TRUE(decoded->offsets().empty());
        EXPECT_TRUE(decoded->buffer().empty());
        EXPECT_EQ(decoded->dict_codes().size(), rows);
        if (decoded->dict_values().size() > 0xFF) {
          ++wide_dictionaries;
        } else {
          ++narrow_dictionaries;
        }
      }
    }
  }
  EXPECT_GT(plain_strings, 0u);
  EXPECT_GT(narrow_dictionaries, 0u);
  EXPECT_GT(wide_dictionaries, 0u) << "no column got 2-byte codes";
}

TEST(DecoderContractTest, NullSlotsReadPlaceholdersWhateverTheBytes) {
  // The encoder writes placeholders into NULL slots; a decoder must not
  // depend on it. Overwrite every NULL slot's payload and decode.
  Rng rng(133);
  const size_t rows = 130;
  for (const ColumnType type :
       {ColumnType::kInt64, ColumnType::kDouble, ColumnType::kBool}) {
    SCOPED_TRACE(ColumnTypeName(type));
    const ColumnVector col = ContractColumn(type, rows, 0.3, 0, &rng);
    ASSERT_GT(col.NullCount(), 0u);
    std::string buf;
    EncodeColumn(col, &buf);
    const size_t payload = PayloadOffset(rows);
    for (size_t i = 0; i < rows; ++i) {
      if (col.IsValid(i)) continue;
      if (type == ColumnType::kBool) {
        // [u64 size][words]: set the payload bit of the NULL row.
        buf[payload + 8 + i / 8] |= static_cast<char>(1u << (i % 8));
      } else {
        std::memset(buf.data() + payload + i * 8, 0xA5, 8);
      }
    }
    size_t offset = 0;
    auto decoded = DecodeColumn(buf, &offset);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded->Equals(col));
    ExpectNullPlaceholders(*decoded);
  }

  // Dictionary codes: a NULL row may carry any code, in range or not.
  const ColumnVector strings = ContractColumn(ColumnType::kString, rows, 0.3,
                                              4, &rng);
  std::string buf;
  EncodeColumn(strings, &buf);
  ASSERT_EQ(static_cast<Encoding>(buf[1]), Encoding::kDictionary);
  const size_t codes = buf.size() - rows;  // 1-byte codes end the column
  for (size_t i = 0; i < rows; ++i) {
    if (!strings.IsValid(i)) buf[codes + i] = static_cast<char>(0xEE);
  }
  size_t offset = 0;
  auto decoded = DecodeColumn(buf, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->has_dictionary());
  EXPECT_TRUE(decoded->Equals(strings));
  ExpectNullPlaceholders(*decoded);
}

TEST(DecoderContractTest, AppendsToDecodedDictionaryColumnMatchPlainColumn) {
  Rng rng(137);
  const ColumnVector original =
      ContractColumn(ColumnType::kString, 200, 0.3, 8, &rng);
  std::string buf;
  EncodeColumn(original, &buf);
  ASSERT_EQ(static_cast<Encoding>(buf[1]), Encoding::kDictionary);
  size_t offset = 0;
  auto decoded = DecodeColumn(buf, &offset);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->has_dictionary());

  // The first append may be either kind; both must build the arena that
  // appending the same strings row by row builds.
  for (const bool null_first : {false, true}) {
    SCOPED_TRACE(null_first ? "AppendNull first" : "AppendString first");
    ColumnVector plain = original;
    ColumnVector appended = *decoded;
    for (ColumnVector* col : {&plain, &appended}) {
      if (null_first) col->AppendNull();
      col->AppendString("v3");
      col->AppendNull();
      col->AppendString("not-in-dictionary");
      col->AppendString("");
    }
    EXPECT_FALSE(appended.has_dictionary());
    EXPECT_TRUE(appended.dict_codes().empty());
    ASSERT_EQ(appended.size(), plain.size());
    EXPECT_TRUE(appended.validity() == plain.validity());
    for (size_t i = 0; i < plain.size(); ++i) {
      if (!plain.IsValid(i)) continue;
      EXPECT_EQ(appended.GetString(i), plain.GetString(i)) << "row " << i;
    }
    EXPECT_EQ(appended.offsets(), plain.offsets());
    EXPECT_EQ(appended.buffer(), plain.buffer());
  }
}

/// Writes one column's bytes by hand: a dictionary column with the given
/// validity, entries, code width and codes. The encoder never writes some
/// of these shapes (fewer than 16 rows, codes out of range).
std::string DictionaryColumnBytes(const std::vector<bool>& valid,
                                  const std::vector<std::string>& entries,
                                  uint8_t code_width,
                                  const std::vector<uint32_t>& codes) {
  std::string out;
  wire::PutU8(static_cast<uint8_t>(ColumnType::kString), &out);
  wire::PutU8(static_cast<uint8_t>(Encoding::kDictionary), &out);
  wire::PutU64(valid.size(), &out);
  BitVector validity(valid.size());
  for (size_t i = 0; i < valid.size(); ++i) validity.Set(i, valid[i]);
  validity.SerializeTo(&out);
  wire::PutU32(static_cast<uint32_t>(entries.size()), &out);
  for (const std::string& entry : entries) wire::PutBytes(entry, &out);
  wire::PutU8(code_width, &out);
  for (const uint32_t code : codes) {
    wire::PutU8(static_cast<uint8_t>(code & 0xFF), &out);
    if (code_width == 2) wire::PutU8(static_cast<uint8_t>(code >> 8), &out);
  }
  return out;
}

TEST(DecoderContractTest, DictionaryColumnReencodesAsPlainStrings) {
  // Three rows are below the encoder's dictionary floor, so re-encoding
  // a decoded dictionary column writes plain strings: the same bytes as
  // the column appended row by row.
  const std::string bytes =
      DictionaryColumnBytes({true, false, true}, {"a", "bc"}, 1, {1, 0, 0});
  size_t offset = 0;
  auto decoded = DecodeColumn(bytes, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->has_dictionary());
  EXPECT_EQ(decoded->GetString(0), "bc");
  EXPECT_EQ(decoded->GetString(2), "a");

  ColumnVector appended(ColumnType::kString);
  appended.AppendString("bc");
  appended.AppendNull();
  appended.AppendString("a");
  std::string expected;
  EncodeColumn(appended, &expected);
  ASSERT_EQ(static_cast<Encoding>(expected[1]), Encoding::kPlain);
  std::string reencoded;
  EncodeColumn(*decoded, &reencoded);
  EXPECT_EQ(reencoded, expected);
}

TEST(DecoderContractTest, TableWriterReencodesDecodedBatchesByteForByte) {
  // The single-group pass-through of RewriteSegments and
  // EstimateColumnBytes re-encode decoded batches; both v3 (per-column)
  // and v4 (grouped) bodies must come out unchanged.
  Rng rng(139);
  const size_t rows = 1000;
  Schema schema({{"id", ColumnType::kInt64},
                 {"score", ColumnType::kDouble},
                 {"flag", ColumnType::kBool},
                 {"level", ColumnType::kString},
                 {"code", ColumnType::kString},
                 {"msg", ColumnType::kString}});
  RecordBatch batch(schema);
  const std::vector<size_t> distinct = {0, 0, 0, 5, 400, 0};
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    *batch.mutable_column(c) = ContractColumn(schema.field(c).type, rows, 0.1,
                                              distinct[c], &rng);
  }
  BitVectorSet annotations(2, rows);
  for (size_t r = 0; r < rows; ++r) {
    annotations.mutable_vector(0)->Set(r, rng.NextBool());
    annotations.mutable_vector(1)->Set(r, rng.NextBool(0.1));
  }
  ColumnGroupLayout mined;
  mined.groups = {{0, 3}, {1, 2, 4, 5}};
  for (const ColumnGroupLayout& layout :
       {ColumnGroupLayout{}, ColumnGroupLayout::SingleGroup(6),
        ColumnGroupLayout::PerColumn(6), mined}) {
    SCOPED_TRACE("layout groups=" + std::to_string(layout.groups.size()));
    TableWriter writer(schema, layout);
    ASSERT_TRUE(writer.AppendRowGroup(batch, annotations).ok());
    const std::string original = std::move(writer).Finish();

    auto reader = TableReader::OpenBorrowed(original);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto decoded = reader->ReadBatch(0);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded->column(3).has_dictionary());
    ASSERT_TRUE(decoded->column(4).has_dictionary());
    EXPECT_GT(decoded->column(4).dict_values().size(), 0xFFu)
        << "want 2-byte codes";
    EXPECT_FALSE(decoded->column(5).has_dictionary());

    TableWriter again(schema, layout);
    ASSERT_TRUE(again.AppendRowGroup(*decoded, annotations).ok());
    EXPECT_EQ(std::move(again).Finish(), original);
  }
}

// ---------- Encoder: byte for byte against the std::map reference ----------

/// The encoder as it was before the one hashed pass, kept as the
/// reference: every valid string goes into a std::map until it holds
/// more than 65,535 values, the rule below picks the encoding, and a
/// dictionary row's code is its value's rank in the map. One PutU8 per
/// code byte.
std::string ReferenceEncodeColumn(const ColumnVector& column) {
  std::string out;
  wire::PutU8(static_cast<uint8_t>(column.type()), &out);
  Encoding encoding = Encoding::kPlain;
  std::map<std::string_view, uint32_t> dict;
  if (column.type() == ColumnType::kString) {
    for (size_t i = 0; i < column.size(); ++i) {
      if (column.IsValid(i)) dict.emplace(column.GetString(i), 0);
      if (dict.size() > 0xFFFF) break;
    }
    const size_t rows = column.size();
    if (rows >= 16 && dict.size() <= 0xFFFF && dict.size() * 2 <= rows) {
      encoding = Encoding::kDictionary;
      uint32_t next = 0;
      for (auto& [value, code] : dict) code = next++;
    }
  }
  wire::PutU8(static_cast<uint8_t>(encoding), &out);
  wire::PutU64(column.size(), &out);
  column.validity().SerializeTo(&out);
  switch (column.type()) {
    case ColumnType::kInt64:
      for (const int64_t v : column.ints()) wire::PutI64(v, &out);
      break;
    case ColumnType::kDouble:
      for (const double v : column.doubles()) wire::PutF64(v, &out);
      break;
    case ColumnType::kBool:
      column.bools().SerializeTo(&out);
      break;
    case ColumnType::kString:
      if (encoding == Encoding::kDictionary) {
        wire::PutU32(static_cast<uint32_t>(dict.size()), &out);
        for (const auto& [value, code] : dict) wire::PutBytes(value, &out);
        const uint8_t code_width = dict.size() <= 0xFF ? 1 : 2;
        wire::PutU8(code_width, &out);
        for (size_t i = 0; i < column.size(); ++i) {
          const uint32_t code =
              column.IsValid(i) ? dict.at(column.GetString(i)) : 0;
          wire::PutU8(static_cast<uint8_t>(code & 0xFF), &out);
          if (code_width == 2) {
            wire::PutU8(static_cast<uint8_t>(code >> 8), &out);
          }
        }
        break;
      }
      if (column.has_dictionary()) {
        ColumnVector arena(ColumnType::kString);
        for (size_t i = 0; i < column.size(); ++i) {
          if (column.IsValid(i)) {
            arena.AppendString(column.GetString(i));
          } else {
            arena.AppendNull();
          }
        }
        return out + ReferenceEncodeColumn(arena).substr(out.size());
      }
      for (const uint32_t off : column.offsets()) wire::PutU32(off, &out);
      wire::PutBytes(column.buffer(), &out);
      break;
  }
  return out;
}

/// Expects EncodeColumn to write the reference's bytes for `column` and
/// for the column its output decodes to. Returns the encoding written.
Encoding ExpectEncodesLikeReference(const ColumnVector& column) {
  std::string encoded;
  EncodeColumn(column, &encoded);
  const std::string expected = ReferenceEncodeColumn(column);
  EXPECT_EQ(encoded.size(), expected.size());
  EXPECT_TRUE(encoded == expected) << "rows " << column.size();
  size_t offset = 0;
  auto decoded = DecodeColumn(encoded, &offset);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (decoded.ok()) {
    std::string again;
    EncodeColumn(*decoded, &again);
    EXPECT_TRUE(again == ReferenceEncodeColumn(*decoded))
        << "decoded form, rows " << column.size();
  }
  return static_cast<Encoding>(encoded[1]);
}

/// `distinct` different strings from `draw`.
template <typename Draw>
std::vector<std::string> DistinctStrings(size_t distinct, Draw draw) {
  std::set<std::string> seen;
  std::vector<std::string> values;
  while (values.size() < distinct) {
    std::string value = draw();
    if (seen.insert(value).second) values.push_back(std::move(value));
  }
  return values;
}

/// A string column of `valid` valid rows holding exactly the `values`
/// (each at least once, in random order) and `nulls` NULL rows between
/// them.
ColumnVector StringColumn(const std::vector<std::string>& values,
                          size_t valid, size_t nulls, Rng* rng) {
  std::vector<size_t> picks(valid);
  for (size_t i = 0; i < valid; ++i) {
    picks[i] = i < values.size() ? i : rng->NextBounded(values.size());
  }
  rng->Shuffle(&picks);
  std::vector<uint8_t> is_null(valid + nulls, 0);
  std::fill(is_null.begin(), is_null.begin() + nulls, 1);
  rng->Shuffle(&is_null);
  ColumnVector col(ColumnType::kString);
  size_t next = 0;
  for (const uint8_t null : is_null) {
    if (null) {
      col.AppendNull();
    } else {
      col.AppendString(values[picks[next++]]);
    }
  }
  return col;
}

/// Up to `max_len` bytes of any value, NUL and bytes >= 0x80 included.
std::string RandomBytes(size_t max_len, Rng* rng) {
  std::string s(rng->NextBounded(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng->NextBounded(256));
  return s;
}

TEST(EncoderDifferentialTest, EveryEdgeOfTheDecisionRule) {
  Rng rng(241);
  const auto bytes = [&rng] { return RandomBytes(12, &rng); };
  struct Case {
    size_t rows;
    size_t distinct;
    size_t nulls;
    Encoding want;
  };
  const std::vector<Case> cases = {
      {15, 1, 0, Encoding::kPlain},          // under 16 rows
      {15, 7, 3, Encoding::kPlain},          //
      {16, 1, 0, Encoding::kDictionary},     // the floor
      {16, 8, 0, Encoding::kDictionary},     // rows / 2
      {16, 9, 0, Encoding::kPlain},          // rows / 2 + 1
      {17, 8, 5, Encoding::kDictionary},     // odd rows: floor(rows / 2)
      {17, 9, 5, Encoding::kPlain},          //
      {1000, 500, 100, Encoding::kDictionary},
      {1000, 501, 100, Encoding::kPlain},
      {1001, 500, 0, Encoding::kDictionary},
      {1001, 501, 0, Encoding::kPlain},
      {2000, 255, 50, Encoding::kDictionary},  // the last 1-byte width
      {2000, 256, 50, Encoding::kDictionary},  // the first 2-byte width
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("rows " + std::to_string(c.rows) + " distinct " +
                 std::to_string(c.distinct));
    const std::vector<std::string> values =
        DistinctStrings(c.distinct, bytes);
    const ColumnVector col =
        StringColumn(values, c.rows - c.nulls, c.nulls, &rng);
    EXPECT_EQ(ExpectEncodesLikeReference(col), c.want);
  }
}

TEST(EncoderDifferentialTest, EdgesOfTheDictionaryCapacity) {
  // 65,535 distinct values is the widest dictionary; 65,536 is plain even
  // though it is under half the rows.
  Rng rng(251);
  const auto numbered = [&rng] {
    return "k" + std::to_string(rng.NextBounded(1u << 30));
  };
  const std::vector<std::string> values = DistinctStrings(65536, numbered);
  const std::vector<std::string> widest(values.begin(), values.end() - 1);
  EXPECT_EQ(ExpectEncodesLikeReference(
                StringColumn(widest, 2 * 65535 - 7, 7, &rng)),
            Encoding::kDictionary);
  EXPECT_EQ(ExpectEncodesLikeReference(
                StringColumn(values, 2 * 65536 + 5, 9, &rng)),
            Encoding::kPlain);
  // Both rules at once: one more row would not make 65,536 values fit.
  EXPECT_EQ(ExpectEncodesLikeReference(
                StringColumn(widest, 2 * 65535 - 1, 0, &rng)),
            Encoding::kPlain);
}

TEST(EncoderDifferentialTest, ValuesThatOrderByBytesAndLength) {
  Rng rng(257);
  std::vector<std::vector<std::string>> value_sets = {
      // Empty strings only, and empty beside others.
      {""},
      {"", "a", "b"},
      // Bytes >= 0x80 sort after ASCII as unsigned bytes.
      {"\x80", "\xff", "a", "\x7f", "z\x90", "z", "\xc3\xa9t\xc3\xa9"},
      // Embedded NUL, and prefix pairs: shorter first.
      {std::string("a\0b", 3), std::string("a\0", 2), "a", "ab", "abc",
       std::string("\0", 1), std::string("\0\0", 2)},
  };
  // Long shared prefixes, differing only in the last bytes.
  const std::string prefix =
      "https://www.example.com/api/v2/catalog/items/" + std::string(200, 'p');
  value_sets.push_back(DistinctStrings(40, [&] {
    return prefix + std::to_string(rng.NextBounded(1000));
  }));
  value_sets.push_back(DistinctStrings(300, [&] {
    return prefix.substr(0, rng.NextBounded(prefix.size() + 1)) +
           RandomBytes(3, &rng);
  }));
  for (const std::vector<std::string>& values : value_sets) {
    for (const size_t rows : {values.size(), 2 * values.size() + 16}) {
      const size_t nulls = rows / 5;
      if (rows - nulls < values.size()) continue;
      SCOPED_TRACE("distinct " + std::to_string(values.size()) + " rows " +
                   std::to_string(rows));
      ExpectEncodesLikeReference(
          StringColumn(values, rows - nulls, nulls, &rng));
    }
  }
}

TEST(EncoderDifferentialTest, AllNullColumns) {
  // At 16 rows and more an all-NULL column is a dictionary of no entries.
  for (const size_t rows : {0, 1, 15, 16, 17, 1000}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    ColumnVector col(ColumnType::kString);
    for (size_t i = 0; i < rows; ++i) col.AppendNull();
    EXPECT_EQ(ExpectEncodesLikeReference(col),
              rows >= 16 ? Encoding::kDictionary : Encoding::kPlain);
  }
}

TEST(EncoderDifferentialTest, DecodedDictionaryColumnsEncodeAgain) {
  // Hand-built dictionary columns the encoder would not write: entries
  // out of order, entries no valid row uses, a NULL row coded past
  // entry 0, and more entries than half the rows.
  struct Case {
    std::vector<std::string> entries;
    uint8_t width;
  };
  Rng rng(263);
  for (const Case& c :
       {Case{{"zeta", "alpha", "mid", "unused"}, 1},
        Case{{"b", "a"}, 2},
        Case{DistinctStrings(40, [&rng] { return RandomBytes(6, &rng); }), 1},
        Case{DistinctStrings(300, [&rng] { return RandomBytes(6, &rng); }),
             2}}) {
    for (const size_t rows : {15, 16, 40, 100, 1000}) {
      std::vector<bool> valid(rows);
      std::vector<uint32_t> codes(rows);
      for (size_t i = 0; i < rows; ++i) {
        valid[i] = !rng.NextBool(0.2);
        codes[i] = static_cast<uint32_t>(rng.NextBounded(c.entries.size()));
      }
      const std::string bytes =
          DictionaryColumnBytes(valid, c.entries, c.width, codes);
      size_t offset = 0;
      auto decoded = DecodeColumn(bytes, &offset);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      SCOPED_TRACE("entries " + std::to_string(c.entries.size()) + " rows " +
                   std::to_string(rows));
      ExpectEncodesLikeReference(*decoded);
    }
  }
}

/// `records` converted into row groups of `group_rows` rows.
std::vector<RecordBatch> RowGroups(const workload::Dataset& ds,
                                   size_t records, size_t group_rows) {
  std::vector<RecordBatch> groups;
  BatchBuilder builder(ds.schema);
  for (size_t i = 0; i < records; ++i) {
    EXPECT_TRUE(builder.AppendSerialized(ds.records[i]).ok());
    if (builder.num_rows() == group_rows || i + 1 == records) {
      groups.push_back(builder.Finish());
    }
  }
  return groups;
}

TEST(EncoderDifferentialTest, EveryColumnOfTheThreeDatasets) {
  workload::GeneratorOptions gen;
  gen.num_records = 8192;
  gen.seed = 269;
  for (const workload::Dataset& ds :
       {workload::GenerateYcsb(gen), workload::GenerateWinLog(gen),
        workload::GenerateYelp(gen)}) {
    for (const size_t group_rows : {500, 1000, 4096}) {
      SCOPED_TRACE(ds.name + " groups of " + std::to_string(group_rows));
      for (const RecordBatch& batch :
           RowGroups(ds, ds.records.size(), group_rows)) {
        for (size_t c = 0; c < batch.num_columns(); ++c) {
          SCOPED_TRACE(ds.schema.field(c).name);
          ExpectEncodesLikeReference(batch.column(c));
        }
      }
    }
  }
}

/// 64-bit FNV-1a over every byte.
uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001B3ull;
  }
  return h;
}

TEST(EncoderDifferentialTest, TableFilesKeepTheirBytes) {
  // Two 500-record row groups of fixed-seed records, with two annotation
  // vectors, in a v3 (per-column) body and in a grouped v4 layout of the
  // shape the column-grouping miner produces (co-accessed columns
  // together, cold columns in one chunk). The hashes and sizes are those
  // of the std::map encoder that preceded the one hashed pass.
  //
  // Not a CRC-32 of the file: each row group ends with the CRC-32 of its
  // header and body, and a CRC over data followed by that data's own CRC
  // is the same whatever the data, so a whole-file CRC-32 cannot see a
  // change inside a body (dictionary entries in another order kept it).
  struct Pinned {
    workload::DatasetKind kind;
    ColumnGroupLayout v4;
    uint64_t v3_hash;
    size_t v3_size;
    uint64_t v4_hash;
    size_t v4_size;
  };
  ColumnGroupLayout ycsb_v4;
  // {age, age_group, eye_color}, {guid}, {company, email, url.domain},
  // then the other 21 columns.
  ycsb_v4.groups = {{4, 5, 9}, {1}, {12, 13, 22}, {}};
  for (uint32_t c = 0; c < 27; ++c) {
    if (c != 1 && c != 4 && c != 5 && c != 9 && c != 12 && c != 13 &&
        c != 22) {
      ycsb_v4.groups.back().push_back(c);
    }
  }
  ColumnGroupLayout winlog_v4;
  winlog_v4.groups = {{0}, {1, 2}, {3}};  // {time}, {level, source}, {info}
  const std::vector<Pinned> pinned = {
      {workload::DatasetKind::kYcsb, ycsb_v4, 0x9E8EECC90AF34310, 293040,
       0x4724B373EC1F1437, 293152},
      {workload::DatasetKind::kWinLog, winlog_v4, 0x08FD25DA4A526F3A, 147829,
       0x8FCA99A4CEB493EA, 147917},
  };
  for (const Pinned& p : pinned) {
    workload::GeneratorOptions gen;
    gen.num_records = 1000;
    gen.seed = 271;
    const workload::Dataset ds = workload::GenerateDataset(p.kind, gen);
    SCOPED_TRACE(ds.name);
    Rng rng(277);
    for (const bool grouped : {false, true}) {
      TableWriter writer(ds.schema,
                         grouped ? p.v4 : ColumnGroupLayout{});
      for (const RecordBatch& batch : RowGroups(ds, ds.records.size(), 500)) {
        BitVectorSet annotations(2, batch.num_rows());
        for (size_t r = 0; r < batch.num_rows(); ++r) {
          annotations.mutable_vector(0)->Set(r, rng.NextBool(0.3));
          annotations.mutable_vector(1)->Set(r, rng.NextBool(0.05));
        }
        ASSERT_TRUE(writer.AppendRowGroup(batch, annotations).ok());
      }
      const std::string file = std::move(writer).Finish();
      EXPECT_EQ(Fnv1a64(file), grouped ? p.v4_hash : p.v3_hash);
      EXPECT_EQ(file.size(), grouped ? p.v4_size : p.v3_size);
    }
  }
}

// ---------- Whole-array decoder: corruption ----------

TEST(DecoderContractTest, DictionaryCountBeyondBytesIsCorruption) {
  // A flipped high byte of the entry count once sized a vector of
  // billions of entries (std::bad_alloc) before any entry was read.
  Rng rng(141);
  const ColumnVector col = ContractColumn(ColumnType::kString, 64, 0.0, 4,
                                          &rng);
  std::string buf;
  EncodeColumn(col, &buf);
  ASSERT_EQ(static_cast<Encoding>(buf[1]), Encoding::kDictionary);
  buf[PayloadOffset(64) + 3] ^= static_cast<char>(0xFF);
  size_t offset = 0;
  EXPECT_TRUE(DecodeColumn(buf, &offset).status().IsCorruption());
}

TEST(DecoderContractTest, CodeOutOfRangeOnValidRowIsCorruption) {
  for (const uint8_t width : {1, 2}) {
    SCOPED_TRACE("code width " + std::to_string(width));
    const uint32_t too_big = width == 1 ? 2 : 0x0102;
    size_t offset = 0;
    EXPECT_TRUE(DecodeColumn(DictionaryColumnBytes({true, true, true},
                                                   {"a", "b"}, width,
                                                   {0, too_big, 1}),
                             &offset)
                    .status()
                    .IsCorruption());
    // The same code on a NULL row is ignored and reads as code 0.
    offset = 0;
    auto decoded = DecodeColumn(
        DictionaryColumnBytes({true, false, true}, {"a", "b"}, width,
                              {0, too_big, 1}),
        &offset);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->dict_codes(), (std::vector<uint32_t>{0, 0, 1}));
    EXPECT_EQ(decoded->GetString(2), "b");
  }
  // No entries: any valid row is out of range.
  size_t offset = 0;
  EXPECT_TRUE(DecodeColumn(DictionaryColumnBytes({false, true}, {}, 1, {0, 0}),
                           &offset)
                  .status()
                  .IsCorruption());
}

TEST(DecoderContractTest, DecreasingOffsetIsCorruption) {
  ColumnVector col(ColumnType::kString);
  col.AppendString("ab");
  col.AppendString("cd");
  col.AppendString("ef");
  std::string buf;
  EncodeColumn(col, &buf);
  ASSERT_EQ(static_cast<Encoding>(buf[1]), Encoding::kPlain);
  // Offsets 0,2,4,6 -> 0,5,4,6: first and last still hold.
  PutU32At(&buf, PayloadOffset(col.size()) + 4, 5);
  size_t offset = 0;
  EXPECT_TRUE(DecodeColumn(buf, &offset).status().IsCorruption());
}

TEST(DecoderContractTest, BytesInNullRowAreCorruption) {
  ColumnVector col(ColumnType::kString);
  col.AppendString("ab");
  col.AppendNull();
  col.AppendString("cd");
  std::string buf;
  EncodeColumn(col, &buf);
  ASSERT_EQ(static_cast<Encoding>(buf[1]), Encoding::kPlain);
  // Offsets 0,2,2,4 -> 0,2,3,4: the NULL row now spans one byte.
  PutU32At(&buf, PayloadOffset(col.size()) + 8, 3);
  size_t offset = 0;
  EXPECT_TRUE(DecodeColumn(buf, &offset).status().IsCorruption());
}

// ---------- Deterministic mutation test for DecodeColumn ----------

/// Seed columns from the encoder: every type, plain strings, dictionary
/// strings with 1- and 2-byte codes, all-NULL and 0-row columns.
std::vector<std::string> MutationSeeds() {
  Rng rng(149);
  std::vector<ColumnVector> columns;
  for (const ColumnType type :
       {ColumnType::kInt64, ColumnType::kDouble, ColumnType::kBool}) {
    columns.push_back(ContractColumn(type, 70, 0.3, 0, &rng));
    columns.push_back(ContractColumn(type, 20, 1.0, 0, &rng));
    columns.emplace_back(type);
  }
  columns.push_back(ContractColumn(ColumnType::kString, 40, 0.3, 0, &rng));
  columns.push_back(ContractColumn(ColumnType::kString, 70, 0.3, 4, &rng));
  // 260 distinct values, each on at least one valid row: 2-byte codes.
  ColumnVector wide(ColumnType::kString);
  for (size_t i = 0; i < 600; ++i) {
    if (i % 7 == 0) {
      wide.AppendNull();
    } else {
      wide.AppendString("w" + std::to_string(i % 260));
    }
  }
  columns.push_back(std::move(wide));
  columns.push_back(ContractColumn(ColumnType::kString, 20, 1.0, 4, &rng));
  columns.emplace_back(ColumnType::kString);

  std::vector<std::string> seeds;
  for (const ColumnVector& col : columns) {
    seeds.emplace_back();
    EncodeColumn(col, &seeds.back());
  }
  return seeds;
}

/// The mutation property: DecodeColumn returns a non-OK Status, or a
/// column of the declared row count that re-encodes and decodes back to
/// the same column. Returns a description of the violation, or "";
/// `*decoded_ok` says whether the mutant decoded.
std::string MutantViolation(const std::string& bytes, bool* decoded_ok) {
  size_t offset = 0;
  Result<ColumnVector> decoded = DecodeColumn(bytes, &offset);
  *decoded_ok = decoded.ok();
  if (!decoded.ok()) return "";
  if (bytes.size() < 10) return "decoded a buffer shorter than the header";
  uint64_t declared = 0;
  std::memcpy(&declared, bytes.data() + 2, 8);
  if (decoded->size() != declared) return "row count != declared";
  if (offset > bytes.size()) return "offset past the buffer";
  std::string again;
  EncodeColumn(*decoded, &again);
  size_t again_offset = 0;
  Result<ColumnVector> round = DecodeColumn(again, &again_offset);
  if (!round.ok()) return "re-encoded bytes fail: " + round.status().ToString();
  if (again_offset != again.size()) return "re-encoded bytes not consumed";
  // Bytes, not Equals: a flipped type byte can turn int64 payloads into
  // NaN doubles, which compare unequal to themselves.
  std::string twice;
  EncodeColumn(*round, &twice);
  if (twice != again) return "column changed through a round trip";
  if (round->size() != decoded->size()) return "round trip changed size";
  return "";
}

TEST(DecodeColumnMutationTest, EveryMutantFailsCleanlyOrRoundTrips) {
  const std::vector<std::string> seeds = MutationSeeds();
  // The seeds cover both string encodings and both code widths.
  size_t dictionary_seeds = 0;
  for (const std::string& seed : seeds) {
    dictionary_seeds +=
        static_cast<Encoding>(seed[1]) == Encoding::kDictionary ? 1 : 0;
  }
  ASSERT_GE(dictionary_seeds, 3u);

  constexpr size_t kEdgeBytes = 64;
  constexpr size_t kSplicesPerSeed = 256;
  Rng rng(151);
  size_t mutants = 0;
  size_t decoded_ok = 0;
  size_t violations = 0;
  auto check = [&](const std::string& mutant, const std::string& what) {
    ++mutants;
    bool ok = false;
    const std::string violation = MutantViolation(mutant, &ok);
    decoded_ok += ok ? 1 : 0;
    if (!violation.empty() && ++violations <= 5) {
      ADD_FAILURE() << what << ": " << violation;
    }
  };
  for (size_t s = 0; s < seeds.size(); ++s) {
    const std::string& seed = seeds[s];
    const std::string tag = "seed " + std::to_string(s);
    check(seed, tag);
    // Every single-bit flip in the first and last kEdgeBytes bytes.
    for (size_t pos = 0; pos < seed.size(); ++pos) {
      if (pos >= kEdgeBytes && pos + kEdgeBytes < seed.size()) continue;
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutant = seed;
        mutant[pos] ^= static_cast<char>(1 << bit);
        check(mutant, tag + " flip byte " + std::to_string(pos) + " bit " +
                          std::to_string(bit));
      }
    }
    // Every truncation.
    for (size_t len = 0; len < seed.size(); ++len) {
      check(seed.substr(0, len), tag + " truncated to " + std::to_string(len));
    }
    // Seeded splices: replace a range of up to 16 bytes by up to 8
    // random bytes.
    for (size_t k = 0; k < kSplicesPerSeed; ++k) {
      const size_t begin = rng.NextBounded(seed.size() + 1);
      const size_t span = std::min<size_t>(16, seed.size() - begin);
      const size_t end = begin + rng.NextBounded(span + 1);
      std::string insert(rng.NextBounded(9), '\0');
      for (char& c : insert) c = static_cast<char>(rng.NextBounded(256));
      check(seed.substr(0, begin) + insert + seed.substr(end),
            tag + " splice " + std::to_string(k));
    }
  }
  EXPECT_EQ(violations, 0u) << "of " << mutants << " mutants";
  // Some mutants must still decode, or the property is never exercised.
  EXPECT_GT(decoded_ok, seeds.size());
}

// ---------- Deterministic mutation test for the segment index ----------

/// Where each group's framing sits in a TableWriter file, found by
/// walking it the way the reader does.
struct GroupSpan {
  size_t marker = 0;  // "GRUP"
  size_t header = 0;
  size_t header_len = 0;
  size_t body = 0;
  size_t body_len = 0;
};

std::vector<GroupSpan> WalkGroups(const std::string& file,
                                  const Schema& schema) {
  std::string schema_bytes;
  schema.SerializeTo(&schema_bytes);
  std::vector<GroupSpan> spans;
  size_t pos = 8 + schema_bytes.size();
  while (GetU32At(file, pos) != 0x544F4F46u) {  // "FOOT"
    GroupSpan g;
    g.marker = pos;
    g.header_len = GetU32At(file, pos + 4);
    g.header = pos + 8;
    g.body_len = GetU32At(file, g.header + g.header_len);
    g.body = g.header + g.header_len + 4;
    spans.push_back(g);
    pos = g.body + g.body_len + 4;
  }
  return spans;
}

/// Rewrites `file` as a file written before the match-density summary
/// existed: each header loses its trailing u32 count and counts, and
/// each group CRC is re-stamped.
std::string StripMatchCounts(const std::string& file, const Schema& schema,
                             size_t num_predicates) {
  const std::vector<GroupSpan> spans = WalkGroups(file, schema);
  const size_t tail = 4 + 4 * num_predicates;
  std::string out = file.substr(0, spans.front().marker);
  for (const GroupSpan& g : spans) {
    const std::string header = file.substr(g.header, g.header_len - tail);
    const std::string body = file.substr(g.body, g.body_len);
    wire::PutU32(0x50555247u, &out);  // "GRUP"
    wire::PutBytes(header, &out);
    wire::PutBytes(body, &out);
    uint32_t crc = Crc32(header);
    crc = Crc32(body.data(), body.size(), crc);
    wire::PutU32(crc, &out);
  }
  const GroupSpan& last = spans.back();
  out += file.substr(last.body + last.body_len + 4);
  return out;
}

/// TableWriter files with v3 (per-column) and v4 (grouped) bodies, 0 and
/// 26 predicates, with and without match counts; two groups each.
std::vector<std::string> IndexMutationSeeds() {
  Rng rng(157);
  std::vector<std::string> seeds;
  for (const bool grouped : {false, true}) {
    for (const size_t predicates : {size_t{0}, size_t{26}}) {
      const RecordBatch first = MakeBatch(40, &rng);
      const RecordBatch second = MakeBatch(23, &rng);
      ColumnGroupLayout layout;
      if (grouped) layout.groups = {{0, 2}, {1, 3}};
      TableWriter writer(first.schema(), layout);
      for (const RecordBatch* batch : {&first, &second}) {
        BitVectorSet bits(predicates, batch->num_rows());
        for (size_t p = 0; p < predicates; ++p) {
          for (size_t r = 0; r < batch->num_rows(); ++r) {
            bits.mutable_vector(p)->Set(r, rng.NextBool(0.3));
          }
        }
        EXPECT_TRUE(writer.AppendRowGroup(*batch, bits).ok());
      }
      std::string file = std::move(writer).Finish();
      seeds.push_back(StripMatchCounts(file, first.schema(), predicates));
      seeds.push_back(std::move(file));
    }
  }
  return seeds;
}

bool SameZoneMaps(const std::vector<ZoneMap>& a,
                  const std::vector<ZoneMap>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bytes, not ==: a flipped bit can make a bound NaN.
    if (a[i].has_minmax != b[i].has_minmax ||
        a[i].null_count != b[i].null_count ||
        std::memcmp(&a[i].min, &b[i].min, sizeof(double)) != 0 ||
        std::memcmp(&a[i].max, &b[i].max, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The property: SegmentIndex::Build returns a non-OK Status, or an index
/// that agrees with a fresh kTrust parse of the same bytes group by group
/// and that opens a reader over them. Returns the violation, or "".
std::string IndexMutantViolation(const std::string& bytes, bool* built) {
  auto index = SegmentIndex::Build(bytes);
  *built = index.ok();
  if (!index.ok()) return "";
  auto fresh = TableReader::OpenBorrowed(bytes, ChecksumMode::kTrust);
  if (!fresh.ok()) return "index built, fresh parse failed";
  const SegmentIndex& ix = **index;
  auto from_index = TableReader::FromIndex(ix, bytes);
  if (!from_index.ok()) return "FromIndex failed on the index's own bytes";
  if (!(from_index->schema() == fresh->schema())) return "schema differs";
  if (ix.num_row_groups() != fresh->num_row_groups()) {
    return "group count differs";
  }
  for (size_t g = 0; g < ix.num_row_groups(); ++g) {
    auto meta = fresh->ReadMeta(g);
    if (!meta.ok()) return "group " + std::to_string(g) + " meta fails";
    const RowGroupMeta& held = ix.group(g);
    if (held.num_rows != meta->num_rows ||
        !(held.annotations == meta->annotations) ||
        held.match_counts != meta->match_counts ||
        !SameZoneMaps(held.zone_maps, meta->zone_maps)) {
      return "group " + std::to_string(g) + " differs from a fresh parse";
    }
    if (!held.match_counts.empty() &&
        held.match_counts.size() != held.annotations.num_predicates()) {
      return "match counts misaligned with annotations";
    }
  }
  return "";
}

TEST(SegmentIndexMutationTest, EveryMutantFailsCleanlyOrMatchesAFreshParse) {
  const std::vector<std::string> seeds = IndexMutationSeeds();
  ASSERT_EQ(seeds.size(), 8u);
  constexpr size_t kSplicesPerSeed = 256;
  Rng rng(163);
  size_t mutants = 0;
  size_t built = 0;
  size_t violations = 0;
  auto check = [&](const std::string& mutant, const std::string& what) {
    ++mutants;
    bool ok = false;
    const std::string violation = IndexMutantViolation(mutant, &ok);
    built += ok ? 1 : 0;
    if (!violation.empty() && ++violations <= 5) {
      ADD_FAILURE() << what << ": " << violation;
    }
  };
  const Schema schema = MakeBatch(0, &rng).schema();
  for (size_t s = 0; s < seeds.size(); ++s) {
    const std::string& seed = seeds[s];
    const std::string tag = "seed " + std::to_string(s);
    bool seed_built = false;
    ASSERT_EQ(IndexMutantViolation(seed, &seed_built), "") << tag;
    ASSERT_TRUE(seed_built) << tag;
    // Every single-bit flip in the magic, the schema and every group's
    // marker, lengths and header: the bytes the index build parses. The
    // CRC is not re-stamped — Build trusts its bytes, so the parse
    // itself must hold.
    std::vector<std::pair<size_t, size_t>> ranges;
    const std::vector<GroupSpan> spans = WalkGroups(seed, schema);
    ranges.emplace_back(0, spans.front().header + spans.front().header_len);
    for (size_t g = 1; g < spans.size(); ++g) {
      ranges.emplace_back(spans[g].marker,
                          spans[g].header + spans[g].header_len + 4);
    }
    const GroupSpan& last = spans.back();
    ranges.emplace_back(last.body + last.body_len, seed.size());  // footer
    for (const auto& [begin, end] : ranges) {
      for (size_t pos = begin; pos < end; ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
          std::string mutant = seed;
          mutant[pos] ^= static_cast<char>(1 << bit);
          check(mutant, tag + " flip byte " + std::to_string(pos) + " bit " +
                            std::to_string(bit));
        }
      }
    }
    // Every truncation.
    for (size_t len = 0; len < seed.size(); ++len) {
      check(seed.substr(0, len), tag + " truncated to " + std::to_string(len));
    }
    // Seeded splices: replace a range of up to 16 bytes of a header by
    // up to 8 random bytes.
    for (size_t k = 0; k < kSplicesPerSeed; ++k) {
      const GroupSpan& g = spans[rng.NextBounded(spans.size())];
      const size_t begin = g.header + rng.NextBounded(g.header_len + 1);
      const size_t span = std::min<size_t>(16, seed.size() - begin);
      const size_t end = begin + rng.NextBounded(span + 1);
      std::string insert(rng.NextBounded(9), '\0');
      for (char& c : insert) c = static_cast<char>(rng.NextBounded(256));
      check(seed.substr(0, begin) + insert + seed.substr(end),
            tag + " splice " + std::to_string(k));
    }
  }
  EXPECT_EQ(violations, 0u) << "of " << mutants << " mutants";
  // Some mutants must still build, or the property is never exercised.
  EXPECT_GT(built, seeds.size());
}

// A reader from the index refuses bytes that frame differently from the
// file the index was built from.
TEST(SegmentIndexTest, FromIndexRefusesOtherBytes) {
  Rng rng(167);
  const RecordBatch batch = MakeBatch(30, &rng);
  TableWriter writer(batch.schema());
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet(2, 30)).ok());
  const std::string file = std::move(writer).Finish();
  auto index = SegmentIndex::Build(file);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->num_row_groups(), 1u);
  EXPECT_EQ((*index)->group(0).num_rows, 30u);
  EXPECT_EQ((*index)->group(0).annotations.num_predicates(), 2u);

  auto reader = TableReader::FromIndex(**index, file);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto decoded = reader->ReadBatch(0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Equals(batch));

  // Same size, different stored CRC.
  std::string other = file;
  const GroupSpan g = WalkGroups(file, batch.schema()).front();
  other[g.body + g.body_len] ^= 0x01;
  EXPECT_TRUE(TableReader::FromIndex(**index, other).status().IsCorruption());
  // Different size.
  EXPECT_TRUE(TableReader::FromIndex(**index, file + "x")
                  .status()
                  .IsCorruption());
}

// ---------- JSON converter ----------

TEST(ConverterTest, SchemaDropsAndCoerces) {
  Schema schema({{"i", ColumnType::kInt64},
                 {"d", ColumnType::kDouble},
                 {"b", ColumnType::kBool},
                 {"s", ColumnType::kString},
                 {"nested.x", ColumnType::kInt64}});
  BatchBuilder builder(schema);
  ASSERT_TRUE(builder
                  .AppendSerialized(
                      R"({"i":4,"d":2.5,"b":true,"s":"hi","nested":{"x":7}})")
                  .ok());
  // Missing fields and nulls -> NULL.
  ASSERT_TRUE(builder.AppendSerialized(R"({"i":null,"s":"yo"})").ok());
  // Int promotes to double column; type mismatch counts coercion error.
  ASSERT_TRUE(builder.AppendSerialized(R"({"i":"oops","d":3})").ok());

  EXPECT_EQ(builder.coercion_errors(), 1u);
  EXPECT_EQ(builder.parse_errors(), 0u);
  RecordBatch batch = builder.Finish();
  ASSERT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.column(0).GetInt64(0), 4);
  EXPECT_FALSE(batch.column(0).IsValid(1));
  EXPECT_FALSE(batch.column(0).IsValid(2));  // "oops" mismatched
  EXPECT_EQ(batch.column(1).GetDouble(2), 3.0);
  EXPECT_EQ(batch.column(4).GetInt64(0), 7);
  EXPECT_FALSE(batch.column(4).IsValid(1));
}

TEST(ConverterTest, MalformedRecordCountsParseError) {
  BatchBuilder builder(Schema({{"a", ColumnType::kInt64}}));
  EXPECT_FALSE(builder.AppendSerialized("{broken").ok());
  EXPECT_EQ(builder.parse_errors(), 1u);
  EXPECT_EQ(builder.num_rows(), 0u);
}

TEST(ConverterTest, FinishResets) {
  BatchBuilder builder(Schema({{"a", ColumnType::kInt64}}));
  ASSERT_TRUE(builder.AppendSerialized(R"({"a":1})").ok());
  EXPECT_EQ(builder.Finish().num_rows(), 1u);
  EXPECT_EQ(builder.num_rows(), 0u);
  ASSERT_TRUE(builder.AppendSerialized(R"({"a":2})").ok());
  EXPECT_EQ(builder.Finish().num_rows(), 1u);
}

TEST(ConverterTest, InferSchema) {
  std::vector<json::Value> samples;
  samples.push_back(*json::Parse(
      R"({"i":1,"s":"x","b":true,"d":1.5,"nest":{"k":2},"arr":[1,2]})"));
  samples.push_back(*json::Parse(R"({"i":2.5,"s":"y","skip":null})"));

  const Schema schema = InferSchema(samples);
  // "i" promoted int->double; "arr" skipped; "nest.k" dotted.
  const int i_idx = schema.FieldIndex("i");
  ASSERT_GE(i_idx, 0);
  EXPECT_EQ(schema.field(static_cast<size_t>(i_idx)).type,
            ColumnType::kDouble);
  EXPECT_GE(schema.FieldIndex("s"), 0);
  EXPECT_GE(schema.FieldIndex("b"), 0);
  EXPECT_GE(schema.FieldIndex("nest.k"), 0);
  EXPECT_EQ(schema.FieldIndex("arr"), -1);
  EXPECT_EQ(schema.FieldIndex("skip"), -1);
}

TEST(ConverterTest, InferSchemaDropsHardConflicts) {
  std::vector<json::Value> samples;
  samples.push_back(*json::Parse(R"({"x":1})"));
  samples.push_back(*json::Parse(R"({"x":"str"})"));
  EXPECT_EQ(InferSchema(samples).FieldIndex("x"), -1);
}

}  // namespace
}  // namespace ciao::columnar
