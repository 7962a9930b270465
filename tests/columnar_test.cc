#include <gtest/gtest.h>

#include <cstring>

#include "columnar/encoding.h"
#include "columnar/file_reader.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/crc32.h"
#include "common/random.h"
#include "json/parser.h"

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
  EXPECT_TRUE(reader->ReadMetaLite(0).status().IsCorruption());
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
