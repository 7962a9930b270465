// Differential suite: the tape parser's accept/reject behavior and every
// extracted field must agree with the json::Parse DOM oracle — over the
// workload corpora, escape/unicode/number torture cases, malformed-input
// families, and byte-mutation fuzzing. The tape path is the loader's
// default, so this suite is what licenses it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "common/random.h"
#include "common/string_util.h"
#include "json/chunk.h"
#include "json/parser.h"
#include "json/tape_parser.h"
#include "json/writer.h"
#include "workload/dataset.h"

namespace ciao {
namespace {

using columnar::BatchBuilder;
using json::Tape;
using json::TapeKind;
using json::TapeParser;
using json::TapeToken;

/// Both parsers must agree on acceptance; returns the oracle's verdict.
bool AgreeOnAccept(const std::string& input) {
  TapeParser parser;
  Tape tape;
  const bool oracle_ok = json::Parse(input).ok();
  const bool tape_ok = parser.Parse(input, &tape).ok();
  EXPECT_EQ(oracle_ok, tape_ok) << "input: " << input;
  return oracle_ok;
}

/// Loads `records` under `schema` twice — through the tape path
/// (AppendSerialized) and through the DOM oracle (json::Parse, then
/// AppendParsed) — and expects identical batches and error counters
/// (byte-for-byte on every extracted field, via ColumnVector::Equals).
void ExpectIdenticalBatches(const columnar::Schema& schema,
                            const std::vector<std::string>& records) {
  BatchBuilder tape_builder(schema);
  BatchBuilder dom_builder(schema);
  size_t dom_parse_errors = 0;
  for (const std::string& r : records) {
    const Status tape_st = tape_builder.AppendSerialized(r);
    const Result<json::Value> parsed = json::Parse(r);
    if (parsed.ok()) {
      dom_builder.AppendParsed(*parsed);
    } else {
      ++dom_parse_errors;
    }
    EXPECT_EQ(tape_st.ok(), parsed.ok()) << "record: " << r;
  }
  EXPECT_EQ(tape_builder.parse_errors(), dom_parse_errors);
  EXPECT_EQ(tape_builder.coercion_errors(), dom_builder.coercion_errors());
  const columnar::RecordBatch tape_batch = tape_builder.Finish();
  const columnar::RecordBatch dom_batch = dom_builder.Finish();
  ASSERT_EQ(tape_batch.num_rows(), dom_batch.num_rows());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    EXPECT_TRUE(tape_batch.column(c).Equals(dom_batch.column(c)))
        << "column " << schema.field(c).name << " diverged";
  }
}

TEST(TapeDifferentialTest, WorkloadCorporaLoadIdentically) {
  for (const auto kind :
       {workload::DatasetKind::kWinLog, workload::DatasetKind::kYelp,
        workload::DatasetKind::kYcsb}) {
    workload::GeneratorOptions gen;
    gen.num_records = 500;
    gen.seed = 11;
    const workload::Dataset ds = workload::GenerateDataset(kind, gen);
    ExpectIdenticalBatches(ds.schema, ds.records);
    for (const std::string& r : ds.records) {
      EXPECT_TRUE(AgreeOnAccept(r));
    }
  }
}

TEST(TapeDifferentialTest, EscapesAndUnicode) {
  const std::vector<std::string> inputs = {
      "{\"s\":\"plain\"}",
      "{\"s\":\"tab\\there\"}",
      "{\"s\":\"quote\\\"backslash\\\\slash\\/\"}",
      "{\"s\":\"\\b\\f\\n\\r\\t\"}",
      // \u escapes decoding to 1-, 2-, and 3-byte UTF-8.
      "{\"s\":\"\\u0041\\u00e9\\u20ac\"}",
      // Surrogate pair -> 4-byte UTF-8 (U+1F600).
      "{\"s\":\"\\ud83d\\ude00\"}",
      // Raw multibyte UTF-8 passes through untouched.
      "{\"s\":\"mixed \\u0041 and raw \xc3\xa9 and \\n\"}",
      // Escapes inside the key: decodes to plain "key".
      "{\"k\\u0065y\":\"escaped key\"}",
      "{\"s\":\"\"}",
      // NUL via escape.
      "{\"s\":\"nul\\u0000here\"}",
  };
  // Schema with one string column "s" (and "key" for the escaped-key
  // case, which decodes to a plain name).
  const columnar::Schema schema(
      {{"s", columnar::ColumnType::kString},
       {"key", columnar::ColumnType::kString}});
  ExpectIdenticalBatches(schema, inputs);
  for (const std::string& in : inputs) EXPECT_TRUE(AgreeOnAccept(in));
}

TEST(TapeDifferentialTest, NumbersIncludingOverflowFallback) {
  const std::vector<std::string> inputs = {
      R"({"n":0})",
      R"({"n":-0})",
      R"({"n":42})",
      R"({"n":-17})",
      R"({"n":3.25})",
      R"({"n":-0.5})",
      R"({"n":1e3})",
      R"({"n":1E-3})",
      R"({"n":2.5e+2})",
      R"({"n":9223372036854775807})",   // INT64_MAX stays int
      R"({"n":-9223372036854775808})",  // INT64_MIN stays int
      R"({"n":9223372036854775808})",   // overflow -> double on both paths
      R"({"n":-9223372036854775809})",
      R"({"n":1e308})",
      R"({"n":1e-320})",                // denormal accepted by both
  };
  for (const std::string& in : inputs) {
    ASSERT_TRUE(AgreeOnAccept(in));
    // Compare the numeric token against the oracle value exactly,
    // including the int-vs-double representation choice.
    Result<json::Value> oracle = json::Parse(in);
    TapeParser parser;
    Tape tape;
    ASSERT_TRUE(parser.Parse(in, &tape).ok());
    const size_t idx = tape.FindPath("n");
    ASSERT_NE(idx, Tape::npos) << in;
    const TapeToken& t = tape.token(idx);
    const json::Value* v = oracle->FindPath("n");
    ASSERT_NE(v, nullptr);
    if (v->is_int()) {
      ASSERT_EQ(t.kind, TapeKind::kInt) << in;
      EXPECT_EQ(t.i64, v->as_int()) << in;
    } else {
      ASSERT_EQ(t.kind, TapeKind::kDouble) << in;
      EXPECT_EQ(t.f64, v->as_double()) << in;
    }
  }
}

TEST(TapeDifferentialTest, MalformedInputsRejectIdentically) {
  const std::vector<std::string> inputs = {
      "",
      "   ",
      "{",
      "}",
      "{]",
      "[",
      "]",
      "[1,",
      "[1 2]",
      R"({"a")",
      R"({"a":})",
      R"({"a":1,})",
      R"({"a" 1})",
      R"({a:1})",
      R"({"a":1}})",
      R"([1,2,])",
      "tru",
      "falsex",
      "nul",
      "nulll",
      "\"unterminated",
      "\"dangling\\",
      R"("bad escape \q")",
      R"("bad hex \u12g4")",
      R"("truncated hex \u12")",
      R"("lone high \ud800")",
      R"("high then text \ud800abcd")",
      R"("bad low \ud800A")",
      R"("escaped non-low \ud800\u0041")",
      R"("lone low \udc00")",
      "\"raw\ncontrol\"",
      "\"raw\ttab\"",
      "01",
      "-",
      "-x",
      "1.",
      ".5",
      "1e",
      "1e+",
      "1ee4",
      "+1",
      "1e999",    // overflows double: rejected by both
      "-1e999",
      "1 2",      // trailing document
      "{} extra",
      "\xFF\xFE",
  };
  for (const std::string& in : inputs) {
    EXPECT_FALSE(AgreeOnAccept(in)) << "expected reject: " << in;
  }
}

TEST(TapeDifferentialTest, NestingDepthLimit) {
  // The innermost of N nested arrays sits at depth N-1, so 65 brackets
  // reach exactly max_depth (accepted by both) and 66 exceed it
  // (rejected by both).
  json::ParseOptions options;
  options.max_depth = 64;
  std::string ok_doc, too_deep;
  for (int i = 0; i < 65; ++i) ok_doc += "[";
  for (int i = 0; i < 65; ++i) ok_doc += "]";
  for (int i = 0; i < 66; ++i) too_deep += "[";
  for (int i = 0; i < 66; ++i) too_deep += "]";
  TapeParser parser(options);
  Tape tape;
  EXPECT_TRUE(json::Parse(ok_doc, options).ok());
  EXPECT_TRUE(parser.Parse(ok_doc, &tape).ok());
  EXPECT_FALSE(json::Parse(too_deep, options).ok());
  EXPECT_FALSE(parser.Parse(too_deep, &tape).ok());
}

TEST(TapeDifferentialTest, FindPathMirrorsValueFindPath) {
  const std::string record =
      R"({"a":{"b":{"c":7},"s":"x"},"a.b":"literal dot","dup":1,"dup":2,)"
      R"("arr":[1,{"k":2}],"n":null})";
  Result<json::Value> oracle = json::Parse(record);
  ASSERT_TRUE(oracle.ok());
  TapeParser parser;
  Tape tape;
  ASSERT_TRUE(parser.Parse(record, &tape).ok());
  std::string scratch;
  for (const std::string path :
       {"a", "a.b", "a.b.c", "a.s", "dup", "arr", "arr.k", "n", "missing",
        "a.missing", "a.b.c.d", "", "a."}) {
    const json::Value* v = oracle->FindPath(path);
    const size_t idx = tape.FindPath(path);
    EXPECT_EQ(v != nullptr, idx != Tape::npos) << "path: " << path;
    if (v == nullptr || idx == Tape::npos) continue;
    const TapeToken& t = tape.token(idx);
    if (v->is_int()) {
      EXPECT_EQ(t.i64, v->as_int()) << path;
    } else if (v->is_string()) {
      EXPECT_EQ(tape.DecodedString(t, &scratch), v->as_string()) << path;
    }
  }
  // "dup" resolves to the first occurrence on both paths.
  EXPECT_EQ(tape.token(tape.FindPath("dup")).i64, 1);
  EXPECT_EQ(oracle->FindPath("dup")->as_int(), 1);
}

TEST(TapeDifferentialTest, TapeNavigationSkipsContainers) {
  const std::string record =
      R"({"skip":[[1,2],{"x":[3]}],"after":"found"})";
  TapeParser parser;
  Tape tape;
  ASSERT_TRUE(parser.Parse(record, &tape).ok());
  const size_t idx = tape.FindField(0, "after");
  ASSERT_NE(idx, Tape::npos);
  std::string scratch;
  EXPECT_EQ(tape.DecodedString(tape.token(idx), &scratch), "found");
  // Root extent covers the whole tape.
  EXPECT_EQ(tape.token(0).extent, tape.size());
}

TEST(TapeDifferentialTest, ParsePrefixConsumedMatchesOracle) {
  const std::string stream = R"({"a":1}  {"b":2}trailing)";
  size_t oracle_consumed = 0, tape_consumed = 0;
  ASSERT_TRUE(json::ParsePrefix(stream, &oracle_consumed).ok());
  TapeParser parser;
  Tape tape;
  ASSERT_TRUE(parser.ParsePrefix(stream, &tape, &tape_consumed).ok());
  EXPECT_EQ(tape_consumed, oracle_consumed);
}

TEST(TapeDifferentialTest, MutationFuzzAgreesOnAcceptAndExtraction) {
  workload::GeneratorOptions gen;
  gen.num_records = 200;
  gen.seed = 23;
  const workload::Dataset ds =
      workload::GenerateDataset(workload::DatasetKind::kYelp, gen);
  Rng rng(0xDEAD);
  size_t accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string record = ds.records[rng.NextBounded(ds.records.size())];
    const int flips = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(record.size());
      record[pos] = static_cast<char>(rng.NextBounded(256));
    }
    if (AgreeOnAccept(record)) {
      ++accepted;
      ExpectIdenticalBatches(ds.schema, {record});
    }
  }
  // Sanity: the fuzz must exercise both accept and reject outcomes.
  EXPECT_GT(accepted, 0u);
}

TEST(TapeDifferentialTest, TapeReuseAcrossRecordsIsClean) {
  // A large record followed by a small one must not leak tokens.
  TapeParser parser;
  Tape tape;
  ASSERT_TRUE(
      parser.Parse(R"({"a":[1,2,3,4,5],"b":{"c":"dddddd"}})", &tape).ok());
  const size_t big = tape.size();
  ASSERT_TRUE(parser.Parse(R"({"z":1})", &tape).ok());
  EXPECT_LT(tape.size(), big);
  EXPECT_EQ(tape.token(tape.FindPath("z")).i64, 1);
  EXPECT_EQ(tape.FindPath("a"), Tape::npos);
}

// ---------------------------------------------------------------------
// The key map: BatchBuilder walks each record's keys once and must pull
// exactly the values Value::FindPath finds.

using columnar::ColumnType;
using columnar::Field;
using columnar::Schema;

/// Loads `records` through the tape path and returns the batch.
columnar::RecordBatch TapeBatch(const Schema& schema,
                                const std::vector<std::string>& records) {
  BatchBuilder builder(schema);
  for (const std::string& r : records) {
    EXPECT_TRUE(builder.AppendSerialized(r).ok()) << r;
  }
  return builder.Finish();
}

TEST(KeyMapTest, KeyShapesMatchTheOracle) {
  struct Shape {
    const char* what;
    std::vector<Field> fields;
    std::vector<std::string> records;
  };
  const std::vector<Shape> shapes = {
      {"escaped key decodes before the lookup",
       {{"name.first", ColumnType::kString}, {"key", ColumnType::kInt64}},
       {R"({"name":{"first":"x"}})", R"({"name":{"first":"y"}})",
        R"({"key":1,"key":2})", R"({"key":3})"}},
      {"first occurrence wins, a later duplicate is ignored",
       {{"a", ColumnType::kInt64}},
       {R"({"a":1,"a":2})", R"({"a":null,"a":2})", R"({"a":"s","a":2})",
        R"({"a":1,"a":2})"}},
      {"a path descends only into the first occurrence of its parent",
       {{"name.first", ColumnType::kString}},
       {R"({"name":1,"name":{"first":"x"}})",
        R"({"name":{"first":"x"},"name":{"first":"y"}})",
        R"({"name":{"last":"x"},"name":{"first":"y"}})",
        R"({"name":[{"first":"x"}],"name":{"first":"y"}})",
        R"({"name":null,"name":{"first":"y"}})"}},
      {"empty segments are kept",
       {{"a..b", ColumnType::kInt64},
        {"", ColumnType::kInt64},
        {"a.", ColumnType::kInt64},
        {".a", ColumnType::kInt64}},
       {R"({"a":{"":{"b":1}},"":2})", R"({"a":{"b":1}})", R"({"a":{"":3}})",
        R"({"":{"a":4}})", R"({"a.":5,".a":6,"a..b":7})"}},
      {"a literal dotted key never matches a path",
       {{"name.first", ColumnType::kString}, {"a.b.c", ColumnType::kInt64}},
       {R"({"name.first":"x"})", R"({"a.b":{"c":1}})", R"({"a":{"b.c":1}})",
        R"({"name.first":"x","name":{"first":"y"}})"}},
      {"a name can be both a leaf and a parent",
       {{"a", ColumnType::kString},
        {"a.b", ColumnType::kInt64},
        {"a.b.c", ColumnType::kInt64}},
       {R"({"a":"s"})", R"({"a":{"b":1}})", R"({"a":{"b":{"c":2}}})",
        R"({"a":{"b":{"c":2},"b":5}})"}},
      {"duplicate field names resolve alike",
       {{"x", ColumnType::kInt64},
        {"x", ColumnType::kDouble},
        {"y.z", ColumnType::kString},
        {"y.z", ColumnType::kString}},
       {R"({"x":1,"y":{"z":"s"}})", R"({"x":2.5})", R"({"y":{"z":1}})"}},
      {"a non-object root resolves nothing",
       {{"a", ColumnType::kInt64}, {"", ColumnType::kInt64}},
       {"[1]", "1", R"("a")", "null", "true", R"([{"a":1}])", "{}"}},
      {"keys with bytes >= 0x80 match byte for byte",
       {{"n\xc3\xa9.\xff", ColumnType::kInt64},
        {"\x80", ColumnType::kInt64}},
       {"{\"n\xc3\xa9\":{\"\xff\":1},\"\x80\":2}",
        R"({"né":{"ÿ":1},"\u0080":2})"}},
      {"escaped quotes, backslashes and slashes in keys",
       {{"q\"", ColumnType::kInt64},
        {"b\\", ColumnType::kInt64},
        {"s/", ColumnType::kInt64}},
       {R"({"q\"":1,"b\\":2,"s\/":3})", R"({"q"":4,"b\":5})"}},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.what);
    ExpectIdenticalBatches(Schema(shape.fields), shape.records);
  }
}

TEST(KeyMapTest, FirstOccurrenceRulesGiveTheseValues) {
  // The oracle above shares no code with the key map; these pin what it
  // answers, so a change to both at once still shows.
  const Schema schema({{"a", ColumnType::kInt64},
                       {"name.first", ColumnType::kString},
                       {"a..b", ColumnType::kInt64}});
  const columnar::RecordBatch batch = TapeBatch(
      schema, {R"({"a":1,"a":2,"name":1,"name":{"first":"x"}})",
               R"({"name":{"last":"x"},"name":{"first":"y"},"a":{"b":3}})",
               R"({"name":{"first":"z"},"a":{"":{"b":4}}})"});
  ASSERT_EQ(batch.num_rows(), 3u);
  const columnar::ColumnVector& a = batch.column(0);
  const columnar::ColumnVector& first = batch.column(1);
  const columnar::ColumnVector& ab = batch.column(2);
  EXPECT_TRUE(a.IsValid(0));
  EXPECT_EQ(a.GetInt64(0), 1);
  EXPECT_FALSE(first.IsValid(0));
  EXPECT_FALSE(first.IsValid(1));
  EXPECT_FALSE(ab.IsValid(1));
  ASSERT_TRUE(first.IsValid(2));
  EXPECT_EQ(first.GetString(2), "z");
  ASSERT_TRUE(ab.IsValid(2));
  EXPECT_EQ(ab.GetInt64(2), 4);
}

/// Writes `key` as a JSON string, escaping some ASCII bytes as \u00XX
/// (always '"' and '\\') and leaving bytes >= 0x80 raw.
std::string RenderKey(std::string_view key, Rng* rng) {
  std::string out = "\"";
  for (const char c : key) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\' || (u < 0x80 && rng->NextBounded(4) == 0)) {
      out += StrFormat("\\u%04x", u);
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

/// Segments the random schemas and records draw from: few enough that
/// paths share parents, collide as duplicates and are leaves and parents
/// at once; with an empty one, bytes >= 0x80 and bytes that need escapes.
const std::vector<std::string>& RandomSegments() {
  static const std::vector<std::string> segments = {
      "", "a", "b", "ab", "name", "first", "n\xc3\xa9", "\xff\x80", "q\"",
      "x\\y"};
  return segments;
}

std::string RandomValue(Rng* rng, int depth);

/// A random object: 0–7 keys from RandomSegments (some repeated, some
/// escaped, now and then a key outside them or a literal dotted key) in
/// random order.
std::string RandomObject(Rng* rng, int depth) {
  const std::vector<std::string>& segments = RandomSegments();
  std::string out = "{";
  const size_t keys = rng->NextBounded(8);
  for (size_t i = 0; i < keys; ++i) {
    if (i > 0) out += ",";
    std::string key = segments[rng->NextBounded(segments.size())];
    switch (rng->NextBounded(10)) {
      case 0:
        key = "zz";
        break;
      case 1:
        key += "." + segments[rng->NextBounded(segments.size())];
        break;
      default:
        break;
    }
    out += RenderKey(key, rng) + ":" + RandomValue(rng, depth + 1);
  }
  return out + "}";
}

std::string RandomValue(Rng* rng, int depth) {
  // Objects are likelier near the root so that paths resolve often.
  const uint64_t pick = rng->NextBounded(depth < 3 ? 12 : 8);
  switch (pick) {
    case 0:
      return "null";
    case 1:
      return rng->NextBool() ? "true" : "false";
    case 2:
      return std::to_string(rng->NextInt(-1000000, 1000000));
    case 3:
      return StrFormat("%.6g", rng->NextGaussian() * 1e6);
    case 4:
      return "\"s" + std::to_string(rng->NextBounded(100)) + "\"";
    case 5:
      return R"("esc\né")";
    case 6:
      return "[" + RandomValue(rng, depth + 1) + "]";
    default:
      return RandomObject(rng, depth);
  }
}

TEST(KeyMapTest, RandomSchemasAndRecordsMatchTheOracle) {
  const std::vector<std::string>& segments = RandomSegments();
  Rng rng(0x4B45594DULL);
  for (int round = 0; round < 300; ++round) {
    std::vector<Field> fields;
    const size_t num_fields = 1 + rng.NextBounded(300);
    for (size_t f = 0; f < num_fields; ++f) {
      std::string name = segments[rng.NextBounded(segments.size())];
      const size_t depth = 1 + rng.NextBounded(3);
      for (size_t d = 1; d < depth; ++d) {
        name += "." + segments[rng.NextBounded(segments.size())];
      }
      fields.push_back(
          Field{std::move(name), static_cast<ColumnType>(rng.NextBounded(4))});
    }
    std::vector<std::string> records;
    for (int r = 0; r < 40; ++r) {
      records.push_back(rng.NextBounded(10) == 0 ? RandomValue(&rng, 3)
                                                 : RandomObject(&rng, 0));
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectIdenticalBatches(Schema(std::move(fields)), records);
    if (HasFailure()) return;
  }
}

uint64_t Fnv1a64(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(KeyMapTest, TableWriterFilesArePinned) {
  // Size and FNV-1a of the segment files that 1,000 seed-1 records of
  // each dataset make, in 500-record chunks without annotations, so any
  // change to what the loader extracts shows here as bytes. (A whole-file
  // CRC-32 would not: each row group ends with the CRC of its own bytes.)
  struct Pin {
    workload::DatasetKind kind;
    size_t bytes;
    uint64_t fnv;
  };
  const Pin pins[] = {
      {workload::DatasetKind::kYcsb, 294176, 0x2bbaa2677c8d1173ULL},
      {workload::DatasetKind::kWinLog, 146746, 0xae1ac09e28db8c67ULL},
      {workload::DatasetKind::kYelp, 414688, 0x08f1a47c62928e4aULL},
  };
  for (const Pin& pin : pins) {
    workload::GeneratorOptions gen;
    gen.num_records = 1000;
    gen.seed = 1;
    const workload::Dataset ds = workload::GenerateDataset(pin.kind, gen);
    size_t bytes = 0;
    uint64_t fnv = 0xcbf29ce484222325ULL;
    for (const json::JsonChunk& chunk :
         json::SplitIntoChunks(ds.records, 500)) {
      BatchBuilder builder(ds.schema);
      for (size_t i = 0; i < chunk.size(); ++i) {
        ASSERT_TRUE(builder.AppendSerialized(chunk.Record(i)).ok());
      }
      columnar::TableWriter writer(ds.schema);
      ASSERT_TRUE(writer.AppendRowGroup(builder.Finish(), BitVectorSet()).ok());
      const std::string file = std::move(writer).Finish();
      bytes += file.size();
      fnv = Fnv1a64(file, fnv);
    }
    EXPECT_EQ(bytes, pin.bytes) << ds.name;
    EXPECT_EQ(fnv, pin.fnv) << ds.name;
  }
}

// ---------------------------------------------------------------------
// Scanner edges: the integer, from_chars and word-skip paths must keep
// every verdict and value of the oracle.

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Parses the bare number `text` with both parsers and expects the same
/// verdict and, when accepted, the same kind and the same bits.
void ExpectSameNumber(const std::string& text) {
  const Result<json::Value> oracle = json::Parse(text);
  TapeParser parser;
  Tape tape;
  const Status st = parser.Parse(text, &tape);
  ASSERT_EQ(st.ok(), oracle.ok()) << text;
  if (!st.ok()) return;
  const TapeToken& t = tape.token(0);
  if (oracle->is_int()) {
    ASSERT_EQ(t.kind, TapeKind::kInt) << text;
    EXPECT_EQ(t.i64, oracle->as_int()) << text;
  } else {
    ASSERT_EQ(t.kind, TapeKind::kDouble) << text;
    EXPECT_EQ(Bits(t.f64), Bits(oracle->as_double())) << text;
  }
}

TEST(ScannerEdgeTest, IntegersAroundTheExactDigitLimit) {
  for (const std::string text :
       {"0", "-0", "7", "-7", "999999999999999999", "-999999999999999999",
        "100000000000000000", "-100000000000000000", "1000000000000000000",
        "-1000000000000000000", "9999999999999999999", "-9999999999999999999",
        "9223372036854775806", "9223372036854775807", "9223372036854775808",
        "-9223372036854775807", "-9223372036854775808",
        "-9223372036854775809", "123456789012345678", "-123456789012345678",
        "1234567890123456789", "12345678901234567890123"}) {
    ExpectSameNumber(text);
  }
  TapeParser parser;
  Tape tape;
  ASSERT_TRUE(parser.Parse("-999999999999999999", &tape).ok());
  EXPECT_EQ(tape.token(0).kind, TapeKind::kInt);
  EXPECT_EQ(tape.token(0).i64, -999999999999999999LL);
  ASSERT_TRUE(parser.Parse("-9223372036854775808", &tape).ok());
  EXPECT_EQ(tape.token(0).i64, INT64_MIN);
  ASSERT_TRUE(parser.Parse("9223372036854775808", &tape).ok());
  EXPECT_EQ(tape.token(0).kind, TapeKind::kDouble);
}

TEST(ScannerEdgeTest, UnderflowIsASignedZeroAndOverflowIsRejected) {
  for (const std::string text :
       {"1e-400", "-1e-400", "1e400", "-1e400", "-0.0", "0.0", "-0e5",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "4.9406564584124654e-324", "1.7976931348623157e308",
        "1.7976931348623159e308", "-1.7976931348623159e308"}) {
    ExpectSameNumber(text);
  }
  TapeParser parser;
  Tape tape;
  ASSERT_TRUE(parser.Parse("1e-400", &tape).ok());
  EXPECT_EQ(Bits(tape.token(0).f64), Bits(0.0));
  ASSERT_TRUE(parser.Parse("-1e-400", &tape).ok());
  EXPECT_EQ(Bits(tape.token(0).f64), Bits(-0.0));
  ASSERT_TRUE(parser.Parse("-0.0", &tape).ok());
  EXPECT_TRUE(std::signbit(tape.token(0).f64));
  EXPECT_FALSE(parser.Parse("1e400", &tape).ok());
  EXPECT_FALSE(parser.Parse("-1e400", &tape).ok());
}

TEST(ScannerEdgeTest, RandomDoublesConvertBitForBit) {
  Rng rng(0xD0B1EULL);
  for (int i = 0; i < 100000; ++i) {
    // 1–20 significant digits, the point anywhere, exponents over the
    // whole range and past it at both ends.
    const size_t digits = 1 + rng.NextBounded(20);
    std::string mantissa;
    for (size_t d = 0; d < digits; ++d) {
      mantissa.push_back(static_cast<char>(
          '0' + (d == 0 ? 1 + rng.NextBounded(9) : rng.NextBounded(10))));
    }
    std::string text = rng.NextBool() ? "-" : "";
    const size_t point = rng.NextBounded(digits);
    if (point == 0 && rng.NextBool()) {
      text += "0." + std::string(rng.NextBounded(5), '0') + mantissa;
    } else {
      text += mantissa.substr(0, point + 1);
      if (point + 1 < digits) text += "." + mantissa.substr(point + 1);
    }
    if (rng.NextBounded(8) != 0) {
      text += StrFormat("e%lld",
                        static_cast<long long>(rng.NextInt(-345, 310)));
    }
    ExpectSameNumber(text);
    if (HasFailure()) return;
  }
}

TEST(ScannerEdgeTest, NearHalfwayDoublesConvertBitForBit) {
  // The midpoint of two neighbouring doubles (exact in long double where
  // it has 64 mantissa bits), printed short of it, past it and exactly.
  Rng rng(0x4A1FULL);
  for (int i = 0; i < 5000; ++i) {
    uint64_t bits = rng.Next() & 0x7FEFFFFFFFFFFFFFULL;  // finite
    if (i % 4 == 0) bits &= 0x000FFFFFFFFFFFFFULL;       // subnormal
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    const long double mid =
        (static_cast<long double>(d) +
         static_cast<long double>(std::nextafter(d, INFINITY))) /
        2;
    for (const int precision : {16, 17, 18, 20, 25, 40, 800}) {
      ExpectSameNumber(StrFormat("%.*Le", precision, mid));
      ExpectSameNumber(StrFormat("-%.*Le", precision, mid));
    }
    if (HasFailure()) return;
  }
}

TEST(ScannerEdgeTest, SpecialBytesAtEveryOffsetOfAString) {
  std::vector<char> specials = {'"', '\\', '\x7f', '\x80', '\xff'};
  for (int c = 0; c < 0x20; ++c) specials.push_back(static_cast<char>(c));
  const Schema schema({{"s", ColumnType::kString}});
  for (const char special : specials) {
    for (size_t offset = 0; offset < 18; ++offset) {
      std::string body(24, 'x');
      body[offset] = special;
      const std::string bare = "\"" + body + "\"";
      const std::string nested = "{\"s\":\"" + body + "\"}";
      const std::string escaped = "{\"s\":\"" + body.substr(0, offset) +
                                  "\\n" + body.substr(offset) + "\"}";
      for (const std::string& doc : {bare, nested, escaped}) {
        const Result<json::Value> oracle = json::Parse(doc);
        TapeParser parser;
        Tape tape;
        const Status st = parser.Parse(doc, &tape);
        ASSERT_EQ(st.ok(), oracle.ok())
            << "byte " << static_cast<int>(special) << " at " << offset;
        if (!st.ok()) {
          EXPECT_EQ(st.message(), oracle.status().message()) << doc;
        }
        ExpectIdenticalBatches(schema, {doc});
      }
    }
  }
}

TEST(ScannerEdgeTest, UnterminatedStringsEndingAtEveryOffset) {
  for (size_t n = 0; n < 40; ++n) {
    const std::string body(n, 'x');
    for (const std::string& doc :
         {"\"" + body, "{\"s\":\"" + body, "\"" + body + "\\",
          "[\"" + body + "\\u00"}) {
      const Result<json::Value> oracle = json::Parse(doc);
      TapeParser parser;
      Tape tape;
      const Status st = parser.Parse(doc, &tape);
      ASSERT_FALSE(oracle.ok()) << doc;
      ASSERT_FALSE(st.ok()) << doc;
      EXPECT_EQ(st.message(), oracle.status().message()) << doc;
    }
  }
}

TEST(ScannerEdgeTest, ErrorMessagesArePinned) {
  // Text and offset of each rejection. The fast paths (integer
  // accumulation, from_chars, the word skip) must leave both as they are.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"",
       "JSON parse error at offset 0: unexpected end of input"},
      {"   ",
       "JSON parse error at offset 3: unexpected end of input"},
      {"{",
       "JSON parse error at offset 1: expected '\"'"},
      {"}",
       "JSON parse error at offset 0: invalid number"},
      {"{]",
       "JSON parse error at offset 1: expected '\"'"},
      {"[",
       "JSON parse error at offset 1: unexpected end of input"},
      {"]",
       "JSON parse error at offset 0: invalid number"},
      {"[1,",
       "JSON parse error at offset 3: unexpected end of input"},
      {"[1 2]",
       "JSON parse error at offset 3: expected ',' or ']' in array"},
      {"{\"a\"",
       "JSON parse error at offset 4: expected ':'"},
      {"{\"a\":}",
       "JSON parse error at offset 5: invalid number"},
      {"{\"a\":1,}",
       "JSON parse error at offset 7: expected '\"'"},
      {"{\"a\" 1}",
       "JSON parse error at offset 5: expected ':'"},
      {"{a:1}",
       "JSON parse error at offset 1: expected '\"'"},
      {"{\"a\":1}}",
       "JSON parse error at offset 7: trailing characters after JSON value"},
      {"[1,2,]",
       "JSON parse error at offset 5: invalid number"},
      {"tru",
       "JSON parse error at offset 0: invalid literal"},
      {"falsex",
       "JSON parse error at offset 5: trailing characters after JSON value"},
      {"nul",
       "JSON parse error at offset 0: invalid literal"},
      {"nulll",
       "JSON parse error at offset 4: trailing characters after JSON value"},
      {"\"unterminated",
       "JSON parse error at offset 13: unterminated string"},
      {"\"dangling\\",
       "JSON parse error at offset 10: dangling escape at end of string"},
      {"\"bad escape \\q\"",
       "JSON parse error at offset 14: invalid escape character"},
      {"\"bad hex \\u12g4\"",
       "JSON parse error at offset 11: invalid hex digit in \\u escape"},
      {"\"truncated hex \\u12\"",
       "JSON parse error at offset 17: truncated \\u escape"},
      {"\"lone high \\ud800\"",
       "JSON parse error at offset 17: unpaired high surrogate"},
      {"\"high then text \\ud800abcd\"",
       "JSON parse error at offset 22: unpaired high surrogate"},
      {"\"bad low \\ud800A\"",
       "JSON parse error at offset 15: unpaired high surrogate"},
      {"\"escaped non-low \\ud800\\u0041\"",
       "JSON parse error at offset 29: invalid low surrogate"},
      {"\"lone low \\udc00\"",
       "JSON parse error at offset 16: unpaired low surrogate"},
      {"\"raw\x0a""control\"",
       "JSON parse error at offset 5: raw control character in string"},
      {"\"raw\x09""tab\"",
       "JSON parse error at offset 5: raw control character in string"},
      {"01",
       "JSON parse error at offset 1: leading zero in number"},
      {"-",
       "JSON parse error at offset 1: invalid number"},
      {"-x",
       "JSON parse error at offset 1: invalid number"},
      {"1.",
       "JSON parse error at offset 2: digit required after decimal point"},
      {".5",
       "JSON parse error at offset 0: invalid number"},
      {"1e",
       "JSON parse error at offset 2: digit required in exponent"},
      {"1e+",
       "JSON parse error at offset 3: digit required in exponent"},
      {"1ee4",
       "JSON parse error at offset 2: digit required in exponent"},
      {"+1",
       "JSON parse error at offset 0: invalid number"},
      {"1e999",
       "JSON parse error at offset 5: number out of range"},
      {"-1e999",
       "JSON parse error at offset 6: number out of range"},
      {"1e400",
       "JSON parse error at offset 5: number out of range"},
      {"-1e400",
       "JSON parse error at offset 6: number out of range"},
      {"1 2",
       "JSON parse error at offset 2: trailing characters after JSON value"},
      {"{} extra",
       "JSON parse error at offset 3: trailing characters after JSON value"},
      {"\xff""\xfe""",
       "JSON parse error at offset 0: invalid number"},
      {"{\"a\":[1,2,{\"b\":\"long string body here\x01""\"}]}",
       "JSON parse error at offset 38: raw control character in string"},
      {"{\"k\":\"0123456789abcdef\\",
       "JSON parse error at offset 23: dangling escape at end of string"},
      {"{\"k\":-01}",
       "JSON parse error at offset 7: leading zero in number"},
      {"{\"k\":1.5e}",
       "JSON parse error at offset 9: digit required in exponent"},
      {"[-]",
       "JSON parse error at offset 2: invalid number"},
      {"{\"a\":1 \"b\":2}",
       "JSON parse error at offset 7: expected ',' or '}' in object"},
      {"[\"x\" \"y\"]",
       "JSON parse error at offset 5: expected ',' or ']' in array"},
      {"{\"a\":tru}",
       "JSON parse error at offset 5: invalid literal"},
      {"{\"a\":\"\\uD83D\"}",
       "JSON parse error at offset 12: unpaired high surrogate"},
      {"{\"a\":\"\\uDE00\"}",
       "JSON parse error at offset 12: unpaired low surrogate"},
      {"{\"a\":\"abcdefghijklmnop\\uZZZZ\"}",
       "JSON parse error at offset 24: invalid hex digit in \\u escape"},
      {"{\"a\":99999999999999999999e99999}",
       "JSON parse error at offset 31: number out of range"},
      {std::string(70, '[') + std::string(70, ']'),
       "JSON parse error at offset 65: max nesting depth exceeded"},
  };
  TapeParser parser;
  Tape tape;
  for (const auto& [input, message] : cases) {
    const Status st = parser.Parse(input, &tape);
    ASSERT_FALSE(st.ok()) << input;
    EXPECT_EQ(st.message(), message) << input;
  }
}

}  // namespace
}  // namespace ciao
