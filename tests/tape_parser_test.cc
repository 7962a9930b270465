// Differential suite: the tape parser's accept/reject behavior and every
// extracted field must agree with the json::Parse DOM oracle — over the
// workload corpora, escape/unicode/number torture cases, malformed-input
// families, and byte-mutation fuzzing. The tape path is the loader's
// default, so this suite is what licenses it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "columnar/json_converter.h"
#include "common/random.h"
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

}  // namespace
}  // namespace ciao
