#include <gtest/gtest.h>

#include "common/random.h"
#include "json/chunk.h"
#include "json/parser.h"
#include "json/value.h"
#include "json/writer.h"

namespace ciao::json {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
  EXPECT_TRUE(Value(int64_t{5}).is_number());
  EXPECT_TRUE(Value(2.5).is_number());
  EXPECT_EQ(Value(int64_t{5}).AsNumber(), 5.0);
  EXPECT_EQ(Value(2.5).AsNumber(), 2.5);
}

TEST(ValueTest, FindAndFindPath) {
  Value nested{Object{}};
  nested.Add("city", "springfield");
  Value rec{Object{}};
  rec.Add("name", "bob");
  rec.Add("address", std::move(nested));

  ASSERT_NE(rec.Find("name"), nullptr);
  EXPECT_EQ(rec.Find("name")->as_string(), "bob");
  EXPECT_EQ(rec.Find("missing"), nullptr);
  ASSERT_NE(rec.FindPath("address.city"), nullptr);
  EXPECT_EQ(rec.FindPath("address.city")->as_string(), "springfield");
  EXPECT_EQ(rec.FindPath("address.zip"), nullptr);
  EXPECT_EQ(rec.FindPath("name.x"), nullptr);  // name is not an object
}

TEST(ValueTest, EqualityIsTypeStrict) {
  EXPECT_EQ(Value(int64_t{2}), Value(int64_t{2}));
  EXPECT_FALSE(Value(int64_t{2}) == Value(2.0));
}

// ---------- Parser: scalars ----------

TEST(ParserTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_EQ(Parse("true")->as_bool(), true);
  EXPECT_EQ(Parse("false")->as_bool(), false);
  EXPECT_EQ(Parse("42")->as_int(), 42);
  EXPECT_EQ(Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(Parse("2.5")->as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Parse("1e3")->as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Parse("-2.5e-2")->as_double(), -0.025);
  EXPECT_EQ(Parse("\"hi\"")->as_string(), "hi");
}

TEST(ParserTest, IntVsDoubleDiscrimination) {
  EXPECT_TRUE(Parse("7")->is_int());
  EXPECT_TRUE(Parse("7.0")->is_double());
  EXPECT_TRUE(Parse("7e0")->is_double());
  // int64 overflow falls back to double.
  EXPECT_TRUE(Parse("99999999999999999999")->is_double());
}

TEST(ParserTest, NumberEdgeCases) {
  EXPECT_EQ(Parse("0")->as_int(), 0);
  EXPECT_EQ(Parse("-0")->as_int(), 0);
  EXPECT_FALSE(Parse("01").ok());       // leading zero
  EXPECT_FALSE(Parse("1.").ok());       // digit required after '.'
  EXPECT_FALSE(Parse(".5").ok());       // must start with digit
  EXPECT_FALSE(Parse("1e").ok());       // digit required in exponent
  EXPECT_FALSE(Parse("+1").ok());       // no leading plus
  EXPECT_FALSE(Parse("1e999").ok());    // overflow to inf rejected
}

TEST(ParserTest, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\"b")")->as_string(), "a\"b");
  EXPECT_EQ(Parse(R"("a\\b")")->as_string(), "a\\b");
  EXPECT_EQ(Parse(R"("a\/b")")->as_string(), "a/b");
  EXPECT_EQ(Parse(R"("a\nb\tc\rd\be\ff")")->as_string(),
            "a\nb\tc\rd\be\ff");
  EXPECT_EQ(Parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(Parse(R"("é")")->as_string(), "\xC3\xA9");        // é
  EXPECT_EQ(Parse(R"("中")")->as_string(), "\xE4\xB8\xAD");    // 中
  // Surrogate pair -> U+1F600.
  EXPECT_EQ(Parse(R"("😀")")->as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(ParserTest, BadStrings) {
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("\"bad\\x\"").ok());
  EXPECT_FALSE(Parse("\"\\u12G4\"").ok());
  EXPECT_FALSE(Parse("\"\\ud83d\"").ok());          // unpaired high surrogate
  EXPECT_FALSE(Parse("\"\\ude00\"").ok());          // unpaired low surrogate
  EXPECT_FALSE(Parse("\"raw\nnewline\"").ok());     // control char
}

// ---------- Parser: composites ----------

TEST(ParserTest, ObjectsAndArrays) {
  auto v = Parse(R"({"a":1,"b":[true,null,"x"],"c":{"d":2.5}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("a")->as_int(), 1);
  const Array& arr = v->Find("b")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].as_string(), "x");
  EXPECT_DOUBLE_EQ(v->FindPath("c.d")->as_double(), 2.5);
}

TEST(ParserTest, WhitespaceTolerance) {
  auto v = Parse("  {  \"a\" :\t[ 1 , 2 ]\n}  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("a")->as_array().size(), 2u);
}

TEST(ParserTest, EmptyContainers) {
  EXPECT_TRUE(Parse("{}")->as_object().empty());
  EXPECT_TRUE(Parse("[]")->as_array().empty());
}

TEST(ParserTest, PreservesKeyOrder) {
  auto v = Parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(v.ok());
  const Object& obj = v->as_object();
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
}

TEST(ParserTest, MalformedComposites) {
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("{\"a\":}").ok());
  EXPECT_FALSE(Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(Parse("[1,2").ok());
  EXPECT_FALSE(Parse("[1 2]").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{1:2}").ok());
}

TEST(ParserTest, TrailingGarbageRejectedUnlessAllowed) {
  EXPECT_FALSE(Parse("1 2").ok());
  ParseOptions opts;
  opts.allow_trailing = true;
  EXPECT_TRUE(Parse("1 2", opts).ok());
}

TEST(ParserTest, DepthLimitGuardsRecursion) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(Parse(deep).ok());  // default max_depth 64
  ParseOptions opts;
  opts.max_depth = 200;
  EXPECT_TRUE(Parse(deep, opts).ok());
}

TEST(ParserTest, ErrorsCarryOffset) {
  auto r = Parse("{\"a\":tru}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, ParsePrefixReportsConsumed) {
  size_t consumed = 0;
  auto v = ParsePrefix("{\"a\":1}   trailing", &consumed);
  ASSERT_TRUE(v.ok());
  // Consumes the value plus trailing whitespace scan position.
  EXPECT_GE(consumed, 7u);
  EXPECT_EQ(v->Find("a")->as_int(), 1);
}

// ---------- Writer ----------

TEST(WriterTest, CompactCanonicalForm) {
  Value rec{Object{}};
  rec.Add("name", "Bob");
  rec.Add("age", int64_t{22});
  rec.Add("tags", Value(Array{Value("a"), Value(int64_t{1})}));
  EXPECT_EQ(Write(rec), R"({"name":"Bob","age":22,"tags":["a",1]})");
}

TEST(WriterTest, Escaping) {
  EXPECT_EQ(Write(Value("a\"b\\c\nd")), R"("a\"b\\c\nd")");
  EXPECT_EQ(Write(Value(std::string("ctrl\x01"))), "\"ctrl\\u0001\"");
}

TEST(WriterTest, Scalars) {
  EXPECT_EQ(Write(Value()), "null");
  EXPECT_EQ(Write(Value(true)), "true");
  EXPECT_EQ(Write(Value(int64_t{-5})), "-5");
  EXPECT_EQ(Write(Value(2.5)), "2.5");
  // Integral doubles keep a ".0" so the int/double distinction survives
  // a round trip.
  EXPECT_EQ(Write(Value(34.0)), "34.0");
  EXPECT_TRUE(Parse(Write(Value(34.0)))->is_double());
}

TEST(WriterTest, RoundTripRandomValues) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    Value rec{Object{}};
    rec.Add("i", rng.NextInt(-1000000, 1000000));
    rec.Add("b", rng.NextBool());
    rec.Add("s", rng.NextIdentifier(static_cast<int>(rng.NextInt(0, 20))));
    rec.Add("d", static_cast<double>(rng.NextInt(-1000, 1000)) / 8.0);
    Array arr;
    for (int i = 0; i < 3; ++i) arr.emplace_back(rng.NextInt(0, 9));
    rec.Add("arr", Value(std::move(arr)));

    const std::string text = Write(rec);
    auto parsed = Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(*parsed, rec) << text;
    EXPECT_EQ(Write(*parsed), text);
  }
}

TEST(WriterTest, RoundTripEscapedStrings) {
  const std::string nasty = "q\"w\\e\nr\tt\x01 y\xC3\xA9z";
  const std::string text = Write(Value(nasty));
  auto parsed = Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), nasty);
}

// ---------- JsonChunk ----------

TEST(ChunkTest, AppendAndIndex) {
  JsonChunk chunk;
  chunk.AppendSerialized(R"({"a":1})");
  chunk.AppendSerialized(R"({"b":2})");
  Value v{Object{}};
  v.Add("c", int64_t{3});
  chunk.AppendValue(v);

  ASSERT_EQ(chunk.size(), 3u);
  EXPECT_EQ(chunk.Record(0), R"({"a":1})");
  EXPECT_EQ(chunk.Record(2), R"({"c":3})");
  EXPECT_EQ(chunk.data().back(), '\n');
  EXPECT_GT(chunk.MeanRecordLength(), 0.0);
}

TEST(ChunkTest, NdjsonRoundTrip) {
  JsonChunk chunk;
  chunk.AppendSerialized(R"({"a":1})");
  chunk.AppendSerialized(R"({"b":"x"})");
  auto decoded = JsonChunk::FromNdjson(chunk.data());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ(decoded->Record(0), chunk.Record(0));
  EXPECT_EQ(decoded->Record(1), chunk.Record(1));
}

TEST(ChunkTest, NdjsonRejectsUnterminated) {
  EXPECT_FALSE(JsonChunk::FromNdjson("{\"a\":1}").ok());
  EXPECT_TRUE(JsonChunk::FromNdjson("").ok());
}

TEST(ChunkTest, NdjsonFramingEdgeCases) {
  struct Case {
    std::string buffer;
    std::vector<std::pair<uint32_t, uint32_t>> records;  // offset, length
  };
  const std::vector<Case> cases = {
      {"", {}},
      {"\n", {{0, 0}}},
      {"\n\n", {{0, 0}, {1, 0}}},
      {"a\r\n\rb\n", {{0, 2}, {3, 2}}},
      {"\x80\xff\n\n{\"k\":\"\xc3\xa9\"}\n", {{0, 2}, {3, 0}, {4, 10}}},
      {std::string(20, 'x') + "\n" + std::string(7, 'y') + "\n",
       {{0, 20}, {21, 7}}},
  };
  for (const Case& c : cases) {
    auto chunk = JsonChunk::FromNdjson(c.buffer);
    ASSERT_TRUE(chunk.ok());
    ASSERT_EQ(chunk->size(), c.records.size());
    for (size_t i = 0; i < c.records.size(); ++i) {
      const std::string_view record = chunk->Record(i);
      EXPECT_EQ(record.data() - chunk->data().data(), c.records[i].first);
      EXPECT_EQ(record.size(), c.records[i].second);
    }
  }
  for (const std::string unterminated : {"x", "\n\r", "a\nb", "\n\x80"}) {
    const auto chunk = JsonChunk::FromNdjson(unterminated);
    ASSERT_FALSE(chunk.ok());
    EXPECT_EQ(chunk.status().code(), StatusCode::kCorruption);
  }
}

TEST(ChunkTest, SplitIntoChunks) {
  std::vector<std::string> records;
  for (int i = 0; i < 10; ++i) records.push_back("{\"i\":" + std::to_string(i) + "}");
  const auto chunks = SplitIntoChunks(records, 4);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].size(), 4u);
  EXPECT_EQ(chunks[2].size(), 2u);
  EXPECT_EQ(chunks[2].Record(1), records[9]);
  // chunk_size 0 coerced to 1.
  EXPECT_EQ(SplitIntoChunks(records, 0).size(), 10u);
}

TEST(ChunkTest, EmptyChunk) {
  JsonChunk chunk;
  EXPECT_TRUE(chunk.empty());
  EXPECT_EQ(chunk.MeanRecordLength(), 0.0);
  EXPECT_EQ(chunk.ByteSize(), 0u);
}

}  // namespace
}  // namespace ciao::json
