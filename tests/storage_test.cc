#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "columnar/file_reader.h"
#include "common/random.h"
#include "json/parser.h"
#include "predicate/semantic_eval.h"
#include "storage/catalog.h"
#include "storage/jit_loader.h"
#include "storage/partial_loader.h"
#include "storage/raw_store.h"
#include "storage/transport.h"
#include "workload/dataset.h"

namespace ciao {
namespace {

// ---------- RawStore ----------

TEST(RawStoreTest, AppendAndRead) {
  RawStore store;
  EXPECT_TRUE(store.empty());
  store.Append(R"({"a":1})");
  store.Append(R"({"b":2})");
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Record(0), R"({"a":1})");
  EXPECT_EQ(store.Record(1), R"({"b":2})");
  EXPECT_EQ(store.byte_size(), 14u);
}

// ---------- ChunkMessage ----------

json::JsonChunk MakeChunk(const std::vector<std::string>& records) {
  json::JsonChunk chunk;
  for (const auto& r : records) chunk.AppendSerialized(r);
  return chunk;
}

TEST(ChunkMessageTest, SerializeRoundTrip) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})", R"({"a":2})", R"({"a":3})"});
  msg.predicate_ids = {0, 2};
  msg.annotations = BitVectorSet(2, 3);
  msg.annotations.mutable_vector(0)->Set(1, true);
  msg.annotations.mutable_vector(1)->Set(2, true);

  std::string payload;
  msg.SerializeTo(&payload);
  auto decoded = ChunkMessage::Deserialize(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->chunk.size(), 3u);
  EXPECT_EQ(decoded->chunk.Record(1), R"({"a":2})");
  EXPECT_EQ(decoded->predicate_ids, msg.predicate_ids);
  EXPECT_TRUE(decoded->annotations == msg.annotations);
}

TEST(ChunkMessageTest, DeserializeRejectsGarbage) {
  EXPECT_TRUE(ChunkMessage::Deserialize("XXXX").status().IsCorruption());
  EXPECT_TRUE(ChunkMessage::Deserialize("").status().IsCorruption());

  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})"});
  msg.predicate_ids = {0};
  msg.annotations = BitVectorSet(1, 1);
  std::string payload;
  msg.SerializeTo(&payload);
  EXPECT_TRUE(ChunkMessage::Deserialize(payload.substr(0, payload.size() - 3))
                  .status()
                  .IsCorruption());
}

TEST(ChunkMessageTest, ExpandAnnotationsConservative) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})", R"({"a":2})"});
  msg.predicate_ids = {1};  // evaluated only registry id 1
  msg.annotations = BitVectorSet(1, 2);
  msg.annotations.mutable_vector(0)->Set(0, true);

  auto expanded = msg.ExpandAnnotations(3);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->num_predicates(), 3u);
  // Unevaluated predicates 0 and 2: all ones ("maybe").
  EXPECT_TRUE(expanded->vector(0).All());
  EXPECT_TRUE(expanded->vector(2).All());
  // Evaluated predicate 1: the client's exact bits.
  EXPECT_TRUE(expanded->vector(1).Get(0));
  EXPECT_FALSE(expanded->vector(1).Get(1));

  EXPECT_TRUE(msg.ExpandAnnotations(1).status().IsOutOfRange());
}

// ---------- ChunkMessage: evaluated-predicate mask (wire format v2) ----

TEST(ChunkMessageTest, MaskRoundTripsWithTotalPredicates) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})", R"({"a":2})", R"({"a":3})"});
  msg.total_predicates = 5;
  msg.predicate_ids = {1, 3};
  msg.annotations = BitVectorSet(2, 3);
  msg.annotations.mutable_vector(0)->Set(0, true);
  msg.annotations.mutable_vector(1)->Set(2, true);

  std::string payload;
  msg.SerializeTo(&payload);
  EXPECT_EQ(payload.substr(0, 4), "CMG2");
  auto decoded = ChunkMessage::Deserialize(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->total_predicates, 5u);
  EXPECT_EQ(decoded->predicate_ids, msg.predicate_ids);
  EXPECT_TRUE(decoded->annotations == msg.annotations);
  EXPECT_EQ(decoded->MissingIds(5), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_TRUE(decoded->MissingIds(0).empty());
}

TEST(ChunkMessageTest, LegacyMasklessMessageIsCorruption) {
  // Hand-build a v1 "CMSG" frame (no total_predicates field) the way the
  // pre-mask serializer did: v1 is retired, so it must not decode.
  const std::string ndjson = "{\"a\":1}\n{\"a\":2}\n";
  std::string payload = "CMSG";
  const auto put_u32 = [&payload](uint32_t v) {
    payload.append(reinterpret_cast<const char*>(&v), 4);
  };
  put_u32(1);  // n_ids
  put_u32(2);  // the single evaluated id
  const uint64_t len = ndjson.size();
  payload.append(reinterpret_cast<const char*>(&len), 8);
  payload.append(ndjson);
  BitVectorSet annotations(1, 2);
  annotations.mutable_vector(0)->Set(1, true);
  annotations.SerializeTo(&payload);

  EXPECT_TRUE(ChunkMessage::Deserialize(payload).status().IsCorruption());
}

TEST(ChunkMessageTest, EveryTruncationOfMaskedMessageIsRejected) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})", R"({"a":2})"});
  msg.total_predicates = 3;
  msg.predicate_ids = {0, 2};
  msg.annotations = BitVectorSet(2, 2);
  msg.annotations.mutable_vector(0)->Set(0, true);
  std::string payload;
  msg.SerializeTo(&payload);

  // Every strict prefix must fail cleanly — never crash, never
  // half-decode (the frame ends with the annotation set, so any cut
  // lands inside a required field).
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = ChunkMessage::Deserialize(payload.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len;
  }
}

TEST(ChunkMessageTest, EvaluatedIdOutsideMaskIsCorruption) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})"});
  msg.total_predicates = 2;
  msg.predicate_ids = {5};  // outside [0, 2)
  msg.annotations = BitVectorSet(1, 1);
  std::string payload;
  msg.SerializeTo(&payload);
  EXPECT_TRUE(ChunkMessage::Deserialize(payload).status().IsCorruption());
}

TEST(ChunkMessageTest, FlippedMagicIsCorruption) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})"});
  msg.total_predicates = 1;
  msg.predicate_ids = {0};
  msg.annotations = BitVectorSet(1, 1);
  std::string payload;
  msg.SerializeTo(&payload);
  payload[3] = 'X';  // not CMG2
  EXPECT_TRUE(ChunkMessage::Deserialize(payload).status().IsCorruption());
}

// ---------- Transports ----------

TEST(TransportTest, InMemoryFifo) {
  InMemoryTransport transport;
  ASSERT_TRUE(transport.Send("one").ok());
  ASSERT_TRUE(transport.Send("two").ok());
  EXPECT_EQ(transport.bytes_sent(), 6u);
  EXPECT_EQ(transport.pending(), 2u);
  EXPECT_EQ(**transport.Receive(), "one");
  EXPECT_EQ(**transport.Receive(), "two");
  EXPECT_FALSE(transport.Receive()->has_value());
}

TEST(TransportTest, FileTransportRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ciao_transport_test")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FileTransport transport(dir);
  // Embedded NUL: file transport must be binary-safe.
  ASSERT_TRUE(transport.Send(std::string("payload with \0 binary", 21)).ok());
  ASSERT_TRUE(transport.Send(std::string("second")).ok());
  auto first = transport.Receive();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(**first, std::string("payload with \0 binary", 21));
  EXPECT_EQ(**transport.Receive(), "second");
  EXPECT_FALSE(transport.Receive()->has_value());
  std::filesystem::remove_all(dir);
}

TEST(TransportTest, FileTransportPublishesAtomicallyNoTempFiles) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ciao_transport_atomic")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FileTransport transport(dir);
  ASSERT_TRUE(transport.Send("alpha").ok());
  ASSERT_TRUE(transport.Send("beta").ok());
  // Publish discipline: after Send returns, the directory holds exactly
  // the renamed message files — no temp residue a concurrent consumer
  // could mistake for a message.
  size_t messages = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name.rfind("msg_", 0) == 0 &&
                name.find(".bin") != std::string::npos)
        << "unexpected file: " << name;
    ++messages;
  }
  EXPECT_EQ(messages, 2u);
  std::filesystem::remove_all(dir);
}

TEST(TransportTest, FileTransportRejectsTruncatedMessage) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ciao_transport_trunc")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const std::string payload = "truncation target payload 0123456789";
  // One sender per truncation point: simulate a torn write (pre-fix Send
  // could leave one; current Send cannot, but a foreign producer or a
  // dying filesystem still can) at every prefix length.
  {
    FileTransport sender(dir);
    ASSERT_TRUE(sender.Send(payload).ok());
  }
  const std::string path = dir + "/msg_00000000.bin";
  const auto full_size = std::filesystem::file_size(path);
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(full.size(), full_size);

  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
    out.close();
    FileTransport receiver(dir);
    auto received = receiver.Receive();
    if (cut == 0) {
      // Empty file: indistinguishable from "not yet published" only in
      // size, but it fails the header check like any other prefix.
      EXPECT_FALSE(received.ok()) << "cut=" << cut;
    } else {
      ASSERT_FALSE(received.ok()) << "cut=" << cut;
      EXPECT_TRUE(received.status().IsCorruption()) << "cut=" << cut;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TransportTest, FileTransportRejectsCorruptPayload) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ciao_transport_corrupt")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  {
    FileTransport sender(dir);
    ASSERT_TRUE(sender.Send("bytes that will rot").ok());
  }
  const std::string path = dir + "/msg_00000000.bin";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes.back() ^= 0x40;  // flip one payload bit
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  FileTransport receiver(dir);
  auto received = receiver.Receive();
  ASSERT_FALSE(received.ok());
  EXPECT_TRUE(received.status().IsCorruption());
  std::filesystem::remove_all(dir);
}

// ---------- PartialLoader ----------

struct LoaderFixture {
  columnar::Schema schema{{{"a", columnar::ColumnType::kInt64},
                           {"s", columnar::ColumnType::kString}}};
  TableCatalog catalog{schema};
  LoadStats stats;

  json::JsonChunk Chunk(size_t n) {
    json::JsonChunk chunk;
    for (size_t i = 0; i < n; ++i) {
      chunk.AppendSerialized("{\"a\":" + std::to_string(i) +
                             ",\"s\":\"v" + std::to_string(i % 3) + "\"}");
    }
    return chunk;
  }
};

TEST(PartialLoaderTest, SplitsExactlyByUnionOfBits) {
  LoaderFixture fx;
  PartialLoader loader(fx.schema, 2);
  json::JsonChunk chunk = fx.Chunk(10);

  BitVectorSet annotations(2, 10);
  // Predicate 0 matches rows 1,3 ; predicate 1 matches rows 3,7.
  annotations.mutable_vector(0)->Set(1, true);
  annotations.mutable_vector(0)->Set(3, true);
  annotations.mutable_vector(1)->Set(3, true);
  annotations.mutable_vector(1)->Set(7, true);

  ASSERT_TRUE(loader
                  .IngestChunk(chunk, annotations,
                               /*partial_loading_enabled=*/true, &fx.catalog,
                               &fx.stats)
                  .ok());
  EXPECT_EQ(fx.stats.records_in, 10u);
  EXPECT_EQ(fx.stats.records_loaded, 3u);     // rows 1, 3, 7
  EXPECT_EQ(fx.stats.records_sidelined, 7u);
  EXPECT_NEAR(fx.stats.LoadingRatio(), 0.3, 1e-12);
  EXPECT_EQ(fx.catalog.loaded_rows(), 3u);
  EXPECT_EQ(fx.catalog.raw_rows(), 7u);
  EXPECT_GT(fx.stats.parse_seconds, 0.0);

  // The loaded segment's annotations are compacted to the loaded rows,
  // preserving per-predicate bits: rows [1,3,7] -> p0=[1,1,0], p1=[0,1,1].
  auto reader =
      columnar::TableReader::OpenBorrowed(fx.catalog.segment(0).file_bytes);
  ASSERT_TRUE(reader.ok());
  auto meta = reader->ReadMeta(0);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->num_rows, 3u);
  EXPECT_TRUE(meta->annotations.vector(0).Get(0));
  EXPECT_TRUE(meta->annotations.vector(0).Get(1));
  EXPECT_FALSE(meta->annotations.vector(0).Get(2));
  EXPECT_FALSE(meta->annotations.vector(1).Get(0));
  EXPECT_TRUE(meta->annotations.vector(1).Get(1));
  EXPECT_TRUE(meta->annotations.vector(1).Get(2));

  // Sidelined rows are exactly the all-zero rows, in order.
  const std::shared_ptr<const RawStore> raw = fx.catalog.SnapshotRaw();
  EXPECT_EQ(raw->Record(0), chunk.Record(0));
  EXPECT_EQ(raw->Record(1), chunk.Record(2));

  // Loaded column data matches the original records.
  auto batch = reader->ReadBatch(0);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->column(0).GetInt64(0), 1);
  EXPECT_EQ(batch->column(0).GetInt64(1), 3);
  EXPECT_EQ(batch->column(0).GetInt64(2), 7);
}

TEST(PartialLoaderTest, DisabledPartialLoadingLoadsEverything) {
  LoaderFixture fx;
  PartialLoader loader(fx.schema, 1);
  BitVectorSet annotations(1, 10);  // all zeros
  ASSERT_TRUE(loader
                  .IngestChunk(fx.Chunk(10), annotations,
                               /*partial_loading_enabled=*/false, &fx.catalog,
                               &fx.stats)
                  .ok());
  EXPECT_EQ(fx.stats.records_loaded, 10u);
  EXPECT_EQ(fx.stats.records_sidelined, 0u);
  EXPECT_EQ(fx.catalog.raw_rows(), 0u);
  // Annotations still stored for data skipping.
  auto reader =
      columnar::TableReader::OpenBorrowed(fx.catalog.segment(0).file_bytes);
  EXPECT_EQ(reader->ReadMeta(0)->annotations.num_predicates(), 1u);
}

TEST(PartialLoaderTest, BaselineZeroPredicatesLoadsEverything) {
  LoaderFixture fx;
  PartialLoader loader(fx.schema, 0);
  ASSERT_TRUE(loader
                  .IngestChunk(fx.Chunk(5), BitVectorSet(),
                               /*partial_loading_enabled=*/true, &fx.catalog,
                               &fx.stats)
                  .ok());
  EXPECT_EQ(fx.stats.records_loaded, 5u);
  EXPECT_EQ(fx.catalog.raw_rows(), 0u);
}

TEST(PartialLoaderTest, MalformedRecordSkippedNotFatal) {
  LoaderFixture fx;
  PartialLoader loader(fx.schema, 1);
  json::JsonChunk chunk;
  chunk.AppendSerialized(R"({"a":1,"s":"x"})");
  chunk.AppendSerialized("{definitely broken");
  chunk.AppendSerialized(R"({"a":3,"s":"y"})");
  BitVectorSet annotations(1, 3);
  for (size_t i = 0; i < 3; ++i) annotations.mutable_vector(0)->Set(i, true);

  ASSERT_TRUE(loader
                  .IngestChunk(chunk, annotations, true, &fx.catalog,
                               &fx.stats)
                  .ok());
  EXPECT_EQ(fx.stats.parse_errors, 1u);
  EXPECT_EQ(fx.stats.records_loaded, 2u);
  // The loaded group's annotations stay aligned (2 rows).
  auto reader =
      columnar::TableReader::OpenBorrowed(fx.catalog.segment(0).file_bytes);
  EXPECT_EQ(reader->ReadMeta(0)->num_rows, 2u);
}

TEST(PartialLoaderTest, AnnotationMismatchRejected) {
  LoaderFixture fx;
  PartialLoader loader(fx.schema, 2);
  EXPECT_TRUE(loader
                  .IngestChunk(fx.Chunk(4), BitVectorSet(1, 4), true,
                               &fx.catalog, &fx.stats)
                  .IsInvalidArgument());
  EXPECT_TRUE(loader
                  .IngestChunk(fx.Chunk(4), BitVectorSet(2, 5), true,
                               &fx.catalog, &fx.stats)
                  .IsInvalidArgument());
}

TEST(PartialLoaderTest, IngestMessageCompletesMissingPredicates) {
  // Registry: p0 = (s = "v1"), p1 = (s = "v2"). The chunk's client only
  // evaluated p0; a completion-enabled loader evaluates p1 itself, so
  // the load decision uses exact bits for both — the all-ones fallback
  // would have loaded every record.
  LoaderFixture fx;
  PredicateRegistry registry;
  ASSERT_TRUE(
      registry.Register(Clause::Of(SimplePredicate::Exact("s", "v1")), 0.33, 1.0)
          .ok());
  ASSERT_TRUE(
      registry.Register(Clause::Of(SimplePredicate::Exact("s", "v2")), 0.33, 1.0)
          .ok());

  ChunkMessage msg;
  msg.chunk = fx.Chunk(9);  // s cycles v0,v1,v2 -> p0: rows 1,4,7; p1: 2,5,8
  msg.total_predicates = 2;
  msg.predicate_ids = {0};
  msg.annotations = BitVectorSet(1, 9);
  for (const size_t row : {1, 4, 7}) {
    msg.annotations.mutable_vector(0)->Set(row, true);
  }

  PartialLoader completing(fx.schema, registry, /*annotation_epoch=*/0,
                           /*server_completion=*/true);
  ASSERT_TRUE(completing
                  .IngestMessage(msg, /*partial_loading_enabled=*/true,
                                 &fx.catalog, &fx.stats)
                  .ok());
  EXPECT_EQ(fx.stats.records_loaded, 6u);  // rows 1,2,4,5,7,8
  EXPECT_EQ(fx.stats.records_sidelined, 3u);
  EXPECT_EQ(fx.stats.predicates_completed, 1u);
  EXPECT_GE(fx.stats.completion_seconds, 0.0);

  // Same message through a completion-disabled loader: p1 is all-ones
  // ("maybe"), so everything loads — sound but imprecise.
  LoaderFixture conservative;
  PartialLoader plain(conservative.schema, registry, /*annotation_epoch=*/0,
                      /*server_completion=*/false);
  ASSERT_TRUE(plain
                  .IngestMessage(msg, /*partial_loading_enabled=*/true,
                                 &conservative.catalog, &conservative.stats)
                  .ok());
  EXPECT_EQ(conservative.stats.records_loaded, 9u);
  EXPECT_EQ(conservative.stats.predicates_completed, 0u);
}

// ---------- JIT loader ----------

TEST(JitLoaderTest, PromoteRawToColumnar) {
  LoaderFixture fx;
  PartialLoader loader(fx.schema, 1);
  BitVectorSet annotations(1, 6);
  annotations.mutable_vector(0)->Set(0, true);  // only row 0 loaded
  ASSERT_TRUE(loader
                  .IngestChunk(fx.Chunk(6), annotations, true, &fx.catalog,
                               &fx.stats)
                  .ok());
  ASSERT_EQ(fx.catalog.raw_rows(), 5u);
  const uint64_t loaded_before = fx.catalog.loaded_rows();

  // The registry's one predicate matches only row 0, which was loaded.
  PredicateRegistry registry;
  ASSERT_TRUE(
      registry.Register(Clause::Of(SimplePredicate::KeyValue("a", 0)), 0.2, 1.0)
          .ok());
  JitStats jit;
  ASSERT_TRUE(PromoteRawToColumnar(&fx.catalog, registry,
                                   /*annotation_epoch=*/0, &jit)
                  .ok());
  EXPECT_EQ(fx.catalog.raw_rows(), 0u);
  EXPECT_EQ(fx.catalog.loaded_rows(), loaded_before + 5);
  EXPECT_EQ(jit.records_parsed, 5u);

  // Promoted rows carry the registry's client bits: none of them matches.
  const size_t last = fx.catalog.num_segments() - 1;
  auto reader =
      columnar::TableReader::OpenBorrowed(fx.catalog.segment(last).file_bytes);
  auto meta = reader->ReadMeta(0);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->annotations.num_predicates(), 1u);
  EXPECT_FALSE(meta->annotations.vector(0).Any());

  // Promoting an empty raw store is a no-op.
  const size_t segments = fx.catalog.num_segments();
  ASSERT_TRUE(PromoteRawToColumnar(&fx.catalog, registry,
                                   /*annotation_epoch=*/0, &jit)
                  .ok());
  EXPECT_EQ(fx.catalog.num_segments(), segments);
  EXPECT_EQ(jit.records_parsed, 5u);
}

// ---------- Catalog ----------

TEST(CatalogTest, CountersAndRatio) {
  columnar::Schema schema({{"a", columnar::ColumnType::kInt64}});
  TableCatalog catalog(schema);
  EXPECT_EQ(catalog.LoadingRatio(), 1.0);
  columnar::ColumnVector a(columnar::ColumnType::kInt64);
  for (int64_t v = 0; v < 10; ++v) a.AppendInt64(v);
  columnar::RecordBatch batch(schema);
  *batch.mutable_column(0) = std::move(a);
  columnar::TableWriter writer(schema);
  ASSERT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  const std::string file = std::move(writer).Finish();
  ASSERT_TRUE(catalog.AddSegment(file, 10).ok());
  catalog.AppendRawBatch({"{}", "{}"});
  EXPECT_EQ(catalog.loaded_rows(), 10u);
  EXPECT_EQ(catalog.raw_rows(), 2u);
  EXPECT_NEAR(catalog.LoadingRatio(), 10.0 / 12.0, 1e-12);
  EXPECT_EQ(catalog.columnar_bytes(), file.size());
}

// Every published segment carries an index, so bytes that do not parse
// as a columnar file are refused instead of published.
TEST(CatalogTest, UnparseableSegmentIsNotPublished) {
  TableCatalog catalog(columnar::Schema({{"a", columnar::ColumnType::kInt64}}));
  EXPECT_TRUE(catalog.AddSegment("fake-bytes", 10).IsCorruption());
  EXPECT_EQ(catalog.num_segments(), 0u);
  EXPECT_EQ(catalog.loaded_rows(), 0u);
  EXPECT_EQ(catalog.columnar_bytes(), 0u);
}

const columnar::Schema& IntSchema() {
  static const columnar::Schema schema({{"a", columnar::ColumnType::kInt64}});
  return schema;
}

/// An unpublished segment holding a real one-group file of `rows` rows.
ColumnarSegment OneGroupSegment(uint64_t rows) {
  columnar::ColumnVector a(columnar::ColumnType::kInt64);
  for (uint64_t v = 0; v < rows; ++v) a.AppendInt64(static_cast<int64_t>(v));
  columnar::RecordBatch batch(IntSchema());
  *batch.mutable_column(0) = std::move(a);
  columnar::TableWriter writer(IntSchema());
  EXPECT_TRUE(writer.AppendRowGroup(batch, BitVectorSet()).ok());
  ColumnarSegment segment;
  segment.file_bytes = std::move(writer).Finish();
  segment.num_rows = rows;
  return segment;
}

std::vector<uint64_t> SnapshotRowCounts(const TableCatalog& catalog) {
  std::vector<uint64_t> rows;
  for (const SegmentRef& segment : catalog.SnapshotSegments()) {
    rows.push_back(segment->num_rows);
  }
  return rows;
}

// Segments are identified by their distinct row counts.
TEST(CatalogTest, SnapshotListsSegmentsInPublishOrder) {
  TableCatalog catalog(IntSchema());
  std::vector<uint64_t> expected;
  for (uint64_t rows = 1; rows <= 20; ++rows) {
    ASSERT_TRUE(catalog.AddSegment(OneGroupSegment(rows)).ok());
    expected.push_back(rows);
  }
  EXPECT_EQ(SnapshotRowCounts(catalog), expected);
  EXPECT_EQ(catalog.Snapshot().segments, catalog.SnapshotSegments());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(catalog.segment(i).num_rows, expected[i]) << "segment " << i;
  }

  // A one-for-one replacement keeps its slot.
  std::vector<ColumnarSegment> one;
  one.push_back(OneGroupSegment(100));
  ASSERT_TRUE(
      catalog.ReplaceSegments({catalog.SnapshotSegments()[5]}, std::move(one)));
  expected[5] = 100;
  EXPECT_EQ(SnapshotRowCounts(catalog), expected);

  // A two-for-one replacement removes its inputs and appends its output.
  const std::vector<SegmentRef> before = catalog.SnapshotSegments();
  std::vector<ColumnarSegment> merged;
  merged.push_back(OneGroupSegment(200));
  ASSERT_TRUE(
      catalog.ReplaceSegments({before[2], before[3]}, std::move(merged)));
  expected.erase(expected.begin() + 2, expected.begin() + 4);
  expected.push_back(200);
  EXPECT_EQ(SnapshotRowCounts(catalog), expected);
  EXPECT_EQ(catalog.num_segments(), expected.size());
}

// Publishers, snapshot readers and a sideline promotion race through the
// catalog lock. Every snapshot must be one consistent state: no segment
// twice, and segment rows plus sideline records bounded by what was
// published around it (a promotion moves records, it never adds or drops
// them). The sideline is filled before the threads start, since appends
// still require quiescence.
TEST(CatalogTest, ConcurrentPublishSnapshotAndPromotionConserveRows) {
  constexpr size_t kPublishers = 4;
  constexpr size_t kSegmentsPerPublisher = 40;
  constexpr size_t kReaders = 2;
  constexpr uint64_t kPrefilled = 300;
  constexpr uint64_t kMovedPerPromotion = 3;

  TableCatalog catalog(IntSchema());
  const std::string record = R"({"a":1})";
  catalog.AppendRawBatch(std::vector<std::string_view>(kPrefilled, record));

  std::vector<std::vector<ColumnarSegment>> work(kPublishers);
  for (size_t t = 0; t < kPublishers; ++t) {
    for (size_t i = 0; i < kSegmentsPerPublisher; ++i) {
      work[t].push_back(OneGroupSegment(1 + (t + i) % 4));
    }
  }

  std::atomic<uint64_t> started_rows{0};
  std::atomic<uint64_t> done_rows{0};
  std::atomic<size_t> writers_left{kPublishers + 1};
  std::atomic<bool> go{false};
  const auto wait_for_go = [&go] {
    while (!go.load()) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kPublishers; ++t) {
    threads.emplace_back([&, t] {
      wait_for_go();
      for (ColumnarSegment& segment : work[t]) {
        const uint64_t rows = segment.num_rows;
        started_rows.fetch_add(rows);
        EXPECT_TRUE(catalog.AddSegment(std::move(segment)).ok());
        done_rows.fetch_add(rows);
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    wait_for_go();
    for (;;) {
      std::lock_guard<std::mutex> restructure(catalog.restructure_mu());
      const std::shared_ptr<const RawStore> raw = catalog.SnapshotRaw();
      if (raw->empty()) break;
      const uint64_t moved = std::min<uint64_t>(kMovedPerPromotion, raw->size());
      RawStore rest;
      for (size_t i = moved; i < raw->size(); ++i) rest.Append(raw->Record(i));
      std::vector<ColumnarSegment> promoted;
      promoted.push_back(OneGroupSegment(moved));
      EXPECT_TRUE(catalog.ReplaceSegments({}, std::move(promoted),
                                          std::move(rest)));
    }
    writers_left.fetch_sub(1);
  });
  std::atomic<size_t> snapshots_taken{0};
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      wait_for_go();
      uint64_t last_total = 0;
      bool last_pass = false;
      while (!last_pass) {
        last_pass = writers_left.load() == 0;
        const uint64_t lower = kPrefilled + done_rows.load();
        const CatalogSnapshot snapshot = catalog.Snapshot();
        const uint64_t upper = kPrefilled + started_rows.load();
        std::set<const ColumnarSegment*> distinct;
        uint64_t total = snapshot.raw->size();
        for (const SegmentRef& segment : snapshot.segments) {
          distinct.insert(segment.get());
          total += segment->num_rows;
        }
        EXPECT_EQ(distinct.size(), snapshot.segments.size())
            << "a segment is listed twice";
        EXPECT_GE(total, lower);
        EXPECT_LE(total, upper);
        EXPECT_GE(total, last_total) << "rows fell between two snapshots";
        last_total = total;
        snapshots_taken.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  const uint64_t published = done_rows.load();
  EXPECT_EQ(catalog.raw_rows(), 0u);
  EXPECT_EQ(catalog.loaded_rows(), kPrefilled + published);
  EXPECT_EQ(catalog.num_segments(),
            kPublishers * kSegmentsPerPublisher +
                (kPrefilled + kMovedPerPromotion - 1) / kMovedPerPromotion);
  EXPECT_GE(snapshots_taken.load(), kReaders);
}

}  // namespace
}  // namespace ciao
