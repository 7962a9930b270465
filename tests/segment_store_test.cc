// Unit and system tests of the durable out-of-core layer: segment
// spilling, mmap pinning + LRU residency, checkpoint/recovery, WAL
// replay, and byte-identical query results between the all-in-RAM
// pipeline and the disk-resident one.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "common/crc32.h"
#include "core/system.h"
#include "engine/executor.h"
#include "json/parser.h"
#include "predicate/semantic_eval.h"
#include "storage/fs.h"
#include "storage/segment_store.h"
#include "storage/wal.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"
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

columnar::Schema TestSchema() {
  return columnar::Schema{{{"a", columnar::ColumnType::kInt64},
                           {"s", columnar::ColumnType::kString}}};
}

/// Builds a small single-group columnar file with `n` rows.
std::string MakeFileBytes(uint64_t n, uint64_t salt = 0) {
  const columnar::Schema schema = TestSchema();
  columnar::BatchBuilder builder(schema);
  for (uint64_t i = 0; i < n; ++i) {
    const Status st = builder.AppendSerialized(
        "{\"a\":" + std::to_string(i + salt) + ",\"s\":\"v" +
        std::to_string(i % 3) + "\"}");
    EXPECT_TRUE(st.ok());
  }
  columnar::TableWriter writer(schema);
  EXPECT_TRUE(
      writer.AppendRowGroup(builder.Finish(), BitVectorSet(0, n)).ok());
  return std::move(writer).Finish();
}

ColumnarSegment MakeSegment(uint64_t n, uint64_t salt = 0) {
  ColumnarSegment segment;
  segment.file_bytes = MakeFileBytes(n, salt);
  segment.num_rows = n;
  return segment;
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

/// `magic | body | u32 crc32(body)`: the manifest and sideline framing.
std::string CrcFramed(std::string_view magic, const std::string& body) {
  std::string out(magic);
  out += body;
  PutU32(Crc32(body), &out);
  return out;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------- Spill + pin ----------

TEST(SegmentStoreTest, SpillThenPinReturnsIdenticalBytes) {
  const std::string dir = TempDir("ciao_store_spill");
  SegmentStore::Options options;
  options.dir = dir;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  ColumnarSegment segment = MakeSegment(16);
  const std::string original = segment.file_bytes;
  ASSERT_TRUE((*store)->SpillSegment(&segment).ok());
  EXPECT_TRUE(segment.file_bytes.empty());
  ASSERT_NE(segment.disk, nullptr);
  EXPECT_EQ(segment.byte_size(), original.size());
  EXPECT_EQ((*store)->segments_spilled(), 1u);

  auto pin = PinSegment(segment);
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  EXPECT_TRUE(pin->fresh_mapping);
  EXPECT_EQ(pin->bytes, original);

  // Second pin: cache hit, same bytes, no new mapping.
  auto pin2 = PinSegment(segment);
  ASSERT_TRUE(pin2.ok());
  EXPECT_FALSE(pin2->fresh_mapping);
  EXPECT_EQ(pin2->bytes, original);
  EXPECT_EQ((*store)->cache()->mappings_created(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(SegmentStoreTest, HeapResidentSegmentPinsWithoutMapping) {
  ColumnarSegment segment = MakeSegment(4);
  auto pin = PinSegment(segment);
  ASSERT_TRUE(pin.ok());
  EXPECT_FALSE(pin->fresh_mapping);
  EXPECT_EQ(pin->mapping, nullptr);
  EXPECT_EQ(pin->bytes, segment.file_bytes);
}

TEST(SegmentStoreTest, MappingCacheEvictsLeastRecentlyUsed) {
  const std::string dir = TempDir("ciao_store_lru");
  SegmentStore::Options options;
  options.dir = dir;
  ColumnarSegment a = MakeSegment(64, 0);
  // Budget fits roughly one segment: pinning the second must evict the
  // first from *cache* residency (outstanding pins stay valid).
  options.memory_budget_bytes = a.file_bytes.size() + 16;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok());

  ColumnarSegment b = MakeSegment(64, 1000);
  ASSERT_TRUE((*store)->SpillSegment(&a).ok());
  ASSERT_TRUE((*store)->SpillSegment(&b).ok());

  const std::string a_bytes(PinSegment(a)->bytes);
  {
    auto pin_b = PinSegment(b);
    ASSERT_TRUE(pin_b.ok());
    EXPECT_TRUE(pin_b->fresh_mapping);
  }
  EXPECT_LE((*store)->cache()->cached_bytes(), options.memory_budget_bytes);
  // A was evicted: pinning it again is a fresh mapping with intact bytes.
  auto pin_a = PinSegment(a);
  ASSERT_TRUE(pin_a.ok());
  EXPECT_TRUE(pin_a->fresh_mapping);
  EXPECT_EQ(pin_a->bytes, a_bytes);
  EXPECT_EQ((*store)->cache()->mappings_created(), 3u);
  std::filesystem::remove_all(dir);
}

TEST(SegmentStoreTest, PinDetectsCorruptedSpilledFile) {
  const std::string dir = TempDir("ciao_store_corrupt");
  SegmentStore::Options options;
  options.dir = dir;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok());

  ColumnarSegment segment = MakeSegment(32);
  ASSERT_TRUE((*store)->SpillSegment(&segment).ok());
  // Flip one byte near the end of the file body (inside column data).
  {
    std::fstream f(segment.disk->path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(segment.disk->size / 2));
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(segment.disk->size / 2));
    c = static_cast<char>(c ^ 0x20);
    f.write(&c, 1);
  }
  auto pin = PinSegment(segment);
  ASSERT_FALSE(pin.ok());
  EXPECT_TRUE(pin.status().IsCorruption()) << pin.status().ToString();
  std::filesystem::remove_all(dir);
}

// No CRC covers a columnar file's schema, and the count is read before
// the map-time verification pass: one flipped bit must surface as
// Corruption, not as a multi-gigabyte reservation that aborts the process.
TEST(SegmentStoreTest, PinRejectsFlippedSchemaCountBit) {
  const std::string dir = TempDir("ciao_store_schema_bit");
  SegmentStore::Options options;
  options.dir = dir;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok());

  ColumnarSegment segment = MakeSegment(32);
  ASSERT_TRUE((*store)->SpillSegment(&segment).ok());
  {
    // Bit 31 of the u32 field count right after "CIAOCOL1".
    std::fstream f(segment.disk->path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(8 + 3);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x80);
    f.seekp(8 + 3);
    f.write(&c, 1);
  }
  auto pin = PinSegment(segment);
  ASSERT_FALSE(pin.ok());
  EXPECT_TRUE(pin.status().IsCorruption()) << pin.status().ToString();
  std::filesystem::remove_all(dir);
}

// ---------- Checkpoint + recovery (store level) ----------

/// A version-1 manifest body up to and including the segment count.
std::string ManifestHead(uint32_t num_segments) {
  std::string body;
  PutU32(1, &body);  // version
  // applied seq, registry fingerprint, epoch id, next file id
  for (int i = 0; i < 4; ++i) PutU64(0, &body);
  PutU32(num_segments, &body);
  return body;
}

// A CRC proves the manifest bytes are the ones written, not that the
// segment count in them is sane.
TEST(SegmentStoreTest, OpenRejectsManifestSegmentCountBeyondBytes) {
  const std::string dir = TempDir("ciao_store_manifest_count");
  std::string body = ManifestHead(0xFFFFFFFFu);
  PutU32(0, &body);  // a few entry bytes, then nothing
  WriteBytes(dir + "/MANIFEST", CrcFramed("CIAOMAN1", body));
  SegmentStore::Options options;
  options.dir = dir;
  auto store = SegmentStore::Open(options);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(SegmentStoreTest, OpenRejectsSidelineRecordCountBeyondBytes) {
  const std::string dir = TempDir("ciao_store_sideline_count");
  std::string manifest = ManifestHead(0);
  const std::string sideline_name = "sideline_1.raw";
  PutU32(static_cast<uint32_t>(sideline_name.size()), &manifest);
  manifest += sideline_name;
  WriteBytes(dir + "/MANIFEST", CrcFramed("CIAOMAN1", manifest));
  std::string sideline;
  PutU32(0xFFFFFFFFu, &sideline);
  PutU32(0, &sideline);
  WriteBytes(dir + "/" + sideline_name, CrcFramed("CIAORAW1", sideline));
  SegmentStore::Options options;
  options.dir = dir;
  auto store = SegmentStore::Open(options);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(SegmentStoreTest, CheckpointThenReopenRecoversSegmentsAndSideline) {
  const std::string dir = TempDir("ciao_store_ckpt");
  SegmentStore::Options options;
  options.dir = dir;
  std::string a_bytes, b_bytes;
  {
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok());
    ColumnarSegment a = MakeSegment(8, 0);
    ColumnarSegment b = MakeSegment(12, 100);
    a_bytes = a.file_bytes;
    b_bytes = b.file_bytes;
    a.annotation_epoch = 0;
    b.annotation_epoch = 0;
    b.annotations_exact = true;
    ASSERT_TRUE((*store)->SpillSegment(&a).ok());
    ASSERT_TRUE((*store)->SpillSegment(&b).ok());
    std::vector<SegmentRef> refs;
    refs.push_back(std::make_shared<const ColumnarSegment>(std::move(a)));
    refs.push_back(std::make_shared<const ColumnarSegment>(std::move(b)));
    RawStore sideline;
    sideline.Append("{\"a\":7,\"s\":\"raw\"}");
    ASSERT_TRUE((*store)
                    ->Checkpoint(refs, sideline, /*applied_seq=*/5,
                                 /*registry_fingerprint=*/42, /*epoch_id=*/3)
                    .ok());
    EXPECT_EQ((*store)->checkpoints_completed(), 1u);
  }
  auto reopened = SegmentStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  SegmentStore::Recovered recovered = (*reopened)->TakeRecovered();
  EXPECT_EQ(recovered.applied_seq, 5u);
  EXPECT_EQ(recovered.registry_fingerprint, 42u);
  EXPECT_EQ(recovered.checkpoint_epoch_id, 3u);
  ASSERT_EQ(recovered.segments.size(), 2u);
  ASSERT_EQ(recovered.sideline.size(), 1u);
  EXPECT_EQ(recovered.sideline[0], "{\"a\":7,\"s\":\"raw\"}");
  EXPECT_TRUE(recovered.wal_batches.empty());

  // Byte-identical payloads through the pin path.
  EXPECT_EQ(recovered.segments[0].num_rows, 8u);
  EXPECT_TRUE(recovered.segments[1].annotations_exact);
  EXPECT_EQ(std::string(PinSegment(recovered.segments[0])->bytes), a_bytes);
  EXPECT_EQ(std::string(PinSegment(recovered.segments[1])->bytes), b_bytes);
  std::filesystem::remove_all(dir);
}

TEST(SegmentStoreTest, UncheckpointedSpillIsOrphanCollectedOnOpen) {
  const std::string dir = TempDir("ciao_store_orphan");
  SegmentStore::Options options;
  options.dir = dir;
  std::string orphan_path;
  {
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok());
    ColumnarSegment segment = MakeSegment(8);
    ASSERT_TRUE((*store)->SpillSegment(&segment).ok());
    orphan_path = segment.disk->path;
    // No checkpoint: crash here. The file exists but no manifest lists it.
    ASSERT_TRUE(std::filesystem::exists(orphan_path));
  }
  auto reopened = SegmentStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->TakeRecovered().segments.empty());
  EXPECT_FALSE(std::filesystem::exists(orphan_path));
  std::filesystem::remove_all(dir);
}

TEST(SegmentStoreTest, WalBatchesPastAppliedSeqAreStagedForReplay) {
  const std::string dir = TempDir("ciao_store_walstage");
  SegmentStore::Options options;
  options.dir = dir;
  {
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->LogBatch(1, {"{\"a\":1}"}).ok());
    ASSERT_TRUE((*store)->LogBatch(2, {"{\"a\":2}", "{\"a\":22}"}).ok());
    ASSERT_TRUE((*store)->LogBatch(3, {"{\"a\":3}"}).ok());
    EXPECT_GT((*store)->wal_tail_bytes(), 0u);
    // Checkpoint covering batch 1 only (empty catalog for simplicity).
    RawStore empty;
    ASSERT_TRUE(
        (*store)->Checkpoint({}, empty, /*applied_seq=*/1, 0, 0).ok());
    // Post-checkpoint batches land in the fresh WAL.
    ASSERT_TRUE((*store)->LogBatch(2, {"{\"a\":2}", "{\"a\":22}"}).ok());
    ASSERT_TRUE((*store)->LogBatch(3, {"{\"a\":3}"}).ok());
  }
  auto reopened = SegmentStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  SegmentStore::Recovered recovered = (*reopened)->TakeRecovered();
  EXPECT_EQ(recovered.applied_seq, 1u);
  ASSERT_EQ(recovered.wal_batches.size(), 2u);
  EXPECT_EQ(recovered.wal_batches[0].seq, 2u);
  ASSERT_EQ(recovered.wal_batches[0].records.size(), 2u);
  EXPECT_EQ(recovered.wal_batches[0].records[1], "{\"a\":22}");
  EXPECT_EQ(recovered.wal_batches[1].seq, 3u);
  std::filesystem::remove_all(dir);
}

// ---------- WAL framing ----------

TEST(WalTest, ReplayRecoversEveryCompleteFrameAtEveryTruncation) {
  const std::string dir = TempDir("ciao_wal_trunc");
  const std::string path = dir + "/wal.log";
  std::vector<std::vector<std::string>> batches = {
      {"{\"a\":1}"},
      {"{\"a\":2}", "{\"a\":3,\"s\":\"x\"}"},
      {std::string("bin\0ary", 7)},  // binary-safe
  };
  {
    auto wal = WriteAheadLog::Open(path, WalSyncMode::kNever);
    ASSERT_TRUE(wal.ok());
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE((*wal)->Append(i + 1, batches[i]).ok());
    }
  }
  std::string full;
  ASSERT_TRUE(fs::ReadFile(path, &full).ok());

  // Frame boundaries: magic + len + crc + payload(seq + count + records).
  std::vector<size_t> ends;
  size_t off = 0;
  for (const auto& records : batches) {
    size_t payload = 8 + 4;
    for (const std::string& r : records) payload += 4 + r.size();
    off += 12 + payload;
    ends.push_back(off);
  }
  ASSERT_EQ(off, full.size());

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto replay = WriteAheadLog::Replay(path);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    size_t expect_complete = 0;
    while (expect_complete < ends.size() && ends[expect_complete] <= cut) {
      ++expect_complete;
    }
    ASSERT_EQ(replay->batches.size(), expect_complete) << "cut=" << cut;
    EXPECT_EQ(replay->valid_bytes,
              expect_complete == 0 ? 0 : ends[expect_complete - 1])
        << "cut=" << cut;
    EXPECT_EQ(replay->truncated_tail,
              cut != (expect_complete == 0 ? 0 : ends[expect_complete - 1]))
        << "cut=" << cut;
    for (size_t i = 0; i < expect_complete; ++i) {
      EXPECT_EQ(replay->batches[i].seq, i + 1);
      EXPECT_EQ(replay->batches[i].records, batches[i]) << "cut=" << cut;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(WalTest, ReplayStopsAtCorruptFrame) {
  const std::string dir = TempDir("ciao_wal_corrupt");
  const std::string path = dir + "/wal.log";
  {
    auto wal = WriteAheadLog::Open(path, WalSyncMode::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, {"{\"a\":1}"}).ok());
    ASSERT_TRUE((*wal)->Append(2, {"{\"a\":2}"}).ok());
  }
  std::string bytes;
  ASSERT_TRUE(fs::ReadFile(path, &bytes).ok());
  bytes[bytes.size() - 2] ^= 0x01;  // rot inside frame 2's payload
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->batches.size(), 1u);
  EXPECT_EQ(replay->batches[0].seq, 1u);
  EXPECT_TRUE(replay->truncated_tail);

  // Open() truncates the bad tail; appends then continue cleanly.
  auto wal = WriteAheadLog::Open(path, WalSyncMode::kNever);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(2, {"{\"a\":2}"}).ok());
  auto replay2 = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay2.ok());
  ASSERT_EQ(replay2->batches.size(), 2u);
  EXPECT_FALSE(replay2->truncated_tail);
  std::filesystem::remove_all(dir);
}

// A CRC-valid frame whose record count exceeds its payload is corrupt;
// the replay rules treat it like any bad frame: a torn tail, dropped.
TEST(WalTest, RecordCountBeyondPayloadIsATornTail) {
  const std::string dir = TempDir("ciao_wal_count");
  const std::string path = dir + "/wal.log";
  {
    auto wal = WriteAheadLog::Open(path, WalSyncMode::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, {"{\"a\":1}"}).ok());
  }
  std::string bytes;
  ASSERT_TRUE(fs::ReadFile(path, &bytes).ok());
  const size_t first_frame = bytes.size();
  std::string payload;
  PutU64(2, &payload);            // seq
  PutU32(0xFFFFFFFFu, &payload);  // record count
  PutU32(0, &payload);            // one empty record
  PutU32(0x464C5743, &bytes);     // "CWLF"
  PutU32(static_cast<uint32_t>(payload.size()), &bytes);
  PutU32(Crc32(payload), &bytes);
  bytes += payload;
  WriteBytes(path, bytes);

  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->batches.size(), 1u);
  EXPECT_EQ(replay->batches[0].seq, 1u);
  EXPECT_TRUE(replay->truncated_tail);
  EXPECT_EQ(replay->valid_bytes, first_frame);
  std::filesystem::remove_all(dir);
}

// ---------- System level: out-of-core == in-RAM, recovery ----------

struct SystemFixture {
  workload::Dataset ds;
  Workload wl;
  CiaoConfig config;

  explicit SystemFixture(double budget_us = 80.0) {
    workload::GeneratorOptions gen;
    gen.num_records = 400;
    gen.seed = 7;
    ds = workload::GenerateDataset(workload::DatasetKind::kYcsb, gen);
    const auto pool = workload::TemplatesFor(workload::DatasetKind::kYcsb)
                          .AllCandidates();
    workload::WorkloadSpec spec;
    spec.num_queries = 12;
    spec.distribution = workload::PredicateDistribution::kZipfian;
    spec.zipf_s = 1.5;
    spec.seed = 5;
    wl = workload::GenerateWorkload(pool, spec);
    config.budget_us = budget_us;
    config.chunk_size = 64;
    config.sample_size = 200;
  }

  Result<std::unique_ptr<CiaoSystem>> Boot() const {
    return CiaoSystem::Bootstrap(ds.schema, wl, ds.records, config,
                                 CostModel::Default());
  }
};

std::vector<std::pair<uint64_t, std::vector<uint64_t>>> RunAll(
    CiaoSystem* system, const Workload& wl) {
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> out;
  for (const Query& q : wl.queries) {
    auto r = system->ExecuteQuery(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) out.emplace_back(r->count, r->projected_hashes);
  }
  return out;
}

TEST(OutOfCoreSystemTest, DiskResidentResultsByteIdenticalToInRam) {
  SystemFixture fixture;

  // Reference: storage off, everything on the heap.
  auto ram = fixture.Boot();
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();
  ASSERT_TRUE((*ram)->IngestRecords(fixture.ds.records).ok());
  const auto expected = RunAll(ram->get(), fixture.wl);

  // Out-of-core: storage on, budget far below the dataset so scans run
  // through evicting mmap pins — sequentially, and on four scan threads
  // that share the mapping cache and read the segments' indexes.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("query_scan_threads=" + std::to_string(threads));
    SystemFixture disk_fixture;
    disk_fixture.config.storage.enabled = true;
    disk_fixture.config.storage.dir = TempDir("ciao_ooc_system");
    disk_fixture.config.storage.memory_budget_bytes = 8 << 10;  // 8 KB
    disk_fixture.config.query_scan_threads = threads;
    auto disk = disk_fixture.Boot();
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    ASSERT_TRUE((*disk)->IngestRecords(disk_fixture.ds.records).ok());
    ASSERT_NE((*disk)->segment_store(), nullptr);
    EXPECT_GT((*disk)->segment_store()->segments_spilled(), 0u);

    uint64_t segments_mapped = 0, bytes_mapped = 0;
    std::vector<std::pair<uint64_t, std::vector<uint64_t>>> actual;
    for (const Query& q : disk_fixture.wl.queries) {
      auto r = (*disk)->ExecuteQuery(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      segments_mapped += r->stats.segments_mapped;
      bytes_mapped += r->stats.bytes_mapped;
      actual.emplace_back(r->count, r->projected_hashes);
    }
    EXPECT_EQ(actual, expected);
    // The scans really went through the mapping path.
    EXPECT_GT(segments_mapped, 0u);
    EXPECT_GT(bytes_mapped, 0u);
    disk->reset();
    std::filesystem::remove_all(disk_fixture.config.storage.dir);
  }
}

TEST(OutOfCoreSystemTest, CleanShutdownReopensWithoutReingest) {
  SystemFixture fixture;
  fixture.config.storage.enabled = true;
  fixture.config.storage.dir = TempDir("ciao_ooc_reopen");
  fixture.config.storage.memory_budget_bytes = 1 << 20;

  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> expected;
  {
    auto system = fixture.Boot();
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ASSERT_TRUE((*system)->IngestRecords(fixture.ds.records).ok());
    expected = RunAll(system->get(), fixture.wl);
    // Destructor checkpoints: WAL empties, segments turn durable.
  }
  auto reopened = fixture.Boot();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // No ingest: the rows come back from the checkpointed segment files.
  EXPECT_EQ(RunAll(reopened->get(), fixture.wl), expected);
  EXPECT_EQ((*reopened)->load_stats().records_in, 0u);  // no re-ingest
  std::filesystem::remove_all(fixture.config.storage.dir);
}

TEST(OutOfCoreSystemTest, CrashImageRecoversAcknowledgedBatchesFromWal) {
  SystemFixture fixture;
  fixture.config.storage.enabled = true;
  fixture.config.storage.dir = TempDir("ciao_ooc_crash");
  const std::string crash_dir = TempDir("ciao_ooc_crash_image");

  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> expected;
  {
    auto system = fixture.Boot();
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    // Several acknowledged batches, then a crash (dir snapshot taken
    // while the system is live — the destructor's checkpoint never runs
    // on the image).
    const size_t batch = 50;
    for (size_t i = 0; i < fixture.ds.records.size(); i += batch) {
      const std::vector<std::string> slice(
          fixture.ds.records.begin() + i,
          fixture.ds.records.begin() +
              std::min(i + batch, fixture.ds.records.size()));
      ASSERT_TRUE((*system)->IngestRecords(slice).ok());
    }
    expected = RunAll(system->get(), fixture.wl);
    std::filesystem::remove_all(crash_dir);
    std::filesystem::copy(fixture.config.storage.dir, crash_dir,
                          std::filesystem::copy_options::recursive);
  }
  SystemFixture recovered_fixture;
  recovered_fixture.config.storage.enabled = true;
  recovered_fixture.config.storage.dir = crash_dir;
  auto recovered = recovered_fixture.Boot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(RunAll(recovered->get(), recovered_fixture.wl), expected);
  std::filesystem::remove_all(fixture.config.storage.dir);
  std::filesystem::remove_all(crash_dir);
}

TEST(OutOfCoreSystemTest, CompactorPromotesSidelineAndCheckpoints) {
  SystemFixture fixture;
  fixture.config.storage.enabled = true;
  fixture.config.storage.dir = TempDir("ciao_ooc_compact");
  // Adaptive on so the sideline JIT machinery exists; compactor manual.
  fixture.config.adaptive.enabled = true;
  auto system = fixture.Boot();
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->IngestRecords(fixture.ds.records).ok());
  const auto expected = RunAll(system->get(), fixture.wl);

  const uint64_t sidelined = (*system)->catalog().raw_rows();
  const uint64_t checkpoints_before =
      (*system)->segment_store()->checkpoints_completed();
  ASSERT_TRUE((*system)->CompactAndCheckpoint().ok());
  // The sideline merged into columnar segments, off the query path.
  EXPECT_EQ((*system)->catalog().raw_rows(), 0u);
  EXPECT_GT((*system)->segment_store()->checkpoints_completed(),
            checkpoints_before);
  if (sidelined > 0) {
    EXPECT_GE((*system)->catalog().loaded_rows(), sidelined);
  }
  EXPECT_EQ(RunAll(system->get(), fixture.wl), expected);
  std::filesystem::remove_all(fixture.config.storage.dir);
}

TEST(OutOfCoreSystemTest, RegistryFingerprintChangesWithClauseSet) {
  SystemFixture fixture;
  auto a = fixture.Boot();
  ASSERT_TRUE(a.ok());
  const uint64_t fp_a = RegistryFingerprint((*a)->registry());
  EXPECT_EQ(fp_a, RegistryFingerprint((*a)->registry()));  // deterministic

  SystemFixture other(5000.0);  // different budget -> different pushdown
  auto b = other.Boot();
  ASSERT_TRUE(b.ok());
  if ((*b)->registry().size() != (*a)->registry().size()) {
    EXPECT_NE(fp_a, RegistryFingerprint((*b)->registry()));
  }
}

// ---------- Resident segment index: skip before mapping ----------

/// Five disk-resident segments of 20 rows each, segment k holding
/// a = 100k .. 100k+19, published through a catalog with a store, plus
/// the same bytes in an all-in-RAM catalog for reference answers.
struct IndexedStoreFixture {
  std::string dir = TempDir("ciao_index_skip");
  std::unique_ptr<SegmentStore> store;
  TableCatalog disk{TestSchema()};
  TableCatalog ram{TestSchema()};
  PredicateRegistry no_pushdown;

  IndexedStoreFixture() {
    SegmentStore::Options options;
    options.dir = dir;
    auto opened = SegmentStore::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    store = std::move(*opened);
    disk.AttachStore(store.get());
    for (uint64_t k = 0; k < 5; ++k) {
      const std::string bytes = MakeFileBytes(20, 100 * k);
      EXPECT_TRUE(disk.AddSegment(bytes, 20).ok());
      EXPECT_TRUE(ram.AddSegment(bytes, 20).ok());
    }
  }
  ~IndexedStoreFixture() { std::filesystem::remove_all(dir); }

  /// `a < bound` through both catalogs; checks the answers agree.
  Result<QueryResult> Run(int64_t bound) {
    Query query;
    query.clauses = {Clause::Of(SimplePredicate::RangeLess("a", bound))};
    const QueryExecutor in_ram(&ram, &no_pushdown);
    auto expected = in_ram.Execute(query);
    EXPECT_TRUE(expected.ok());
    auto result = QueryExecutor(&disk, &no_pushdown).Execute(query);
    if (result.ok() && expected.ok()) {
      EXPECT_EQ(result->count, expected->count) << "a < " << bound;
    }
    return result;
  }

  /// The spilled file of the k-th published segment (the catalog lists
  /// segments in publish order).
  const SegmentFile& File(size_t k) const { return *disk.segment(k).disk; }
};

TEST(SegmentIndexTest, QueryRuledOutByIndexCreatesNoMapping) {
  IndexedStoreFixture fx;
  for (size_t k = 0; k < 5; ++k) {
    ASSERT_NE(fx.disk.segment(k).disk, nullptr);
    ASSERT_NE(fx.disk.segment(k).index, nullptr);
  }
  const uint64_t mappings_before = fx.store->cache()->mappings_created();
  // Zone maps in the index rule out every group: nothing is pinned.
  auto none = fx.Run(0);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->count, 0u);
  EXPECT_EQ(none->stats.groups_considered, 5u);
  EXPECT_EQ(none->stats.groups_skipped_zonemap, 5u);
  EXPECT_EQ(none->stats.segments_mapped, 0u);
  EXPECT_EQ(none->stats.segments_read, 0u);
  EXPECT_EQ(fx.store->cache()->mappings_created(), mappings_before);

  // A query that needs one segment maps and reads exactly that one.
  auto first = fx.Run(10);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->count, 10u);
  EXPECT_EQ(first->stats.segments_read, 1u);
  EXPECT_EQ(first->stats.segments_mapped, 1u);
  EXPECT_EQ(fx.store->cache()->mappings_created(), mappings_before + 1);

  // Heap segments skip the same way: segments_read counts them too.
  Query query;
  query.clauses = {Clause::Of(SimplePredicate::RangeLess("a", 0))};
  auto heap = QueryExecutor(&fx.ram, &fx.no_pushdown).Execute(query);
  ASSERT_TRUE(heap.ok());
  EXPECT_EQ(heap->stats.segments_read, 0u);
}

// Bits written under another plan epoch are never trusted, but the
// zone maps in the index still rule groups out before any pin.
TEST(SegmentIndexTest, StaleEpochSegmentSkipsByZoneMapsWithoutMapping) {
  IndexedStoreFixture fx;  // every segment annotated under epoch 0
  Query query;
  query.clauses = {Clause::Of(SimplePredicate::RangeLess("a", 0))};
  const uint64_t mappings_before = fx.store->cache()->mappings_created();
  auto r = QueryExecutor(&fx.disk, &fx.no_pushdown)
               .ExecuteWithSkipping(query, {0}, /*epoch_id=*/1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 0u);
  EXPECT_EQ(r->stats.groups_stale_annotations, 5u);
  EXPECT_EQ(r->stats.groups_skipped_zonemap, 5u);
  EXPECT_EQ(r->stats.segments_read, 0u);
  EXPECT_EQ(r->stats.segments_mapped, 0u);
  EXPECT_EQ(fx.store->cache()->mappings_created(), mappings_before);
}

TEST(SegmentIndexTest, FlippedByteInADecodedGroupIsCorruption) {
  IndexedStoreFixture fx;
  // Flip the last body byte of segment 2's file (a = 200..219). The file
  // ends with the group CRC, the footer marker and count, and the end
  // magic: 20 bytes.
  const SegmentFile& victim = fx.File(2);
  {
    std::fstream f(victim.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    const std::streamoff pos = static_cast<std::streamoff>(victim.size) - 21;
    f.seekg(pos);
    char c = 0;
    f.get(c);
    f.seekp(pos);
    f.put(static_cast<char>(c ^ 0x01));
  }
  // Queries that never read segment 2 answer; the damage is not in any
  // byte they decode.
  auto before = fx.Run(10);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->count, 10u);
  // A query that decodes its group maps the file, and the map-time CRC
  // pass refuses it.
  auto damaged = QueryExecutor(&fx.disk, &fx.no_pushdown).Execute([] {
    Query query;
    query.clauses = {Clause::Of(SimplePredicate::RangeLess("a", 205))};
    return query;
  }());
  ASSERT_FALSE(damaged.ok());
  EXPECT_TRUE(damaged.status().IsCorruption()) << damaged.status().ToString();
  auto after = fx.Run(110);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->count, 30u);
}

TEST(OutOfCoreSystemTest, ReopenIndexesAtOpenAndMapsNoRuledOutSegment) {
  SystemFixture fixture;
  fixture.config.storage.enabled = true;
  fixture.config.storage.dir = TempDir("ciao_ooc_reopen_index");
  fixture.config.storage.memory_budget_bytes = 1 << 20;
  // No YCSB record has a negative id: zone maps rule out every group.
  Query ruled_out;
  ruled_out.clauses = {Clause::Of(SimplePredicate::RangeLess("id", 0))};

  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> expected;
  uint64_t expected_ruled_out = 0;
  {
    auto system = fixture.Boot();
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ASSERT_TRUE((*system)->IngestRecords(fixture.ds.records).ok());
    expected = RunAll(system->get(), fixture.wl);
    auto r = (*system)->ExecuteQuery(ruled_out);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected_ruled_out = r->count;
  }
  auto reopened = fixture.Boot();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const TableCatalog& catalog = (*reopened)->catalog();
  const SegmentStore* store = (*reopened)->segment_store();
  ASSERT_GT(catalog.num_segments(), 0u);
  for (size_t i = 0; i < catalog.num_segments(); ++i) {
    ASSERT_NE(catalog.segment(i).disk, nullptr);
    ASSERT_NE(catalog.segment(i).index, nullptr);
  }
  // Each recovered file was mapped and verified once, at open.
  const uint64_t mappings_at_open = store->cache()->mappings_created();
  EXPECT_EQ(mappings_at_open, catalog.num_segments());

  auto r = (*reopened)->ExecuteQuery(ruled_out);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, expected_ruled_out);
  EXPECT_EQ(r->stats.segments_mapped, 0u);
  EXPECT_EQ(r->stats.segments_read, 0u);
  EXPECT_EQ(store->cache()->mappings_created(), mappings_at_open);
  EXPECT_EQ(RunAll(reopened->get(), fixture.wl), expected);
  reopened->reset();
  std::filesystem::remove_all(fixture.config.storage.dir);
}

}  // namespace
}  // namespace ciao
