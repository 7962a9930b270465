#include "storage/segment_store.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/crc32.h"
#include "storage/fs.h"

namespace ciao {

namespace {

constexpr std::string_view kManifestName = "MANIFEST";
constexpr std::string_view kWalName = "wal.log";
constexpr std::string_view kManifestMagic = "CIAOMAN1";
constexpr std::string_view kSidelineMagic = "CIAORAW1";
constexpr uint32_t kManifestVersion = 1;

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
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

void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Bounds-checked little-endian reader for manifest/sideline decoding.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_]);
    pos_ += 1;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool ReadString(std::string* out) {
    uint32_t len = 0;
    if (!ReadU32(&len) || pos_ + len > data_.size()) return false;
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Smallest encodings of a manifest segment entry (u32 name length, u64
// rows, u64 epoch, u8 exact) and of a sideline record (u32 length). A CRC
// proves the bytes are the ones written, not that a count in them is
// sane, so every count is bounded by these before it sizes a vector.
constexpr size_t kMinManifestSegmentBytes = 4 + 8 + 8 + 1;
constexpr size_t kMinSidelineRecordBytes = 4;

struct ManifestSegment {
  std::string name;
  uint64_t num_rows = 0;
  uint64_t annotation_epoch = 0;
  bool annotations_exact = false;
};

struct Manifest {
  uint64_t applied_seq = 0;
  uint64_t registry_fingerprint = 0;
  uint64_t epoch_id = 0;
  uint64_t next_file_id = 0;
  std::vector<ManifestSegment> segments;
  std::string sideline_name;  // empty = no sideline snapshot
};

std::string EncodeManifest(const Manifest& m) {
  std::string body;
  PutU32(kManifestVersion, &body);
  PutU64(m.applied_seq, &body);
  PutU64(m.registry_fingerprint, &body);
  PutU64(m.epoch_id, &body);
  PutU64(m.next_file_id, &body);
  PutU32(static_cast<uint32_t>(m.segments.size()), &body);
  for (const ManifestSegment& seg : m.segments) {
    PutString(seg.name, &body);
    PutU64(seg.num_rows, &body);
    PutU64(seg.annotation_epoch, &body);
    PutU8(seg.annotations_exact ? 1 : 0, &body);
  }
  PutString(m.sideline_name, &body);

  std::string out;
  out.reserve(kManifestMagic.size() + body.size() + 4);
  out.append(kManifestMagic);
  out.append(body);
  PutU32(Crc32(body), &out);
  return out;
}

Result<Manifest> DecodeManifest(std::string_view bytes) {
  // The manifest is only ever published whole (temp + fsync + rename), so
  // any framing violation here is genuine corruption, not a torn write.
  if (bytes.size() < kManifestMagic.size() + 4 ||
      bytes.substr(0, kManifestMagic.size()) != kManifestMagic) {
    return Status::Corruption("manifest: bad magic");
  }
  const std::string_view body =
      bytes.substr(kManifestMagic.size(),
                   bytes.size() - kManifestMagic.size() - 4);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("manifest: CRC mismatch");
  }

  Cursor cursor(body);
  Manifest m;
  uint32_t version = 0;
  uint32_t num_segments = 0;
  if (!cursor.ReadU32(&version) || version != kManifestVersion) {
    return Status::Corruption("manifest: unsupported version");
  }
  if (!cursor.ReadU64(&m.applied_seq) ||
      !cursor.ReadU64(&m.registry_fingerprint) ||
      !cursor.ReadU64(&m.epoch_id) || !cursor.ReadU64(&m.next_file_id) ||
      !cursor.ReadU32(&num_segments)) {
    return Status::Corruption("manifest: truncated header");
  }
  if (num_segments > cursor.remaining() / kMinManifestSegmentBytes) {
    return Status::Corruption("manifest: segment count exceeds the bytes left");
  }
  m.segments.resize(num_segments);
  for (ManifestSegment& seg : m.segments) {
    uint8_t exact = 0;
    if (!cursor.ReadString(&seg.name) || !cursor.ReadU64(&seg.num_rows) ||
        !cursor.ReadU64(&seg.annotation_epoch) || !cursor.ReadU8(&exact)) {
      return Status::Corruption("manifest: truncated segment entry");
    }
    seg.annotations_exact = exact != 0;
  }
  if (!cursor.ReadString(&m.sideline_name)) {
    return Status::Corruption("manifest: truncated sideline name");
  }
  if (cursor.position() != body.size()) {
    return Status::Corruption("manifest: trailing bytes");
  }
  return m;
}

std::string EncodeSideline(const RawStore& raw) {
  std::string body;
  PutU32(static_cast<uint32_t>(raw.size()), &body);
  for (size_t i = 0; i < raw.size(); ++i) {
    PutString(raw.Record(i), &body);
  }
  std::string out;
  out.reserve(kSidelineMagic.size() + body.size() + 4);
  out.append(kSidelineMagic);
  out.append(body);
  PutU32(Crc32(body), &out);
  return out;
}

Result<std::vector<std::string>> DecodeSideline(std::string_view bytes) {
  if (bytes.size() < kSidelineMagic.size() + 4 ||
      bytes.substr(0, kSidelineMagic.size()) != kSidelineMagic) {
    return Status::Corruption("sideline snapshot: bad magic");
  }
  const std::string_view body =
      bytes.substr(kSidelineMagic.size(),
                   bytes.size() - kSidelineMagic.size() - 4);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("sideline snapshot: CRC mismatch");
  }
  Cursor cursor(body);
  uint32_t count = 0;
  if (!cursor.ReadU32(&count)) {
    return Status::Corruption("sideline snapshot: truncated count");
  }
  if (count > cursor.remaining() / kMinSidelineRecordBytes) {
    return Status::Corruption(
        "sideline snapshot: record count exceeds the bytes left");
  }
  std::vector<std::string> records(count);
  for (std::string& record : records) {
    if (!cursor.ReadString(&record)) {
      return Status::Corruption("sideline snapshot: truncated record");
    }
  }
  if (cursor.position() != body.size()) {
    return Status::Corruption("sideline snapshot: trailing bytes");
  }
  return records;
}

std::string SegmentFileName(uint64_t id) {
  return "seg_" + std::to_string(id) + ".ciao";
}

/// Parses "seg_<id>.ciao" back to <id>; nullopt-style -1 on other names.
int64_t ParseSegmentFileId(std::string_view name) {
  if (name.size() <= 9 || name.substr(0, 4) != "seg_" ||
      name.substr(name.size() - 5) != ".ciao") {
    return -1;
  }
  const std::string_view digits = name.substr(4, name.size() - 9);
  int64_t id = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return -1;
    id = id * 10 + (c - '0');
    if (id < 0) return -1;  // overflow
  }
  return id;
}

}  // namespace

uint64_t RegistryFingerprint(const PredicateRegistry& registry) {
  // FNV-1a over every (id, canonical key) pair, id order. Registry ids
  // are dense and assigned in registration order, so equal fingerprints
  // mean bit position i refers to the same predicate in both registries.
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  };
  for (const RegisteredPredicate& predicate : registry.predicates()) {
    char id_bytes[4];
    std::memcpy(id_bytes, &predicate.id, 4);
    mix(std::string_view(id_bytes, 4));
    mix(predicate.clause.CanonicalKey());
    mix("|");
  }
  return hash;
}

SegmentStore::SegmentStore(std::string dir,
                           std::shared_ptr<MappingCache> cache,
                           std::unique_ptr<WriteAheadLog> wal)
    : dir_(std::move(dir)), cache_(std::move(cache)), wal_(std::move(wal)) {}

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const Options& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("SegmentStore: storage.dir is empty");
  }
  CIAO_RETURN_IF_ERROR(fs::CreateDirs(options.dir));

  Manifest manifest;  // defaults = fresh store
  const std::string manifest_path =
      options.dir + "/" + std::string(kManifestName);
  if (fs::FileExists(manifest_path)) {
    std::string bytes;
    CIAO_RETURN_IF_ERROR(fs::ReadFile(manifest_path, &bytes));
    CIAO_ASSIGN_OR_RETURN(manifest, DecodeManifest(bytes));
  }

  // Replay the WAL before opening it for append (Open truncates the torn
  // tail). Batches the manifest already covers are dropped here.
  const std::string wal_path = options.dir + "/" + std::string(kWalName);
  CIAO_ASSIGN_OR_RETURN(WalReplayResult replay,
                        WriteAheadLog::Replay(wal_path));
  CIAO_ASSIGN_OR_RETURN(
      std::unique_ptr<WriteAheadLog> wal,
      WriteAheadLog::Open(wal_path, options.wal_sync));

  auto store = std::unique_ptr<SegmentStore>(new SegmentStore(
      options.dir,
      std::make_shared<MappingCache>(options.memory_budget_bytes),
      std::move(wal)));

  // Delete orphans: files neither structural nor manifest-listed. They
  // are segments spilled after the last checkpoint (their batches replay
  // from the WAL), files superseded by a re-layout, or torn temp files —
  // all unreachable, and GC before any new spill means their names can
  // be reused safely.
  std::unordered_set<std::string> keep;
  keep.insert(std::string(kManifestName));
  keep.insert(std::string(kWalName));
  for (const ManifestSegment& seg : manifest.segments) keep.insert(seg.name);
  if (!manifest.sideline_name.empty()) keep.insert(manifest.sideline_name);
  CIAO_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                        fs::ListDir(options.dir));
  for (const std::string& name : names) {
    if (keep.count(name) == 0) {
      CIAO_RETURN_IF_ERROR(fs::RemoveFile(options.dir + "/" + name));
    }
  }

  // File ids resume past both the manifest's high-water mark and any
  // surviving file (belt and braces; orphans are already gone).
  uint64_t next_id = manifest.next_file_id;
  for (const ManifestSegment& seg : manifest.segments) {
    const int64_t id = ParseSegmentFileId(seg.name);
    if (id >= 0 && static_cast<uint64_t>(id) >= next_id) {
      next_id = static_cast<uint64_t>(id) + 1;
    }
  }
  store->next_file_id_.store(next_id, std::memory_order_relaxed);

  // Stage the recovered state for the caller.
  Recovered& recovered = store->recovered_;
  recovered.applied_seq = manifest.applied_seq;
  recovered.registry_fingerprint = manifest.registry_fingerprint;
  recovered.checkpoint_epoch_id = manifest.epoch_id;
  for (const ManifestSegment& seg : manifest.segments) {
    const std::string path = options.dir + "/" + seg.name;
    CIAO_ASSIGN_OR_RETURN(const uint64_t size, fs::FileSize(path));
    ColumnarSegment segment;
    segment.disk = store->MakeFileHandle(seg.name, size, /*synced=*/true);
    segment.num_rows = seg.num_rows;
    segment.annotation_epoch = seg.annotation_epoch;
    segment.annotations_exact = seg.annotations_exact;
    recovered.segments.push_back(std::move(segment));
  }
  if (!manifest.sideline_name.empty()) {
    std::string bytes;
    CIAO_RETURN_IF_ERROR(
        fs::ReadFile(options.dir + "/" + manifest.sideline_name, &bytes));
    CIAO_ASSIGN_OR_RETURN(recovered.sideline, DecodeSideline(bytes));
  }
  for (WalBatch& batch : replay.batches) {
    if (batch.seq > manifest.applied_seq) {
      recovered.wal_batches.push_back(std::move(batch));
    }
  }
  return store;
}

std::shared_ptr<SegmentFile> SegmentStore::MakeFileHandle(
    const std::string& name, uint64_t size, bool synced) {
  auto file = std::make_shared<SegmentFile>();
  file->name = name;
  file->path = dir_ + "/" + name;
  file->size = size;
  file->synced.store(synced, std::memory_order_relaxed);
  file->cache = cache_;
  std::lock_guard<std::mutex> lock(files_mu_);
  live_files_[name] = file;
  return file;
}

Status SegmentStore::SpillSegment(ColumnarSegment* segment) {
  if (segment->disk != nullptr) return Status::OK();
  if (segment->file_bytes.empty()) {
    return Status::InvalidArgument("SpillSegment: segment has no bytes");
  }
  const uint64_t id = next_file_id_.fetch_add(1, std::memory_order_relaxed);
  const std::string name = SegmentFileName(id);
  // Unsynced spill: visibility is rename-atomic, durability waits for the
  // checkpoint (the WAL re-creates the segment if we crash before then).
  CIAO_RETURN_IF_ERROR(
      fs::AtomicWriteFile(dir_, name, segment->file_bytes,
                          /*sync_file=*/false));
  segment->disk =
      MakeFileHandle(name, segment->file_bytes.size(), /*synced=*/false);
  segment->file_bytes.clear();
  segment->file_bytes.shrink_to_fit();
  segments_spilled_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SegmentStore::LogBatch(uint64_t seq,
                              const std::vector<std::string>& records) {
  return wal_->Append(seq, records);
}

Status SegmentStore::Checkpoint(const std::vector<SegmentRef>& segments,
                                const RawStore& sideline,
                                uint64_t applied_seq,
                                uint64_t registry_fingerprint,
                                uint64_t epoch_id) {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);

  Manifest manifest;
  manifest.applied_seq = applied_seq;
  manifest.registry_fingerprint = registry_fingerprint;
  manifest.epoch_id = epoch_id;

  // 1. Every listed segment file becomes durable before the manifest
  //    names it. A segment still on the heap would vanish with the WAL
  //    reset below, so it aborts the checkpoint (state stays covered by
  //    the intact WAL — nothing is lost, the next checkpoint retries).
  bool synced_any = false;
  for (const SegmentRef& segment : segments) {
    if (segment->disk == nullptr) {
      return Status::Internal(
          "Checkpoint: segment not spilled (EnsureAllPersisted missed it)");
    }
    SegmentFile& file = *segment->disk;
    if (!file.synced.load(std::memory_order_acquire)) {
      CIAO_RETURN_IF_ERROR(fs::SyncFile(file.path));
      file.synced.store(true, std::memory_order_release);
      synced_any = true;
    }
    manifest.segments.push_back(ManifestSegment{
        file.name, segment->num_rows, segment->annotation_epoch,
        segment->annotations_exact});
  }
  if (synced_any) CIAO_RETURN_IF_ERROR(fs::SyncDir(dir_));

  // 2. Sideline snapshot (skipped when empty).
  if (!sideline.empty()) {
    manifest.sideline_name =
        "sideline_" + std::to_string(applied_seq) + ".raw";
    CIAO_RETURN_IF_ERROR(fs::AtomicWriteFile(
        dir_, manifest.sideline_name, EncodeSideline(sideline)));
  }

  // 3. The manifest publish is the checkpoint's commit point.
  manifest.next_file_id = next_file_id_.load(std::memory_order_relaxed);
  CIAO_RETURN_IF_ERROR(fs::AtomicWriteFile(
      dir_, std::string(kManifestName), EncodeManifest(manifest)));

  // 4. Only now is the WAL redundant. A crash between 3 and 4 re-replays
  //    batches <= applied_seq, which recovery drops.
  CIAO_RETURN_IF_ERROR(wal_->Reset());

  // 5. GC files that are neither manifest-listed nor still referenced by
  //    a live handle (an in-flight scan's snapshot may still pin a
  //    superseded segment; its handle keeps the file until a later
  //    checkpoint runs after the reference drops).
  std::unordered_set<std::string> keep;
  keep.insert(std::string(kManifestName));
  keep.insert(std::string(kWalName));
  for (const ManifestSegment& seg : manifest.segments) keep.insert(seg.name);
  if (!manifest.sideline_name.empty()) keep.insert(manifest.sideline_name);
  {
    std::lock_guard<std::mutex> files_lock(files_mu_);
    for (auto it = live_files_.begin(); it != live_files_.end();) {
      if (it->second.expired()) {
        it = live_files_.erase(it);
      } else {
        keep.insert(it->first);
        ++it;
      }
    }
  }
  CIAO_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                        fs::ListDir(dir_));
  for (const std::string& name : names) {
    if (keep.count(name) != 0) continue;
    CIAO_RETURN_IF_ERROR(fs::RemoveFile(dir_ + "/" + name));
    cache_->Invalidate(dir_ + "/" + name);
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

SegmentStore::Recovered SegmentStore::TakeRecovered() {
  Recovered out = std::move(recovered_);
  recovered_ = Recovered{};
  return out;
}

}  // namespace ciao
