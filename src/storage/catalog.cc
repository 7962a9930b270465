#include "storage/catalog.h"

#include <algorithm>
#include <cstdlib>

#include "storage/segment_store.h"

namespace ciao {

void TableCatalog::AddSegment(std::string file_bytes, uint64_t num_rows,
                              uint64_t annotation_epoch) {
  ColumnarSegment segment;
  segment.file_bytes = std::move(file_bytes);
  segment.num_rows = num_rows;
  segment.annotation_epoch = annotation_epoch;
  AddSegment(std::move(segment));
}

void TableCatalog::SpillForPublish(ColumnarSegment* segment) {
  if (store_ == nullptr || segment->disk != nullptr ||
      segment->file_bytes.empty()) {
    return;
  }
  // Best-effort: a failed spill leaves the bytes on the heap — the
  // segment stays fully readable and the next checkpoint retries via
  // EnsureAllPersisted. Durability is not at stake either way (the WAL
  // covers acknowledged batches until a checkpoint lists the file).
  const Status spill = store_->SpillSegment(segment);
  (void)spill;
}

void TableCatalog::AddSegment(ColumnarSegment segment) {
  SpillForPublish(&segment);
  loaded_rows_.fetch_add(segment.num_rows, std::memory_order_relaxed);
  columnar_bytes_.fetch_add(segment.byte_size(), std::memory_order_relaxed);
  auto published =
      std::make_shared<const ColumnarSegment>(std::move(segment));
  Shard& shard =
      shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
              shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.segments.push_back(std::move(published));
}

bool TableCatalog::ReplaceSegments(
    const std::vector<SegmentRef>& old_segments,
    std::vector<ColumnarSegment> replacements,
    std::optional<RawStore> sideline) {
  // Spill before any lock: file I/O must never run under snapshot_mu_.
  // If the swap below loses its race the spilled files become orphans,
  // collected by the next checkpoint's GC.
  for (ColumnarSegment& replacement : replacements) {
    SpillForPublish(&replacement);
  }
  std::shared_ptr<RawStore> fresh_raw;
  if (sideline.has_value()) {
    fresh_raw = std::make_shared<RawStore>(std::move(*sideline));
  }
  std::lock_guard<std::mutex> snapshot_lock(snapshot_mu_);
  // Every shard stays locked for the whole swap so no path that reads
  // shards directly (num_segments, segment) can observe a partial state
  // either.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (Shard& shard : shards_) shard_locks.emplace_back(shard.mu);

  const auto is_old = [&](const SegmentRef& slot) {
    for (const SegmentRef& old_segment : old_segments) {
      if (slot.get() == old_segment.get()) return true;
    }
    return false;
  };
  // All-or-nothing: locate every old segment before touching anything. A
  // miss means a concurrent rewrite (backfill, another re-layout) already
  // replaced one of them — the caller's rewritten bytes are stale.
  size_t found = 0;
  for (const Shard& shard : shards_) {
    for (const SegmentRef& slot : shard.segments) {
      if (is_old(slot)) ++found;
    }
  }
  if (found != old_segments.size()) return false;

  const auto retire = [&](const SegmentRef& slot) {
    columnar_bytes_.fetch_sub(slot->byte_size(), std::memory_order_relaxed);
    loaded_rows_.fetch_sub(slot->num_rows, std::memory_order_relaxed);
  };
  const auto publish = [&](ColumnarSegment segment) {
    loaded_rows_.fetch_add(segment.num_rows, std::memory_order_relaxed);
    columnar_bytes_.fetch_add(segment.byte_size(), std::memory_order_relaxed);
    return std::make_shared<const ColumnarSegment>(std::move(segment));
  };
  if (old_segments.size() == 1 && replacements.size() == 1) {
    for (Shard& shard : shards_) {
      for (SegmentRef& slot : shard.segments) {
        if (!is_old(slot)) continue;
        retire(slot);
        slot = publish(std::move(replacements.front()));
      }
    }
  } else {
    for (Shard& shard : shards_) {
      auto it = std::remove_if(shard.segments.begin(), shard.segments.end(),
                               [&](const SegmentRef& slot) {
                                 if (!is_old(slot)) return false;
                                 retire(slot);
                                 return true;
                               });
      shard.segments.erase(it, shard.segments.end());
    }
    for (ColumnarSegment& replacement : replacements) {
      // Round-robin placement as in AddSegment; the shard lock is already
      // held above, so push directly.
      Shard& shard =
          shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
                  shards_.size()];
      shard.segments.push_back(publish(std::move(replacement)));
    }
  }
  if (fresh_raw != nullptr) {
    std::lock_guard<std::mutex> lock(raw_mu_);
    raw_ = std::move(fresh_raw);
  }
  return true;
}

Status TableCatalog::EnsureAllPersisted() {
  if (store_ == nullptr) return Status::OK();
  for (SegmentRef& ref : SnapshotSegments()) {
    if (ref->disk != nullptr || ref->file_bytes.empty()) continue;
    ColumnarSegment copy = *ref;  // copies the heap bytes
    CIAO_RETURN_IF_ERROR(store_->SpillSegment(&copy));
    // Quiescent caller (checkpoint under the exclusive gate): the swap
    // cannot lose a race, but tolerate it anyway — a false return just
    // leaves an orphan file for GC.
    std::vector<ColumnarSegment> replacement;
    replacement.push_back(std::move(copy));
    ReplaceSegments({ref}, std::move(replacement));
  }
  return Status::OK();
}

std::vector<SegmentRef> TableCatalog::SnapshotSegments() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return SnapshotSegmentsLocked();
}

std::vector<SegmentRef> TableCatalog::SnapshotSegmentsLocked() const {
  std::vector<SegmentRef> snapshot;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    snapshot.insert(snapshot.end(), shard.segments.begin(),
                    shard.segments.end());
  }
  return snapshot;
}

CatalogSnapshot TableCatalog::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  CatalogSnapshot snapshot;
  snapshot.segments = SnapshotSegmentsLocked();
  snapshot.raw = SnapshotRaw();
  return snapshot;
}

void TableCatalog::AppendRawBatch(
    const std::vector<std::string_view>& records) {
  if (records.empty()) return;
  std::lock_guard<std::mutex> lock(raw_mu_);
  for (const std::string_view record : records) raw_->Append(record);
}

std::shared_ptr<const RawStore> TableCatalog::SnapshotRaw() const {
  std::lock_guard<std::mutex> lock(raw_mu_);
  return raw_;
}

uint64_t TableCatalog::raw_rows() const {
  std::lock_guard<std::mutex> lock(raw_mu_);
  return raw_->size();
}

size_t TableCatalog::num_segments() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.segments.size();
  }
  return total;
}

const ColumnarSegment& TableCatalog::segment(size_t i) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (i < shard.segments.size()) return *shard.segments[i];
    i -= shard.segments.size();
  }
  // Out-of-range index: a programming error, like vector::operator[].
  std::abort();
}

}  // namespace ciao
