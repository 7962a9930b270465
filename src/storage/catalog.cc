#include "storage/catalog.h"

#include <algorithm>
#include <cstdlib>

#include "columnar/file_reader.h"
#include "engine/learned_bits.h"
#include "storage/segment_store.h"

namespace ciao {

Status TableCatalog::AddSegment(std::string file_bytes, uint64_t num_rows,
                                uint64_t annotation_epoch) {
  ColumnarSegment segment;
  segment.file_bytes = std::move(file_bytes);
  segment.num_rows = num_rows;
  segment.annotation_epoch = annotation_epoch;
  return AddSegment(std::move(segment));
}

Status TableCatalog::PrepareForPublish(ColumnarSegment* segment) {
  if (segment->index == nullptr) {
    // Heap bytes come from the in-process writer; a disk-resident file
    // is pinned through its mapping cache, which CRC-verifies every
    // group of a fresh mapping before the headers are parsed here.
    CIAO_ASSIGN_OR_RETURN(const PinnedSegment pin, PinSegment(*segment));
    CIAO_ASSIGN_OR_RETURN(segment->index,
                          columnar::SegmentIndex::Build(pin.bytes));
    segment->learned.reset();
  }
  if (segment->learned == nullptr) {
    segment->learned = std::make_shared<LearnedBits>(
        segment->index->num_row_groups(), segment->byte_size());
  }
  if (store_ == nullptr || segment->disk != nullptr ||
      segment->file_bytes.empty()) {
    return Status::OK();
  }
  // Best-effort: a failed spill leaves the bytes on the heap — the
  // segment stays fully readable and the next checkpoint retries via
  // EnsureAllPersisted. Durability is not at stake either way (the WAL
  // covers acknowledged batches until a checkpoint lists the file).
  const Status spill = store_->SpillSegment(segment);
  (void)spill;
  return Status::OK();
}

Status TableCatalog::AddSegment(ColumnarSegment segment) {
  CIAO_RETURN_IF_ERROR(PrepareForPublish(&segment));
  loaded_rows_.fetch_add(segment.num_rows, std::memory_order_relaxed);
  columnar_bytes_.fetch_add(segment.byte_size(), std::memory_order_relaxed);
  auto published =
      std::make_shared<const ColumnarSegment>(std::move(segment));
  std::lock_guard<std::mutex> lock(mu_);
  segments_.push_back(std::move(published));
  return Status::OK();
}

bool TableCatalog::ReplaceSegments(
    const std::vector<SegmentRef>& old_segments,
    std::vector<ColumnarSegment> replacements,
    std::optional<RawStore> sideline, Status* failure) {
  // Index and spill before the lock: file I/O must never run under mu_.
  // If the swap below loses its race the spilled files become orphans,
  // collected by the next checkpoint's GC.
  for (ColumnarSegment& replacement : replacements) {
    Status prepared = PrepareForPublish(&replacement);
    if (!prepared.ok()) {
      if (failure != nullptr) *failure = std::move(prepared);
      return false;
    }
  }
  std::shared_ptr<RawStore> fresh_raw;
  if (sideline.has_value()) {
    fresh_raw = std::make_shared<RawStore>(std::move(*sideline));
  }
  std::lock_guard<std::mutex> lock(mu_);

  const auto is_old = [&](const SegmentRef& slot) {
    for (const SegmentRef& old_segment : old_segments) {
      if (slot.get() == old_segment.get()) return true;
    }
    return false;
  };
  // All-or-nothing: locate every old segment before touching anything. A
  // miss means a concurrent rewrite (backfill, another re-layout) already
  // replaced one of them — the caller's rewritten bytes are stale.
  const auto found = std::count_if(segments_.begin(), segments_.end(), is_old);
  if (static_cast<size_t>(found) != old_segments.size()) return false;

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
    for (SegmentRef& slot : segments_) {
      if (!is_old(slot)) continue;
      retire(slot);
      slot = publish(std::move(replacements.front()));
    }
  } else {
    auto it = std::remove_if(segments_.begin(), segments_.end(),
                             [&](const SegmentRef& slot) {
                               if (!is_old(slot)) return false;
                               retire(slot);
                               return true;
                             });
    segments_.erase(it, segments_.end());
    for (ColumnarSegment& replacement : replacements) {
      segments_.push_back(publish(std::move(replacement)));
    }
  }
  if (fresh_raw != nullptr) raw_ = std::move(fresh_raw);
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
  std::lock_guard<std::mutex> lock(mu_);
  return segments_;
}

CatalogSnapshot TableCatalog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CatalogSnapshot{segments_, raw_};
}

void TableCatalog::AppendRawBatch(
    const std::vector<std::string_view>& records) {
  if (records.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string_view record : records) raw_->Append(record);
}

std::shared_ptr<const RawStore> TableCatalog::SnapshotRaw() const {
  std::lock_guard<std::mutex> lock(mu_);
  return raw_;
}

uint64_t TableCatalog::raw_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return raw_->size();
}

size_t TableCatalog::num_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

const ColumnarSegment& TableCatalog::segment(size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Out-of-range index: a programming error, like vector::operator[].
  if (i >= segments_.size()) std::abort();
  return *segments_[i];
}

}  // namespace ciao
