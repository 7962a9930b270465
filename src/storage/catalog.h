#ifndef CIAO_STORAGE_CATALOG_H_
#define CIAO_STORAGE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/schema.h"
#include "storage/raw_store.h"
#include "storage/segment_file.h"

namespace ciao {

class SegmentStore;

/// One encoded columnar file (one row group per ingested chunk in the
/// normal pipeline). Kept as bytes; queries open a TableReader over it —
/// mirroring Spark re-reading Parquet files per query.
///
/// Immutable once published to the catalog: the adaptive runtime replaces
/// whole segments (ReplaceSegments) instead of mutating bytes in place, so
/// in-flight scans holding a snapshot keep reading a consistent file.
///
/// Residency is dual: either `file_bytes` holds the file on the heap
/// (the in-memory pipeline, and the fallback when a spill fails), or
/// `disk` points at a store file and `file_bytes` is empty — readers go
/// through PinSegment(), which mmaps on demand under the store's
/// residency budget. Exactly one of the two is populated for a non-empty
/// segment.
struct ColumnarSegment {
  std::string file_bytes;
  /// Disk residency handle (null = in-memory). See storage/segment_file.h.
  std::shared_ptr<SegmentFile> disk;
  uint64_t num_rows = 0;
  /// The plan epoch whose predicate-id space the embedded annotation
  /// bitvectors use. Executors planned against a different epoch must not
  /// trust the bits (they fall back to a typed full-group scan, which is
  /// always sound). 0 = the bootstrap plan — the only epoch in the
  /// non-adaptive pipeline, so defaults keep the legacy behaviour.
  uint64_t annotation_epoch = 0;
  /// Annotation provenance. Client-prefilter bits (ingest, JIT
  /// promotion) are a superset — no false negatives, but raw substring
  /// matching admits false positives, so candidates must be re-verified
  /// with the typed predicate. Bits recomputed by exact typed evaluation
  /// (backfill, re-layout) carry no false positives either: a query
  /// fully covered by pushed clauses can then be COUNTed directly from
  /// the candidate bits without decoding a column.
  bool annotations_exact = false;

  /// Size of the columnar file, wherever it lives.
  uint64_t byte_size() const {
    return disk != nullptr ? disk->size : file_bytes.size();
  }
};

/// Refcounted handle to an immutable published segment.
using SegmentRef = std::shared_ptr<const ColumnarSegment>;

/// A consistent point-in-time view of the whole catalog: the published
/// segments AND the raw sideline, taken atomically w.r.t. promotions.
/// A full scan must use this combined snapshot — snapshotting segments
/// and sideline in two separate steps lets a concurrent promotion move
/// records from the (already-snapshotted) sideline into a segment the
/// scan never sees, silently dropping them from the count.
struct CatalogSnapshot {
  std::vector<SegmentRef> segments;
  std::shared_ptr<const RawStore> raw;
};

/// Server-side state of one table: the columnar segments (loaded data,
/// with bitvector annotations inside) plus the raw sideline.
///
/// Appends are thread-safe so a pool of PartialLoader workers can ingest
/// concurrently: segments are striped across shards (each shard under its
/// own mutex, picked round-robin so contention spreads), the raw sideline
/// has its own lock, and the row counters are atomics.
///
/// Two access regimes:
///  - Quiescent accessors (`segment`, `raw`) expect no concurrent writer
///    — the legacy query phase after ingest workers have joined.
///  - Snapshot accessors (`SnapshotSegments`, `SnapshotRaw`) are safe
///    against concurrent ReplaceSegments / AddSegment: the
///    returned shared_ptrs keep the superseded objects alive, so the
///    adaptive runtime can backfill annotations and promote sideline
///    records while queries are in flight.
class TableCatalog {
 public:
  static constexpr size_t kDefaultShards = 8;

  explicit TableCatalog(columnar::Schema schema,
                        size_t num_shards = kDefaultShards)
      : schema_(std::move(schema)),
        shards_(num_shards == 0 ? 1 : num_shards),
        raw_(std::make_shared<RawStore>()) {}

  TableCatalog(const TableCatalog&) = delete;
  TableCatalog& operator=(const TableCatalog&) = delete;

  const columnar::Schema& schema() const { return schema_; }

  /// Attaches the durable store: from now on every published segment is
  /// spilled to disk first (out-of-core mode). The store must outlive the
  /// catalog. Call before any segment is published (system bootstrap).
  void AttachStore(SegmentStore* store) { store_ = store; }
  SegmentStore* store() const { return store_; }

  /// Spills any still-in-memory segment to the store (publish-time spill
  /// failures fall back to heap residency; a checkpoint retries here).
  /// No-op without an attached store. Callers must guarantee quiescence
  /// against concurrent ReplaceSegments (the checkpoint path holds the
  /// ingest/replan gate exclusively).
  Status EnsureAllPersisted();

  /// Appends one columnar segment; safe to call from many loader threads.
  /// `annotation_epoch` tags the id-space of the embedded annotations.
  void AddSegment(std::string file_bytes, uint64_t num_rows,
                  uint64_t annotation_epoch = 0);

  /// Full-struct variant: publishes `segment` as-is, including its
  /// annotations_exact provenance (tests and benches seeding a catalog
  /// with exactly-annotated segments). With an attached store the
  /// segment's bytes are spilled to disk first (unless already
  /// disk-resident — the recovery path).
  void AddSegment(ColumnarSegment segment);

  /// The one publish step for every data move after ingest (see
  /// storage/rewrite.h): atomically swaps the published segments
  /// `old_segments` (matched by identity; may be empty) for
  /// `replacements`, and, when `sideline` is set, the raw sideline for
  /// `*sideline`. All-or-nothing: when any of `old_segments` is no longer
  /// published (a concurrent rewrite won the race), nothing is touched
  /// and false is returned. The snapshot lock is held across the whole
  /// swap, so a concurrent Snapshot sees either the old or the new state,
  /// never a mix that would double-count or drop rows. Row counts may be
  /// redistributed across the replacements; only the total must be
  /// conserved (the caller's duty, not checked here).
  ///
  /// Placement: a one-for-one replacement takes the old segment's slot;
  /// otherwise the old segments are removed and the replacements placed
  /// round-robin, as AddSegment does. Replacements are spilled before any
  /// lock is taken. A sideline swap requires restructure_mu() held across
  /// the preceding sideline read.
  bool ReplaceSegments(const std::vector<SegmentRef>& old_segments,
                       std::vector<ColumnarSegment> replacements,
                       std::optional<RawStore> sideline = std::nullopt);

  /// Consistent point-in-time view of every published segment, shard-major
  /// order. Safe against concurrent appends/replacements, including a
  /// concurrent multi-segment ReplaceSegments (see snapshot_mu_).
  std::vector<SegmentRef> SnapshotSegments() const;

  /// Atomic combined snapshot of segments + sideline: sees either the
  /// pre- or the post-state of any concurrent ReplaceSegments, never a
  /// half-applied one. The scan path for full scans.
  CatalogSnapshot Snapshot() const;

  /// Appends a batch of records under a single sideline lock acquisition
  /// (the per-chunk path of a loader pool: one lock per chunk, not per
  /// record).
  void AppendRawBatch(const std::vector<std::string_view>& records);

  /// Point-in-time view of the raw sideline. Safe against a concurrent
  /// sideline swap (promotion/backfill); concurrent *appends* still
  /// require the quiescence the legacy pipeline already assumes.
  std::shared_ptr<const RawStore> SnapshotRaw() const;

  /// Shard count (segment placement is striped round-robin across them).
  size_t num_shards() const { return shards_.size(); }

  // --- Flat view, shard-major order ---
  size_t num_segments() const;
  /// Quiescent accessor; the reference is invalidated by ReplaceSegments.
  const ColumnarSegment& segment(size_t i) const;

  /// Quiescent sideline accessor; invalidated by a sideline swap.
  const RawStore& raw() const { return *raw_; }

  /// Rows materialized in columnar form.
  uint64_t loaded_rows() const {
    return loaded_rows_.load(std::memory_order_relaxed);
  }
  /// Rows sidelined in raw form.
  uint64_t raw_rows() const;
  uint64_t columnar_bytes() const {
    return columnar_bytes_.load(std::memory_order_relaxed);
  }

  /// Fraction of all ingested rows that were loaded (the paper's
  /// "loading ratio", Fig 7/9/11). 1.0 when nothing was ingested.
  double LoadingRatio() const {
    const uint64_t total = loaded_rows() + raw_rows();
    return total == 0 ? 1.0
                      : static_cast<double>(loaded_rows()) /
                            static_cast<double>(total);
  }

  /// Serializes sideline *restructuring* — the snapshot→rebuild→replace
  /// sequences of query-driven promotion and backfill. Two concurrent
  /// restructures would each rebuild from the same snapshot and the
  /// second sideline swap would resurrect records the first one promoted
  /// (double-counting them). Plain appends and snapshot readers do not
  /// take this lock.
  std::mutex& restructure_mu() const { return restructure_mu_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<SegmentRef> segments;
  };

  columnar::Schema schema_;
  std::vector<Shard> shards_;
  std::atomic<size_t> next_shard_{0};
  mutable std::mutex raw_mu_;
  mutable std::mutex restructure_mu_;
  /// Held (briefly) by SnapshotSegments / combined Snapshot(), and across
  /// the whole swap of ReplaceSegments (segments and sideline). Readers
  /// therefore see any multi-step publish either fully applied or not at
  /// all; per-shard locks alone cannot give that (a shard-at-a-time
  /// snapshot could catch a cross-segment swap halfway).
  mutable std::mutex snapshot_mu_;

  /// SnapshotSegments body; requires snapshot_mu_ held.
  std::vector<SegmentRef> SnapshotSegmentsLocked() const;
  /// Best-effort spill of a segment about to be published; called BEFORE
  /// any catalog lock is taken (file I/O must never run under
  /// snapshot_mu_ or a shard lock). On failure the segment keeps its
  /// heap bytes — still correct, retried by the next checkpoint.
  void SpillForPublish(ColumnarSegment* segment);

  SegmentStore* store_ = nullptr;
  std::shared_ptr<RawStore> raw_;
  std::atomic<uint64_t> loaded_rows_{0};
  std::atomic<uint64_t> columnar_bytes_{0};
};

}  // namespace ciao

#endif  // CIAO_STORAGE_CATALOG_H_
