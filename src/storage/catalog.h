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
#include "common/status.h"
#include "storage/raw_store.h"
#include "storage/segment_file.h"

namespace ciao {

namespace columnar {
class SegmentIndex;
}  // namespace columnar

class LearnedBits;
class SegmentStore;

/// One encoded columnar file (one row group per ingested chunk in the
/// normal pipeline). Kept as bytes, plus a resident index of its skip
/// metadata: queries decide every row group from the index and open a
/// reader over the bytes only for the groups they decode.
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
  /// Framing and per-group skip metadata of the file, wherever it lives.
  /// Set by the catalog's publish step, so every published segment has
  /// one; copies of a segment share it.
  std::shared_ptr<const columnar::SegmentIndex> index;
  /// What scans learned about the file's rows for clauses no client bit
  /// covers (engine/learned_bits.h). Created empty with the index and
  /// shared by copies, which hold the same bytes; a segment published
  /// with a new index starts with nothing learned.
  std::shared_ptr<LearnedBits> learned;
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
/// concurrently. One mutex guards the segment list (kept in publish
/// order) and the sideline pointer; every step under it is a short
/// in-memory update, since indexing and spilling run before it is taken.
/// The row counters are atomics.
///
/// Two access regimes:
///  - Quiescent accessor (`segment`) expects no concurrent writer — the
///    legacy query phase after ingest workers have joined.
///  - Snapshot accessors (`Snapshot`, `SnapshotSegments`, `SnapshotRaw`)
///    are safe against concurrent ReplaceSegments / AddSegment: the
///    returned shared_ptrs keep the superseded objects alive, so the
///    adaptive runtime can backfill annotations and promote sideline
///    records while queries are in flight.
class TableCatalog {
 public:
  explicit TableCatalog(columnar::Schema schema)
      : schema_(std::move(schema)), raw_(std::make_shared<RawStore>()) {}

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
  /// Fails, publishing nothing, when the bytes do not parse as a
  /// columnar file.
  Status AddSegment(std::string file_bytes, uint64_t num_rows,
                    uint64_t annotation_epoch = 0);

  /// Full-struct variant: publishes `segment` as-is, including its
  /// annotations_exact provenance (tests and benches seeding a catalog
  /// with exactly-annotated segments). Builds the segment's index, then
  /// spills its bytes to the attached store. A disk-resident segment
  /// without an index (the recovery path) is indexed from one verified
  /// mapping, so a damaged file fails here with Corruption.
  Status AddSegment(ColumnarSegment segment);

  /// The one publish step for every data move after ingest (see
  /// storage/rewrite.h): atomically swaps the published segments
  /// `old_segments` (matched by identity; may be empty) for
  /// `replacements`, and, when `sideline` is set, the raw sideline for
  /// `*sideline`. All-or-nothing: when any of `old_segments` is no longer
  /// published (a concurrent rewrite won the race), nothing is touched
  /// and false is returned. The catalog lock is held across the whole
  /// swap, so a concurrent Snapshot sees either the old or the new state,
  /// never a mix that would double-count or drop rows. Row counts may be
  /// redistributed across the replacements; only the total must be
  /// conserved (the caller's duty, not checked here).
  ///
  /// Placement: a one-for-one replacement takes the old segment's slot;
  /// otherwise the old segments are removed and the replacements appended
  /// in order, as AddSegment does. Replacements are indexed and
  /// spilled before any lock is taken; when a replacement's index cannot
  /// be built nothing is published, false is returned and `*failure`
  /// (when given) says why. A sideline swap requires restructure_mu()
  /// held across the preceding sideline read.
  bool ReplaceSegments(const std::vector<SegmentRef>& old_segments,
                       std::vector<ColumnarSegment> replacements,
                       std::optional<RawStore> sideline = std::nullopt,
                       Status* failure = nullptr);

  /// Consistent point-in-time view of every published segment, in
  /// publish order. Safe against concurrent appends/replacements,
  /// including a concurrent multi-segment ReplaceSegments.
  std::vector<SegmentRef> SnapshotSegments() const;

  /// Atomic combined snapshot of segments + sideline: sees either the
  /// pre- or the post-state of any concurrent ReplaceSegments, never a
  /// half-applied one. The scan path for full scans.
  CatalogSnapshot Snapshot() const;

  /// Appends a batch of records under a single lock acquisition
  /// (the per-chunk path of a loader pool: one lock per chunk, not per
  /// record).
  void AppendRawBatch(const std::vector<std::string_view>& records);

  /// Point-in-time view of the raw sideline. Safe against a concurrent
  /// sideline swap (promotion/backfill); concurrent *appends* still
  /// require the quiescence the legacy pipeline already assumes.
  std::shared_ptr<const RawStore> SnapshotRaw() const;

  // --- Flat view, publish order ---
  size_t num_segments() const;
  /// Quiescent accessor; the reference is invalidated by ReplaceSegments.
  const ColumnarSegment& segment(size_t i) const;

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
  columnar::Schema schema_;
  mutable std::mutex restructure_mu_;
  /// Guards `segments_` and the `raw_` pointer (and appends through it).
  /// ReplaceSegments holds it across the whole swap of segments and
  /// sideline, so readers see any multi-segment publish either fully
  /// applied or not at all.
  mutable std::mutex mu_;
  /// Published segments, in publish order.
  std::vector<SegmentRef> segments_;
  std::shared_ptr<RawStore> raw_;

  /// The step every publish runs on a segment, BEFORE mu_ is taken (file
  /// I/O must never run under it): builds the index and an empty
  /// LearnedBits when the segment has no index — from the heap bytes, or
  /// from a verified mapping of a disk-resident file — then spills heap
  /// bytes to the attached store.
  /// A failed build is returned; a failed spill is not (the segment keeps
  /// its heap bytes — still correct, retried by the next checkpoint).
  Status PrepareForPublish(ColumnarSegment* segment);

  SegmentStore* store_ = nullptr;
  std::atomic<uint64_t> loaded_rows_{0};
  std::atomic<uint64_t> columnar_bytes_{0};
};

}  // namespace ciao

#endif  // CIAO_STORAGE_CATALOG_H_
