#ifndef CIAO_STORAGE_REWRITE_H_
#define CIAO_STORAGE_REWRITE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "columnar/file_writer.h"
#include "columnar/record_batch.h"
#include "common/status.h"
#include "predicate/predicate.h"
#include "predicate/registry.h"
#include "storage/catalog.h"

namespace ciao {

/// Which sideline records a sideline rewrite moves into columnar form.
enum class SidelineSelect {
  /// Every record (compaction).
  kAll,
  /// Records the query's raw clause screen cannot rule out (query-driven
  /// JIT promotion). The screen has no false negatives, so a record it
  /// rules out provably does not satisfy the query.
  kQueryScreen,
  /// Records carrying at least one client-prefilter bit of the registry
  /// (backfill: restores "every record matching a pushed clause is
  /// loaded" for a new epoch).
  kAnyClientBit,
};

/// The rows one rewrite reads: published segments, or a selection of
/// sideline records. The kind decides the annotator:
///
///  - Segment input: every input segment is pinned (CRC-verified when
///    mapped) and decoded with checksum verification; each row group gets
///    exact bits from one vectorized clause per registered predicate, and
///    the outputs are marked `annotations_exact`.
///  - Sideline input (`segments` empty): the selected records get the
///    client prefilter's bits over their raw bytes (a superset, so
///    `annotations_exact` stays false) and are parsed; records that fail
///    to parse stay raw.
struct RewriteInput {
  std::vector<SegmentRef> segments;
  /// Sideline snapshot, read when `segments` is empty. Callers hold
  /// `restructure_mu()` from taking it until the rewrite returns.
  std::shared_ptr<const RawStore> sideline;
  SidelineSelect select = SidelineSelect::kAll;
  /// The screening query for SidelineSelect::kQueryScreen.
  const Query* query = nullptr;
};

/// One annotated input row group: decoded (or parsed) rows and their bits
/// in the registry's id space.
struct AnnotatedGroup {
  columnar::RecordBatch batch;
  BitVectorSet bits;
};

/// An input row's place in the output, and the run it joins. Rows of
/// different runs never share an output row group.
struct RowRef {
  uint32_t group = 0;
  uint32_t row = 0;
  uint32_t run = 0;
};

/// Orders the annotated input rows for writing. Every input row must
/// appear exactly once. A null order keeps input order in one run.
using RowOrder =
    std::function<std::vector<RowRef>(const std::vector<AnnotatedGroup>&)>;

/// Rows per output group when a caller has no better size (the ingest
/// pipeline's default chunk granularity).
inline constexpr size_t kDefaultRewriteRowsPerGroup = 4096;

/// Physical shape of the output files.
struct RewriteLayout {
  /// Rows per output row group; 0 makes each run one row group.
  size_t rows_per_group = 0;
  /// Row groups per output file; 0 puts every group in one file.
  size_t groups_per_file = 0;
  /// Column-group layout of the output bodies; empty keeps the legacy
  /// per-column body.
  columnar::ColumnGroupLayout columns;
};

/// Counters of one rewrite.
struct RewriteStats {
  uint64_t segments_read = 0;
  uint64_t groups_read = 0;
  /// Rows decoded from the input segments, or sideline records parsed.
  uint64_t rows_read = 0;
  /// Sideline records the selection left raw, unparsed.
  uint64_t records_unselected = 0;
  /// Selected sideline records that failed to parse; they stay raw.
  uint64_t parse_failures = 0;
  /// Output shape; set only when published.
  uint64_t files_written = 0;
  uint64_t groups_written = 0;
  /// True iff the catalog took the output.
  bool published = false;
};

/// The one way data moves after ingest: backfill, re-layout, JIT
/// promotion and compaction are callers. Reads `input`'s rows, annotates
/// them for `registry` (see RewriteInput), lets `order` arrange them into
/// runs, packs each run into `layout.rows_per_group`-row groups (a run's
/// last group may be short), seals `layout.groups_per_file` groups per
/// file, and publishes every file tagged `annotation_epoch` through one
/// all-or-nothing TableCatalog::ReplaceSegments call: the input segments
/// are swapped for the outputs, or the promoted segment is added and the
/// sideline swapped for the records that stayed raw.
///
/// When no row moves, nothing is published. When a concurrent rewrite
/// already replaced an input segment, nothing is published either and
/// `stats->published` is false: the catalog is untouched.
Status RewriteSegments(TableCatalog* catalog, const PredicateRegistry& registry,
                       uint64_t annotation_epoch, const RewriteInput& input,
                       const RowOrder& order, const RewriteLayout& layout,
                       RewriteStats* stats);

}  // namespace ciao

#endif  // CIAO_STORAGE_REWRITE_H_
