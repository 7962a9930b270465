#ifndef CIAO_COLUMNAR_FILE_WRITER_H_
#define CIAO_COLUMNAR_FILE_WRITER_H_

#include <string>

#include "bitvec/bitvector_set.h"
#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/status.h"

namespace ciao::columnar {

/// Per-column min/max/null statistics stored in the row-group header —
/// the classic data-skipping block metadata [Sun et al.]; numeric only.
struct ZoneMap {
  bool has_minmax = false;
  double min = 0.0;
  double max = 0.0;
  uint64_t null_count = 0;
};

/// Computes zone maps for every column of `batch` (non-numeric columns
/// get null_count only).
std::vector<ZoneMap> ComputeZoneMaps(const RecordBatch& batch);

/// A partition of the schema's columns into co-access groups — the
/// workload-mined vertical layout (storage/column_grouping mines it; the
/// trivial layouts below are the ablation endpoints). Within the v4 body
/// each group becomes one contiguous *chunk*: its columns stream
/// back-to-back with no per-column length prefixes, so the chunk is the
/// physical decode-and-checksum unit — touching any column of a group
/// decodes the group, and groups a query does not cover are never read.
struct ColumnGroupLayout {
  /// groups[g] = schema field indices of group g, ascending. Must be a
  /// partition of [0, num_fields): every column in exactly one group.
  std::vector<std::vector<uint32_t>> groups;

  bool empty() const { return groups.empty(); }

  /// Validates that `groups` partitions [0, num_fields).
  Status Validate(size_t num_fields) const;

  /// Every column in one whole-row chunk: the "ungrouped" endpoint that
  /// decodes like a row-major block (the bench baseline).
  static ColumnGroupLayout SingleGroup(size_t num_fields);

  /// Every column its own chunk: the fully-decomposed endpoint
  /// (equivalent decode granularity to the legacy per-column body, plus
  /// per-column checksum domains).
  static ColumnGroupLayout PerColumn(size_t num_fields);
};

/// Serializes a table file:
///
///   "CIAOCOL1" | schema | group* | footer("FOOT", count, "CIAOEND1")
///   group: "GRUP" | u32 header_len | header | u32 body_len | body | crc32
///   header: u64 num_rows | annotations (BitVectorSet) | zone maps
///           | match densities (u32 count, then one u32 popcount per
///             predicate slot; absent in files written before the summary
///             existed — readers treat a header ending at the zone maps
///             as having no densities)
///   body (legacy, no layout):
///           u32 ncols | (u32 len | encoded column)*
///   body (v4, column-grouped — written when a ColumnGroupLayout is set):
///           u32 0xFFFFFFFF (grouped-body tag; impossible as ncols)
///           u32 ncols | u32 nchunks
///           chunk directory: per chunk
///             u32 k | k x u32 column index | u32 chunk_len | u32 crc32
///           chunk payloads back-to-back (offsets = cumulative lengths);
///           each payload = its columns' encodings concatenated with NO
///           per-column framing — the chunk is the decode unit.
///
/// The header is separable from the body so readers can inspect
/// annotations and zone maps *without* decoding columns — that is what
/// makes group-level data skipping nearly free (paper §VI-B). The v4
/// chunk directory extends the same idea to the column axis: per-chunk
/// ranges/offsets let a reader open and CRC-check one column group
/// without touching the others.
class TableWriter {
 public:
  /// `layout` empty = legacy per-column body (the ingest default);
  /// non-empty = v4 grouped body (validated on the first AppendRowGroup).
  explicit TableWriter(Schema schema, ColumnGroupLayout layout = {});

  /// Appends one row group. `annotations` carries the per-predicate
  /// bitvectors for the batch's rows (may be empty: zero predicates).
  /// Fails if the batch does not validate against the schema or the
  /// annotation length mismatches the row count.
  Status AppendRowGroup(const RecordBatch& batch,
                        const BitVectorSet& annotations);

  size_t num_row_groups() const { return num_groups_; }

  /// Finalizes and returns the file bytes, with capacity() equal to
  /// size(). The writer is consumed.
  std::string Finish() &&;

 private:
  Schema schema_;
  ColumnGroupLayout layout_;
  std::string buffer_;
  size_t num_groups_ = 0;
};

/// The grouped-body tag: the first u32 of a v4 body. No legacy body can
/// start with it (a schema cannot have 2^32-1 columns), so readers
/// distinguish the formats from the body bytes alone.
inline constexpr uint32_t kGroupedBodyTag = 0xFFFFFFFFu;

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_FILE_WRITER_H_
