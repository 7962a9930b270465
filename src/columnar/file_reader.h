#ifndef CIAO_COLUMNAR_FILE_READER_H_
#define CIAO_COLUMNAR_FILE_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "columnar/file_writer.h"
#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/status.h"

namespace ciao::columnar {

/// Header of one row group, readable without decoding any column data —
/// the cheap path the skipping scan uses to decide whether to touch the
/// group at all.
struct RowGroupMeta {
  uint64_t num_rows = 0;
  BitVectorSet annotations;
  std::vector<ZoneMap> zone_maps;
  /// Per-predicate match popcounts (one per annotation slot); empty when
  /// the file predates the density summary. See file_writer.h.
  std::vector<uint32_t> match_counts;
};

/// Whether row-group reads re-verify the body CRC before decoding.
/// `kVerify` (default) guards bytes of unknown provenance — files read
/// back from storage, anything that crossed a process boundary. `kTrust`
/// skips the check for bytes produced by the in-process TableWriter and
/// held in memory ever since (catalog segments): the writer computed the
/// CRC over these exact bytes, so re-hashing the whole group body on
/// every query would cost more than the projected decode it guards.
enum class ChecksumMode {
  kVerify,
  kTrust,
};

/// Decode-volume accounting for one projected read — the physical proof
/// behind ScanStats.{columns_decoded, bytes_decoded}: which column bytes
/// a scan actually fed through the decoder, and how many of them belonged
/// to columns the caller never asked for (decode-to-skip inside a
/// partially-wanted chunk of a v4 grouped body; always 0 on the legacy
/// per-column body, whose length prefixes skip for free).
struct DecodeStats {
  uint64_t columns_decoded = 0;
  uint64_t bytes_decoded = 0;
  uint64_t bytes_wasted = 0;
};

/// Where one row group sits in a columnar file: its header and body byte
/// ranges and the CRC stored after the body.
struct RowGroupFraming {
  size_t header_offset = 0;
  size_t header_len = 0;
  size_t body_offset = 0;
  size_t body_len = 0;
  uint32_t crc = 0;
};

/// A columnar file's parsed framing: what opening a reader validates
/// (magic, schema, group markers and lengths, footer). Immutable once
/// parsed, so readers and a SegmentIndex share one copy.
struct FileFraming {
  uint64_t file_size = 0;
  Schema schema;
  std::vector<RowGroupFraming> groups;
};

class SegmentIndex;

/// Reads files produced by TableWriter. Opening validates magic/footer/
/// group framing; column payloads are decoded lazily per row group, with
/// CRC verification per ChecksumMode.
class TableReader {
 public:
  /// Parses framing and builds the group index, taking ownership.
  static Result<TableReader> Open(std::string file_bytes);

  /// Borrowing variant: `file_bytes` must outlive the reader. The query
  /// executor uses this so per-query scans never copy segment bytes.
  static Result<TableReader> OpenBorrowed(
      std::string_view file_bytes, ChecksumMode checksum = ChecksumMode::kVerify);

  /// A kTrust reader over `file_bytes` that shares `index`'s framing and
  /// parses nothing. Fails with Corruption unless the bytes frame like
  /// the file the index was built from (SegmentIndex::Matches). The
  /// bytes must already be verified (a fresh mapping's VerifyAllGroups)
  /// or writer-produced heap bytes; both must outlive the reader.
  static Result<TableReader> FromIndex(const SegmentIndex& index,
                                       std::string_view file_bytes);

  const Schema& schema() const { return framing_->schema; }
  size_t num_row_groups() const { return framing_->groups.size(); }

  /// Decodes only the header (annotations + zone maps) of group `i`.
  Result<RowGroupMeta> ReadMeta(size_t i) const;

  /// Decodes the columns of group `i` (CRC-verified).
  Result<RecordBatch> ReadBatch(size_t i) const;

  /// Column-pruned read: decodes only the columns covering `wanted` —
  /// exactly the wanted columns on a legacy body, every chunk
  /// intersecting the mask on a v4 grouped body (chunks with no wanted
  /// column are neither decoded nor checksummed; columns that ride along
  /// in a touched chunk are decoded and installed). Unread columns stay
  /// empty placeholder vectors: the returned batch is a *projection* —
  /// only access wanted (or chunk-mate) columns, and take the row count
  /// from ReadMeta, not from the batch. `wanted` must have one entry per
  /// schema field. `stats` (optional) accumulates the decode volume.
  Result<RecordBatch> ReadBatchProjected(size_t i,
                                         const std::vector<bool>& wanted,
                                         DecodeStats* stats = nullptr) const;

  /// Total rows across all groups (from headers; no column decode).
  Result<uint64_t> TotalRows() const;

  /// CRC-checks every row group (header + body bytes) without decoding a
  /// single column — one linear pass over the file. The disk-resident
  /// scan path runs this once per fresh mmap, after which per-query
  /// readers open the mapping from the segment's index (FromIndex, which
  /// trusts the checksums): the bytes were proven intact at map time and
  /// mappings are immutable thereafter.
  Status VerifyAllGroups() const;

 private:
  friend class SegmentIndex;

  TableReader() = default;

  static Result<TableReader> OpenImpl(TableReader reader);

  /// Decodes a v4 column-grouped body (see file_writer.h): parses the
  /// chunk directory, then decodes and (in kVerify mode) CRC-checks only
  /// the chunks intersecting `wanted`.
  Result<RecordBatch> ReadGroupedBody(std::string_view body,
                                      const std::vector<bool>& wanted,
                                      DecodeStats* stats) const;

  /// The file bytes: owned_ when Open() was used, borrowed_ otherwise.
  /// Always access through data() — it re-anchors after moves (an SSO
  /// string's buffer address changes when the reader is moved).
  std::string_view data() const {
    return owned_.empty() ? borrowed_ : std::string_view(owned_);
  }

  std::string owned_;
  std::string_view borrowed_;
  std::shared_ptr<const FileFraming> framing_;
  ChecksumMode checksum_ = ChecksumMode::kVerify;
};

/// The resident index of one immutable columnar file: its framing plus
/// every row group's skip metadata (row count, zone maps, match counts
/// and the annotation bitvectors), parsed once. A scan decides each
/// group from it and touches the file's bytes only for the groups it
/// decodes; a reader opened from it (TableReader::FromIndex) re-parses
/// neither the schema nor a header.
class SegmentIndex {
 public:
  /// Parses the framing and every group header of `file_bytes`. Computes
  /// no CRC: pass bytes the in-process TableWriter produced, or a mapping
  /// that VerifyAllGroups already proved. The index does not borrow the
  /// bytes.
  static Result<std::shared_ptr<const SegmentIndex>> Build(
      std::string_view file_bytes);

  size_t num_row_groups() const { return groups_.size(); }
  const RowGroupMeta& group(size_t i) const { return groups_[i]; }

  /// OK when `file_bytes` frames like the file the index was built from:
  /// the same size, and the same CRC stored after every group body.
  /// Corruption otherwise. Reads one u32 per group; hashes nothing.
  Status Matches(std::string_view file_bytes) const;

 private:
  friend class TableReader;

  SegmentIndex() = default;

  std::shared_ptr<const FileFraming> framing_;
  std::vector<RowGroupMeta> groups_;
};

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_FILE_READER_H_
