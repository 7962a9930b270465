#include "columnar/file_reader.h"

#include <cstring>

#include "columnar/encoding.h"
#include "columnar/wire.h"
#include "common/crc32.h"

namespace ciao::columnar {

namespace {

constexpr std::string_view kMagic = "CIAOCOL1";
constexpr std::string_view kEndMagic = "CIAOEND1";
constexpr uint32_t kGroupMarker = 0x50555247;   // "GRUP"
constexpr uint32_t kFooterMarker = 0x544F4F46;  // "FOOT"

Status ParseZoneMaps(wire::Cursor* cursor, std::vector<ZoneMap>* out) {
  uint32_t zm_count = 0;
  CIAO_RETURN_IF_ERROR(cursor->ReadU32(&zm_count));
  // u8 has_minmax + f64 min + f64 max + u64 null_count per zone map.
  CIAO_RETURN_IF_ERROR(cursor->CheckCount(zm_count, 25, "zone-map count"));
  out->resize(zm_count);
  for (ZoneMap& zm : *out) {
    uint8_t has = 0;
    CIAO_RETURN_IF_ERROR(cursor->ReadU8(&has));
    zm.has_minmax = has != 0;
    CIAO_RETURN_IF_ERROR(cursor->ReadF64(&zm.min));
    CIAO_RETURN_IF_ERROR(cursor->ReadF64(&zm.max));
    CIAO_RETURN_IF_ERROR(cursor->ReadU64(&zm.null_count));
  }
  return Status::OK();
}

/// Parses the optional match-density summary trailing the zone maps.
/// Files written before the summary existed end right after the zone
/// maps; an exhausted cursor therefore means "absent", not corruption.
Status ParseMatchCounts(wire::Cursor* cursor, size_t num_predicates,
                        std::vector<uint32_t>* out) {
  out->clear();
  if (cursor->AtEnd()) return Status::OK();
  uint32_t count = 0;
  CIAO_RETURN_IF_ERROR(cursor->ReadU32(&count));
  if (count != num_predicates) {
    return Status::Corruption("row group: match-density count mismatch");
  }
  out->resize(count);
  for (uint32_t& c : *out) {
    CIAO_RETURN_IF_ERROR(cursor->ReadU32(&c));
  }
  return Status::OK();
}

}  // namespace

Result<TableReader> TableReader::Open(std::string file_bytes) {
  TableReader reader;
  reader.owned_ = std::move(file_bytes);
  return OpenImpl(std::move(reader));
}

Result<TableReader> TableReader::OpenBorrowed(std::string_view file_bytes,
                                              ChecksumMode checksum) {
  TableReader reader;
  reader.borrowed_ = file_bytes;
  reader.checksum_ = checksum;
  return OpenImpl(std::move(reader));
}

Result<TableReader> TableReader::OpenImpl(TableReader reader) {
  const std::string_view data = reader.data();

  if (data.size() < kMagic.size() || data.substr(0, kMagic.size()) != kMagic) {
    return Status::Corruption("columnar file: bad magic");
  }
  auto framing = std::make_shared<FileFraming>();
  framing->file_size = data.size();
  size_t offset = kMagic.size();
  CIAO_ASSIGN_OR_RETURN(framing->schema, Schema::Deserialize(data, &offset));

  wire::Cursor cursor(data, offset);
  while (true) {
    uint32_t marker = 0;
    CIAO_RETURN_IF_ERROR(cursor.ReadU32(&marker));
    if (marker == kFooterMarker) break;
    if (marker != kGroupMarker) {
      return Status::Corruption("columnar file: bad group marker");
    }
    RowGroupFraming g;
    uint32_t header_len = 0;
    CIAO_RETURN_IF_ERROR(cursor.ReadU32(&header_len));
    g.header_offset = cursor.position();
    g.header_len = header_len;
    CIAO_RETURN_IF_ERROR(cursor.Skip(header_len));
    uint32_t body_len = 0;
    CIAO_RETURN_IF_ERROR(cursor.ReadU32(&body_len));
    g.body_offset = cursor.position();
    g.body_len = body_len;
    CIAO_RETURN_IF_ERROR(cursor.Skip(body_len));
    CIAO_RETURN_IF_ERROR(cursor.ReadU32(&g.crc));
    framing->groups.push_back(g);
  }
  uint32_t declared_groups = 0;
  CIAO_RETURN_IF_ERROR(cursor.ReadU32(&declared_groups));
  if (declared_groups != framing->groups.size()) {
    return Status::Corruption("columnar file: footer group count mismatch");
  }
  std::string_view end;
  CIAO_RETURN_IF_ERROR(cursor.ReadRaw(kEndMagic.size(), &end));
  if (end != kEndMagic) {
    return Status::Corruption("columnar file: bad end magic");
  }
  reader.framing_ = std::move(framing);
  return reader;
}

Result<TableReader> TableReader::FromIndex(const SegmentIndex& index,
                                           std::string_view file_bytes) {
  CIAO_RETURN_IF_ERROR(index.Matches(file_bytes));
  TableReader reader;
  reader.borrowed_ = file_bytes;
  reader.checksum_ = ChecksumMode::kTrust;
  reader.framing_ = index.framing_;
  return reader;
}

Result<RowGroupMeta> TableReader::ReadMeta(size_t i) const {
  if (i >= num_row_groups()) {
    return Status::OutOfRange("ReadMeta: group index out of range");
  }
  const RowGroupFraming& g = framing_->groups[i];
  const std::string_view header =
      data().substr(g.header_offset, g.header_len);
  wire::Cursor cursor(header);
  RowGroupMeta meta;
  CIAO_RETURN_IF_ERROR(cursor.ReadU64(&meta.num_rows));
  size_t pos = cursor.position();
  CIAO_ASSIGN_OR_RETURN(meta.annotations,
                        BitVectorSet::Deserialize(header, &pos));
  cursor = wire::Cursor(header, pos);
  CIAO_RETURN_IF_ERROR(ParseZoneMaps(&cursor, &meta.zone_maps));
  CIAO_RETURN_IF_ERROR(ParseMatchCounts(
      &cursor, meta.annotations.num_predicates(), &meta.match_counts));
  if (meta.annotations.num_predicates() > 0 &&
      meta.annotations.num_records() != meta.num_rows) {
    return Status::Corruption("row group: annotation length mismatch");
  }
  return meta;
}

Result<RecordBatch> TableReader::ReadBatch(size_t i) const {
  CIAO_ASSIGN_OR_RETURN(
      RecordBatch batch,
      ReadBatchProjected(i, std::vector<bool>(schema().num_fields(), true)));
  CIAO_RETURN_IF_ERROR(batch.Validate());
  return batch;
}

Result<RecordBatch> TableReader::ReadBatchProjected(
    size_t i, const std::vector<bool>& wanted, DecodeStats* stats) const {
  if (i >= num_row_groups()) {
    return Status::OutOfRange("ReadBatch: group index out of range");
  }
  const Schema& schema = this->schema();
  if (wanted.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "ReadBatchProjected: projection mask size != schema");
  }
  const RowGroupFraming& g = framing_->groups[i];
  const std::string_view data = this->data();
  const std::string_view header = data.substr(g.header_offset, g.header_len);
  const std::string_view body = data.substr(g.body_offset, g.body_len);

  wire::Cursor peek(body);
  uint32_t first = 0;
  CIAO_RETURN_IF_ERROR(peek.ReadU32(&first));
  if (first == kGroupedBodyTag) {
    return ReadGroupedBody(body, wanted, stats);
  }

  // Legacy per-column body. The group CRC spans header + whole body;
  // per-chunk verification is a v4-only capability.
  if (checksum_ == ChecksumMode::kVerify) {
    uint32_t crc = Crc32(header);
    crc = Crc32(body.data(), body.size(), crc);
    if (crc != g.crc) {
      return Status::Corruption("row group: CRC mismatch");
    }
  }

  wire::Cursor cursor(body);
  uint32_t ncols = 0;
  CIAO_RETURN_IF_ERROR(cursor.ReadU32(&ncols));
  if (ncols != schema.num_fields()) {
    return Status::Corruption("row group: column count != schema");
  }
  RecordBatch batch(schema);
  for (uint32_t c = 0; c < ncols; ++c) {
    // Columns are length-prefixed, so unwanted ones are skipped without
    // decoding — the point of columnar layouts.
    std::string_view encoded;
    CIAO_RETURN_IF_ERROR(cursor.ReadBytes(&encoded));
    if (!wanted[c]) continue;
    size_t pos = 0;
    CIAO_ASSIGN_OR_RETURN(ColumnVector col, DecodeColumn(encoded, &pos));
    if (col.type() != schema.field(c).type) {
      return Status::Corruption("row group: column type != schema");
    }
    *batch.mutable_column(c) = std::move(col);
    if (stats != nullptr) {
      ++stats->columns_decoded;
      stats->bytes_decoded += encoded.size();
    }
  }
  return batch;
}

Result<RecordBatch> TableReader::ReadGroupedBody(std::string_view body,
                                                 const std::vector<bool>& wanted,
                                                 DecodeStats* stats) const {
  const Schema& schema = this->schema();
  wire::Cursor cursor(body);
  uint32_t tag = 0;
  CIAO_RETURN_IF_ERROR(cursor.ReadU32(&tag));
  uint32_t ncols = 0;
  CIAO_RETURN_IF_ERROR(cursor.ReadU32(&ncols));
  if (ncols != schema.num_fields()) {
    return Status::Corruption("row group: column count != schema");
  }
  uint32_t nchunks = 0;
  CIAO_RETURN_IF_ERROR(cursor.ReadU32(&nchunks));
  if (nchunks == 0 || nchunks > ncols) {
    return Status::Corruption("row group: bad chunk count");
  }

  struct ChunkEntry {
    std::vector<uint32_t> columns;
    size_t offset = 0;
    size_t length = 0;
    uint32_t crc = 0;
  };
  std::vector<ChunkEntry> directory(nchunks);
  size_t covered = 0;
  for (ChunkEntry& entry : directory) {
    uint32_t k = 0;
    CIAO_RETURN_IF_ERROR(cursor.ReadU32(&k));
    if (k == 0 || k > ncols) {
      return Status::Corruption("row group: bad chunk column count");
    }
    entry.columns.resize(k);
    for (uint32_t& c : entry.columns) {
      CIAO_RETURN_IF_ERROR(cursor.ReadU32(&c));
      if (c >= ncols) {
        return Status::Corruption("row group: chunk column out of range");
      }
    }
    uint32_t len = 0;
    CIAO_RETURN_IF_ERROR(cursor.ReadU32(&len));
    entry.length = len;
    CIAO_RETURN_IF_ERROR(cursor.ReadU32(&entry.crc));
    covered += k;
  }
  if (covered != ncols) {
    return Status::Corruption("row group: chunks do not cover the schema");
  }
  // Chunk offsets are cumulative over the directory order.
  size_t offset = cursor.position();
  for (ChunkEntry& entry : directory) {
    entry.offset = offset;
    offset += entry.length;
    if (offset > body.size()) {
      return Status::Corruption("row group: chunk past body end");
    }
  }
  if (offset != body.size()) {
    return Status::Corruption("row group: chunk lengths != body length");
  }

  RecordBatch batch(schema);
  std::vector<bool> installed(ncols, false);
  for (const ChunkEntry& entry : directory) {
    bool touched = false;
    for (const uint32_t c : entry.columns) {
      if (wanted[c]) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    const std::string_view chunk = body.substr(entry.offset, entry.length);
    // Chunk-granular integrity: only the chunks a projection touches are
    // re-hashed — the whole point of giving each column group its own
    // checksum domain.
    if (checksum_ == ChecksumMode::kVerify && Crc32(chunk) != entry.crc) {
      return Status::Corruption("row group: chunk CRC mismatch");
    }
    // Columns inside a chunk carry no framing: reaching column j decodes
    // its predecessors. They are installed rather than discarded — the
    // batch remains a projection superset, and the waste is what the
    // bytes_wasted counter (and the regret ledger's column half) charges.
    size_t pos = 0;
    for (const uint32_t c : entry.columns) {
      const size_t before = pos;
      CIAO_ASSIGN_OR_RETURN(ColumnVector col, DecodeColumn(chunk, &pos));
      if (col.type() != schema.field(c).type) {
        return Status::Corruption("row group: column type != schema");
      }
      if (installed[c]) {
        return Status::Corruption("row group: column decoded twice");
      }
      installed[c] = true;
      *batch.mutable_column(c) = std::move(col);
      if (stats != nullptr) {
        ++stats->columns_decoded;
        stats->bytes_decoded += pos - before;
        if (!wanted[c]) stats->bytes_wasted += pos - before;
      }
    }
    if (pos != chunk.size()) {
      return Status::Corruption("row group: chunk has trailing bytes");
    }
  }
  return batch;
}

Result<uint64_t> TableReader::TotalRows() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_row_groups(); ++i) {
    CIAO_ASSIGN_OR_RETURN(RowGroupMeta meta, ReadMeta(i));
    total += meta.num_rows;
  }
  return total;
}

Status TableReader::VerifyAllGroups() const {
  // The writer stamps every group with a CRC over header + whole body
  // (v4 grouped bodies additionally carry per-chunk CRCs, but the group
  // CRC already covers those bytes), so one pass proves the entire file.
  const std::string_view data = this->data();
  for (size_t i = 0; i < num_row_groups(); ++i) {
    const RowGroupFraming& g = framing_->groups[i];
    uint32_t crc = Crc32(data.substr(g.header_offset, g.header_len));
    crc = Crc32(data.data() + g.body_offset, g.body_len, crc);
    if (crc != g.crc) {
      return Status::Corruption("columnar file: group " + std::to_string(i) +
                                " CRC mismatch");
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const SegmentIndex>> SegmentIndex::Build(
    std::string_view file_bytes) {
  CIAO_ASSIGN_OR_RETURN(
      const TableReader reader,
      TableReader::OpenBorrowed(file_bytes, ChecksumMode::kTrust));
  std::shared_ptr<SegmentIndex> index(new SegmentIndex());
  index->groups_.reserve(reader.num_row_groups());
  for (size_t g = 0; g < reader.num_row_groups(); ++g) {
    CIAO_ASSIGN_OR_RETURN(RowGroupMeta meta, reader.ReadMeta(g));
    index->groups_.push_back(std::move(meta));
  }
  index->framing_ = reader.framing_;
  return std::shared_ptr<const SegmentIndex>(std::move(index));
}

Status SegmentIndex::Matches(std::string_view file_bytes) const {
  if (file_bytes.size() != framing_->file_size) {
    return Status::Corruption("segment index: file size differs");
  }
  // Offsets were validated against a file of this very size at Build.
  for (const RowGroupFraming& g : framing_->groups) {
    uint32_t crc = 0;
    std::memcpy(&crc, file_bytes.data() + g.body_offset + g.body_len, 4);
    if (crc != g.crc) {
      return Status::Corruption("segment index: group CRC field differs");
    }
  }
  return Status::OK();
}

}  // namespace ciao::columnar
