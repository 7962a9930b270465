#include "columnar/file_writer.h"

#include <cmath>
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

}  // namespace

std::vector<ZoneMap> ComputeZoneMaps(const RecordBatch& batch) {
  std::vector<ZoneMap> maps(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnVector& col = batch.column(c);
    ZoneMap& zm = maps[c];
    zm.null_count = col.NullCount();
    if (col.type() != ColumnType::kInt64 &&
        col.type() != ColumnType::kDouble) {
      continue;
    }
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsValid(i)) continue;
      const double v = col.GetNumeric(i);
      if (std::isnan(v)) {
        // NaN is unordered: any min/max covering it proves nothing, so
        // publish no range at all and readers treat the group as "maybe".
        zm.has_minmax = false;
        break;
      }
      if (!zm.has_minmax) {
        zm.has_minmax = true;
        zm.min = v;
        zm.max = v;
      } else {
        if (v < zm.min) zm.min = v;
        if (v > zm.max) zm.max = v;
      }
    }
  }
  return maps;
}

Status ColumnGroupLayout::Validate(size_t num_fields) const {
  std::vector<bool> seen(num_fields, false);
  size_t covered = 0;
  for (const std::vector<uint32_t>& group : groups) {
    if (group.empty()) {
      return Status::InvalidArgument("column group layout: empty group");
    }
    for (size_t i = 0; i < group.size(); ++i) {
      const uint32_t c = group[i];
      if (c >= num_fields) {
        return Status::InvalidArgument(
            "column group layout: column index out of range");
      }
      if (i > 0 && group[i - 1] >= c) {
        return Status::InvalidArgument(
            "column group layout: group columns not ascending");
      }
      if (seen[c]) {
        return Status::InvalidArgument(
            "column group layout: column in two groups");
      }
      seen[c] = true;
      ++covered;
    }
  }
  if (covered != num_fields) {
    return Status::InvalidArgument(
        "column group layout: not a partition of the schema");
  }
  return Status::OK();
}

ColumnGroupLayout ColumnGroupLayout::SingleGroup(size_t num_fields) {
  ColumnGroupLayout layout;
  layout.groups.emplace_back();
  layout.groups.back().reserve(num_fields);
  for (size_t c = 0; c < num_fields; ++c) {
    layout.groups.back().push_back(static_cast<uint32_t>(c));
  }
  return layout;
}

ColumnGroupLayout ColumnGroupLayout::PerColumn(size_t num_fields) {
  ColumnGroupLayout layout;
  layout.groups.reserve(num_fields);
  for (size_t c = 0; c < num_fields; ++c) {
    layout.groups.push_back({static_cast<uint32_t>(c)});
  }
  return layout;
}

TableWriter::TableWriter(Schema schema, ColumnGroupLayout layout)
    : schema_(std::move(schema)), layout_(std::move(layout)) {
  buffer_.append(kMagic);
  schema_.SerializeTo(&buffer_);
}

Status TableWriter::AppendRowGroup(const RecordBatch& batch,
                                   const BitVectorSet& annotations) {
  CIAO_RETURN_IF_ERROR(batch.Validate());
  if (!(batch.schema() == schema_)) {
    return Status::InvalidArgument("AppendRowGroup: schema mismatch");
  }
  if (annotations.num_predicates() > 0 &&
      annotations.num_records() != batch.num_rows()) {
    return Status::InvalidArgument(
        "AppendRowGroup: annotation length != row count");
  }

  std::string header;
  wire::PutU64(batch.num_rows(), &header);
  annotations.SerializeTo(&header);
  const std::vector<ZoneMap> zone_maps = ComputeZoneMaps(batch);
  wire::PutU32(static_cast<uint32_t>(zone_maps.size()), &header);
  for (const ZoneMap& zm : zone_maps) {
    wire::PutU8(zm.has_minmax ? 1 : 0, &header);
    wire::PutF64(zm.min, &header);
    wire::PutF64(zm.max, &header);
    wire::PutU64(zm.null_count, &header);
  }
  // Match-density summary: popcount of each annotation vector, one u32
  // per predicate slot. Lets the skipping scan rule a group in or out
  // (density 0 → skip, density == num_rows → every row is a candidate)
  // without decoding bitvector words. Readers of pre-summary files see
  // the header end here and treat the summary as absent.
  wire::PutU32(static_cast<uint32_t>(annotations.num_predicates()), &header);
  for (size_t p = 0; p < annotations.num_predicates(); ++p) {
    wire::PutU32(static_cast<uint32_t>(annotations.vector(p).CountOnes()),
                 &header);
  }

  std::string body;
  if (layout_.empty()) {
    // Legacy per-column body: each column length-prefixed, individually
    // skippable.
    wire::PutU32(static_cast<uint32_t>(batch.num_columns()), &body);
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      // Encoded in place after a length slot filled in afterwards.
      const size_t length_at = body.size();
      wire::PutU32(0, &body);
      EncodeColumn(batch.column(c), &body);
      const auto length = static_cast<uint32_t>(body.size() - length_at - 4);
      std::memcpy(body.data() + length_at, &length, 4);
    }
  } else {
    // v4 grouped body: directory of per-chunk (columns, length, crc),
    // then the chunk payloads back-to-back. Columns inside a chunk carry
    // no framing — the chunk is the decode unit.
    CIAO_RETURN_IF_ERROR(layout_.Validate(batch.num_columns()));
    std::vector<std::string> chunks;
    chunks.reserve(layout_.groups.size());
    for (const std::vector<uint32_t>& group : layout_.groups) {
      std::string chunk;
      for (const uint32_t c : group) {
        EncodeColumn(batch.column(c), &chunk);
      }
      chunks.push_back(std::move(chunk));
    }
    wire::PutU32(kGroupedBodyTag, &body);
    wire::PutU32(static_cast<uint32_t>(batch.num_columns()), &body);
    wire::PutU32(static_cast<uint32_t>(layout_.groups.size()), &body);
    for (size_t g = 0; g < layout_.groups.size(); ++g) {
      const std::vector<uint32_t>& group = layout_.groups[g];
      wire::PutU32(static_cast<uint32_t>(group.size()), &body);
      for (const uint32_t c : group) wire::PutU32(c, &body);
      wire::PutU32(static_cast<uint32_t>(chunks[g].size()), &body);
      wire::PutU32(Crc32(chunks[g]), &body);
    }
    for (const std::string& chunk : chunks) body.append(chunk);
  }

  wire::PutU32(kGroupMarker, &buffer_);
  wire::PutBytes(header, &buffer_);
  wire::PutBytes(body, &buffer_);
  uint32_t crc = Crc32(header);
  crc = Crc32(body.data(), body.size(), crc);
  wire::PutU32(crc, &buffer_);
  ++num_groups_;
  return Status::OK();
}

std::string TableWriter::Finish() && {
  wire::PutU32(kFooterMarker, &buffer_);
  wire::PutU32(static_cast<uint32_t>(num_groups_), &buffer_);
  buffer_.append(kEndMagic);
  // Appends left up to half the capacity unused; an in-RAM segment keeps
  // these bytes for its whole life, so seal them at their size.
  buffer_.shrink_to_fit();
  return std::move(buffer_);
}

}  // namespace ciao::columnar
