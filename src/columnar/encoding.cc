#include "columnar/encoding.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <vector>

#include "columnar/wire.h"

namespace ciao::columnar {

namespace {

void EncodeStringPlain(const ColumnVector& col, std::string* out) {
  if (col.has_dictionary()) {
    // No arena: write the one that appending the strings row by row
    // builds. Only a dictionary column the encoder would not have
    // written (under 16 rows, or too many distinct values) gets here.
    ColumnVector arena(ColumnType::kString);
    for (size_t i = 0; i < col.size(); ++i) {
      if (col.IsValid(i)) {
        arena.AppendString(col.GetString(i));
      } else {
        arena.AppendNull();
      }
    }
    EncodeStringPlain(arena, out);
    return;
  }
  // Offsets (n+1) then the arena buffer.
  for (const uint32_t off : col.offsets()) wire::PutU32(off, out);
  wire::PutBytes(col.buffer(), out);
}

void EncodeStringDictionary(const ColumnVector& col,
                            const std::map<std::string_view, uint32_t>& dict,
                            std::string* out) {
  wire::PutU32(static_cast<uint32_t>(dict.size()), out);
  // Entries ordered by code: invert the map.
  std::vector<std::string_view> by_code(dict.size());
  for (const auto& [value, code] : dict) by_code[code] = value;
  for (const std::string_view value : by_code) wire::PutBytes(value, out);

  const uint8_t code_width = dict.size() <= 0xFF ? 1 : 2;
  wire::PutU8(code_width, out);
  for (size_t i = 0; i < col.size(); ++i) {
    // NULL rows get code 0 (any value; validity masks them out).
    uint32_t code = 0;
    if (col.IsValid(i)) code = dict.at(col.GetString(i));
    if (code_width == 1) {
      wire::PutU8(static_cast<uint8_t>(code), out);
    } else {
      wire::PutU8(static_cast<uint8_t>(code & 0xFF), out);
      wire::PutU8(static_cast<uint8_t>(code >> 8), out);
    }
  }
}

/// Calls `visit(row)` for every NULL row, walking the zero bits of the
/// validity words, so a column with few NULLs costs one pass over words.
/// Stops at, and returns false on, the first visit that returns false.
template <typename Visit>
bool ForEachNullRow(const BitVector& validity, Visit visit) {
  const size_t rows = validity.size();
  for (size_t wi = 0; wi < validity.num_words(); ++wi) {
    const size_t base = wi * 64;
    uint64_t nulls = ~validity.word(wi);
    if (rows - base < 64) nulls &= (uint64_t{1} << (rows - base)) - 1;
    while (nulls != 0) {
      if (!visit(base + static_cast<size_t>(std::countr_zero(nulls)))) {
        return false;
      }
      nulls &= nulls - 1;
    }
  }
  return true;
}

/// Sets the slot of every NULL row to T{}.
template <typename T>
void ZeroNullSlots(const BitVector& validity, T* data) {
  ForEachNullRow(validity, [data](size_t i) {
    data[i] = T{};
    return true;
  });
}

/// Int64 and double payloads: one little-endian 8-byte slot per row.
template <typename T>
Status DecodeFixedWidth(wire::Cursor* cursor, const BitVector& validity,
                        std::vector<T>* values) {
  static_assert(sizeof(T) == 8);
  std::string_view raw;
  CIAO_RETURN_IF_ERROR(cursor->ReadRaw(validity.size() * sizeof(T), &raw));
  values->resize(validity.size());
  if (!raw.empty()) std::memcpy(values->data(), raw.data(), raw.size());
  ZeroNullSlots(validity, values->data());
  return Status::OK();
}

/// Plain strings: rows + 1 u32 offsets, then the u32-length-prefixed
/// arena.
Status DecodeStringPlain(wire::Cursor* cursor, const BitVector& validity,
                         std::vector<uint32_t>* offsets, std::string* arena) {
  const size_t rows = validity.size();
  std::string_view raw;
  CIAO_RETURN_IF_ERROR(cursor->ReadRaw((rows + 1) * 4, &raw));
  std::string_view bytes;
  CIAO_RETURN_IF_ERROR(cursor->ReadBytes(&bytes));
  offsets->resize(rows + 1);
  std::memcpy(offsets->data(), raw.data(), raw.size());
  const uint32_t* off = offsets->data();
  if (off[0] != 0 || off[rows] != bytes.size()) {
    return Status::Corruption("string column: inconsistent offsets");
  }
  bool decreasing = false;
  for (size_t i = 0; i < rows; ++i) decreasing |= off[i + 1] < off[i];
  if (decreasing) {
    return Status::Corruption("string column: offsets decrease");
  }
  if (!ForEachNullRow(validity, [off](size_t i) {
        return off[i + 1] == off[i];
      })) {
    return Status::Corruption("string column: NULL row has bytes");
  }
  arena->assign(bytes);
  return Status::OK();
}

/// Widens one kWidth-byte little-endian code per row to u32 and returns
/// the largest.
template <size_t kWidth>
uint32_t WidenCodes(const uint8_t* raw, size_t rows, uint32_t* codes) {
  uint32_t max_code = 0;
  for (size_t i = 0; i < rows; ++i) {
    uint32_t code = raw[i * kWidth];
    if constexpr (kWidth == 2) code |= uint32_t{raw[i * 2 + 1]} << 8;
    codes[i] = code;
    max_code = std::max(max_code, code);
  }
  return max_code;
}

/// Dictionary strings: u32 entry count, the u32-length-prefixed entries,
/// a u8 code width (1 or 2), then one code per row.
Status DecodeStringDictionary(wire::Cursor* cursor, const BitVector& validity,
                              std::vector<uint32_t>* codes,
                              std::vector<std::string>* values) {
  const size_t rows = validity.size();
  uint32_t dict_size = 0;
  CIAO_RETURN_IF_ERROR(cursor->ReadU32(&dict_size));
  // Every entry carries at least its u32 length.
  CIAO_RETURN_IF_ERROR(
      cursor->CheckCount(dict_size, 4, "dictionary entry count"));
  std::vector<std::string_view> entries(dict_size);
  for (std::string_view& entry : entries) {
    CIAO_RETURN_IF_ERROR(cursor->ReadBytes(&entry));
  }
  uint8_t code_width = 0;
  CIAO_RETURN_IF_ERROR(cursor->ReadU8(&code_width));
  if (code_width != 1 && code_width != 2) {
    return Status::Corruption("dictionary column: bad code width");
  }
  std::string_view raw;
  CIAO_RETURN_IF_ERROR(cursor->ReadRaw(rows * code_width, &raw));
  codes->resize(rows);
  const auto* bytes = reinterpret_cast<const uint8_t*>(raw.data());
  const uint32_t max_code =
      code_width == 1 ? WidenCodes<1>(bytes, rows, codes->data())
                      : WidenCodes<2>(bytes, rows, codes->data());
  // Only valid rows must index the dictionary; a NULL row's code is
  // replaced by 0 whatever it was.
  if (max_code >= dict_size) {
    const uint32_t* c = codes->data();
    for (size_t i = 0; i < rows; ++i) {
      if (validity.Get(i) && c[i] >= dict_size) {
        return Status::Corruption("dictionary column: code out of range");
      }
    }
  }
  ZeroNullSlots(validity, codes->data());
  values->assign(entries.begin(), entries.end());
  return Status::OK();
}

}  // namespace

bool ShouldDictionaryEncode(size_t distinct, size_t rows) {
  return rows >= 16 && distinct <= 0xFFFF && distinct * 2 <= rows;
}

void EncodeColumn(const ColumnVector& column, std::string* out) {
  wire::PutU8(static_cast<uint8_t>(column.type()), out);

  Encoding encoding = Encoding::kPlain;
  std::map<std::string_view, uint32_t> dict;
  if (column.type() == ColumnType::kString) {
    for (size_t i = 0; i < column.size(); ++i) {
      if (column.IsValid(i)) dict.emplace(column.GetString(i), 0);
      if (dict.size() > 0xFFFF) break;
    }
    if (ShouldDictionaryEncode(dict.size(), column.size())) {
      encoding = Encoding::kDictionary;
      uint32_t next = 0;
      for (auto& [value, code] : dict) code = next++;
    }
  }
  wire::PutU8(static_cast<uint8_t>(encoding), out);
  wire::PutU64(column.size(), out);
  column.validity().SerializeTo(out);

  switch (column.type()) {
    case ColumnType::kInt64: {
      const auto& v = column.ints();
      const size_t bytes = v.size() * sizeof(int64_t);
      const size_t start = out->size();
      out->resize(start + bytes);
      if (bytes > 0) std::memcpy(out->data() + start, v.data(), bytes);
      break;
    }
    case ColumnType::kDouble: {
      const auto& v = column.doubles();
      const size_t bytes = v.size() * sizeof(double);
      const size_t start = out->size();
      out->resize(start + bytes);
      if (bytes > 0) std::memcpy(out->data() + start, v.data(), bytes);
      break;
    }
    case ColumnType::kBool:
      column.bools().SerializeTo(out);
      break;
    case ColumnType::kString:
      if (encoding == Encoding::kDictionary) {
        EncodeStringDictionary(column, dict, out);
      } else {
        EncodeStringPlain(column, out);
      }
      break;
  }
}

Result<ColumnVector> DecodeColumn(std::string_view buffer, size_t* offset) {
  wire::Cursor cursor(buffer, *offset);
  uint8_t type_byte = 0;
  uint8_t encoding_byte = 0;
  uint64_t rows64 = 0;
  CIAO_RETURN_IF_ERROR(cursor.ReadU8(&type_byte));
  CIAO_RETURN_IF_ERROR(cursor.ReadU8(&encoding_byte));
  CIAO_RETURN_IF_ERROR(cursor.ReadU64(&rows64));
  if (type_byte > static_cast<uint8_t>(ColumnType::kString)) {
    return Status::Corruption("column: unknown type byte");
  }
  if (encoding_byte > static_cast<uint8_t>(Encoding::kDictionary)) {
    return Status::Corruption("column: unknown encoding byte");
  }
  const auto type = static_cast<ColumnType>(type_byte);
  const auto encoding = static_cast<Encoding>(encoding_byte);
  const size_t rows = static_cast<size_t>(rows64);

  size_t cpos = cursor.position();
  ColumnVector col(type);
  CIAO_ASSIGN_OR_RETURN(col.validity_, BitVector::Deserialize(buffer, &cpos));
  cursor = wire::Cursor(buffer, cpos);
  if (col.validity_.size() != rows) {
    return Status::Corruption("column: validity size mismatch");
  }
  col.size_ = rows;

  switch (type) {
    case ColumnType::kInt64:
      CIAO_RETURN_IF_ERROR(
          DecodeFixedWidth(&cursor, col.validity_, &col.ints_));
      break;
    case ColumnType::kDouble:
      CIAO_RETURN_IF_ERROR(
          DecodeFixedWidth(&cursor, col.validity_, &col.doubles_));
      break;
    case ColumnType::kBool: {
      size_t bpos = cursor.position();
      CIAO_ASSIGN_OR_RETURN(col.bools_, BitVector::Deserialize(buffer, &bpos));
      cursor = wire::Cursor(buffer, bpos);
      if (col.bools_.size() != rows) {
        return Status::Corruption("bool column: payload size mismatch");
      }
      // NULL slots read false.
      CIAO_RETURN_IF_ERROR(col.bools_.AndWith(col.validity_));
      break;
    }
    case ColumnType::kString:
      if (encoding == Encoding::kPlain) {
        CIAO_RETURN_IF_ERROR(DecodeStringPlain(&cursor, col.validity_,
                                               &col.offsets_, &col.buffer_));
        break;
      }
      CIAO_RETURN_IF_ERROR(DecodeStringDictionary(
          &cursor, col.validity_, &col.dict_codes_, &col.dict_values_));
      if (col.has_dictionary()) {
        col.offsets_.clear();  // the dictionary form has no arena
      } else {
        // No entries, so every row is NULL: an empty arena holds them.
        col.dict_codes_.clear();
        col.offsets_.assign(rows + 1, 0);
      }
      break;
  }
  *offset = cursor.position();
  return col;
}

}  // namespace ciao::columnar
