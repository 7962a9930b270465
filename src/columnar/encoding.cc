#include "columnar/encoding.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
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

/// Hashes every byte of `s`: URL-like values differ only after long
/// shared prefixes. Eight bytes at a time; a short tail is read with
/// overlapping loads that still cover each of its bytes.
uint64_t HashBytes(std::string_view s) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  const size_t n = s.size();
  const auto load = [](const unsigned char* at, size_t bytes) {
    uint64_t v = 0;
    std::memcpy(&v, at, bytes);
    return v;
  };
  const auto mix = [](uint64_t h, uint64_t v) {
    return std::rotl((h ^ v) * kMul, 29);
  };
  uint64_t h = n * kMul;
  if (n >= 8) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) h = mix(h, load(p + i, 8));
    if (i < n) h = mix(h, load(p + n - 8, 8));
  } else if (n >= 4) {
    h = mix(h, load(p, 4) | load(p + n - 4, 4) << 32);
  } else if (n > 0) {
    h = mix(h, uint64_t{p[0]} | uint64_t{p[n / 2]} << 8 |
                   uint64_t{p[n - 1]} << 16);
  }
  // murmur3's finalizer: every input bit reaches the low (slot) bits.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 33);
}

/// The distinct values of a string column's valid rows, in first-seen
/// order, and each row's 1 + index into them (0 on a NULL row).
struct DistinctValues {
  std::vector<std::string_view> values;
  std::vector<uint32_t> row_ids;
};

/// The one hashed pass over a string column of at least 16 rows.
/// Returns false, and the column is written plain, as soon as a new
/// value makes ShouldDictionaryEncode false. The rule is monotone in the
/// distinct count, so the table never holds more than
/// min(65,535, rows / 2) values and is sized for that at load <= 1/2.
bool CollectDistinct(const ColumnVector& col, DistinctValues* distinct) {
  struct Slot {
    uint32_t tag = 0;  // the hash's high half
    uint32_t id = 0;   // 1 + index into values; 0 = empty
  };
  const size_t rows = col.size();
  const size_t max_entries = std::min<size_t>(0xFFFF, rows / 2);
  std::vector<Slot> table(std::bit_ceil(2 * max_entries));
  const size_t mask = table.size() - 1;
  std::vector<std::string_view>& values = distinct->values;
  distinct->row_ids.assign(rows, 0);
  for (size_t i = 0; i < rows; ++i) {
    if (!col.IsValid(i)) continue;
    const std::string_view value = col.GetString(i);
    const uint64_t hash = HashBytes(value);
    const auto tag = static_cast<uint32_t>(hash >> 32);
    size_t at = hash & mask;
    while (table[at].id != 0 &&
           (table[at].tag != tag || values[table[at].id - 1] != value)) {
      at = (at + 1) & mask;
    }
    if (table[at].id == 0) {
      if (!ShouldDictionaryEncode(values.size() + 1, rows)) return false;
      values.push_back(value);
      table[at] = {tag, static_cast<uint32_t>(values.size())};
    }
    distinct->row_ids[i] = table[at].id;
  }
  return true;
}

/// Writes the dictionary in std::string_view order (unsigned bytes, then
/// length) and each row's code as its value's rank in that order.
void EncodeStringDictionary(const DistinctValues& distinct, std::string* out) {
  const std::vector<std::string_view>& values = distinct.values;
  std::vector<uint32_t> by_rank(values.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::sort(by_rank.begin(), by_rank.end(), [&values](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  // code_of[row id]: a NULL row (id 0) gets code 0, like entry 0.
  std::vector<uint16_t> code_of(values.size() + 1, 0);
  wire::PutU32(static_cast<uint32_t>(values.size()), out);
  for (size_t rank = 0; rank < by_rank.size(); ++rank) {
    code_of[by_rank[rank] + 1] = static_cast<uint16_t>(rank);
    wire::PutBytes(values[by_rank[rank]], out);
  }

  const size_t code_width = values.size() <= 0xFF ? 1 : 2;
  wire::PutU8(static_cast<uint8_t>(code_width), out);
  const std::vector<uint32_t>& ids = distinct.row_ids;
  const size_t start = out->size();
  out->resize(start + ids.size() * code_width);
  auto* codes = reinterpret_cast<uint8_t*>(out->data() + start);
  if (code_width == 1) {
    for (size_t i = 0; i < ids.size(); ++i) {
      codes[i] = static_cast<uint8_t>(code_of[ids[i]]);
    }
  } else {
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint16_t code = code_of[ids[i]];
      codes[2 * i] = static_cast<uint8_t>(code & 0xFF);
      codes[2 * i + 1] = static_cast<uint8_t>(code >> 8);
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

  // Under 16 rows no distinct count qualifies: plain, without hashing.
  DistinctValues distinct;
  const Encoding encoding =
      column.type() == ColumnType::kString &&
              ShouldDictionaryEncode(0, column.size()) &&
              CollectDistinct(column, &distinct)
          ? Encoding::kDictionary
          : Encoding::kPlain;
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
        EncodeStringDictionary(distinct, out);
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
