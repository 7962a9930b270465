#ifndef CIAO_COLUMNAR_ENCODING_H_
#define CIAO_COLUMNAR_ENCODING_H_

#include <string>
#include <string_view>

#include "columnar/column_vector.h"
#include "common/status.h"

namespace ciao::columnar {

/// Physical encodings. The encoder picks automatically: strings switch to
/// dictionary when the distinct count is small (low-cardinality columns
/// like log levels, age groups); everything else is PLAIN. Bools are
/// bit-packed inside PLAIN.
enum class Encoding : uint8_t {
  kPlain = 0,
  kDictionary = 1,
};

/// Encodes a column: [type u8][encoding u8][num_rows u64][validity]
/// [payload]. The encoding choice is embedded so readers are
/// self-describing.
///
/// A string column is chosen plain or dictionary in one hashed pass over
/// its valid rows, which gives each row the id of its value in
/// first-seen order. The pass stops, and the column is written plain, as
/// soon as the distinct count makes ShouldDictionaryEncode false; the
/// rule is monotone in that count, so the table never holds more than
/// min(65,535, rows / 2) values. Columns under 16 rows are written plain
/// without hashing. A dictionary lists its values in std::string_view
/// order (unsigned bytes, then length), and a row's code is its value's
/// rank in that order: 1 byte with at most 255 entries, else 2. NULL
/// rows get code 0. A decoded dictionary column is hashed like any
/// other.
void EncodeColumn(const ColumnVector& column, std::string* out);

/// Decodes one column starting at `*offset`; advances past it. Whole
/// arrays are installed, never appended row by row: the validity bitmap
/// moves in, int64/double payloads are one copy, plain strings copy their
/// offsets and arena once, and a dictionary column keeps its codes and
/// distinct values (ColumnVector's dictionary form, no arena).
///
/// NULL slots read the placeholders whatever bytes they carry: 0, 0.0,
/// false, code 0. Every read is bounds-checked, and no allocation is sized
/// before its bytes are known to be present. Corruption (never UB, never
/// an allocation failure) is returned for: an unknown type or encoding
/// byte; a truncated field; a validity or bool payload whose size is not
/// the row count; plain offsets that do not start at 0, do not end at the
/// arena size, or decrease; a NULL row with a non-empty byte range; a
/// dictionary entry count larger than the bytes left; a code width other
/// than 1 or 2; and a code outside the dictionary on a valid row.
Result<ColumnVector> DecodeColumn(std::string_view buffer, size_t* offset);

/// The one rule EncodeColumn applies, exposed for tests: dictionary pays
/// off from 16 rows when distinct <= rows / 2 and fits 2-byte codes
/// (distinct <= 65,535).
bool ShouldDictionaryEncode(size_t distinct, size_t rows);

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_ENCODING_H_
