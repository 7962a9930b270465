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

/// Heuristic used by EncodeColumn, exposed for tests: dictionary pays off
/// when distinct < 1/2 of rows and fits narrow codes.
bool ShouldDictionaryEncode(size_t distinct, size_t rows);

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_ENCODING_H_
