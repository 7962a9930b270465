#ifndef CIAO_COLUMNAR_COLUMN_VECTOR_H_
#define CIAO_COLUMNAR_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bitvec/bitvector.h"
#include "columnar/schema.h"
#include "common/status.h"

namespace ciao::columnar {

/// In-memory column of one type with a validity bitmap. A string column
/// holds its strings in exactly one of two forms, so scans return
/// zero-copy string_views either way (significant for per-query scan
/// cost, which the paper's Fig 8/10/12 measure):
///   - arena: one buffer addressed by size()+1 offsets; every column
///     built by appends has this form;
///   - dictionary: one code per row into a list of distinct values, with
///     no arena; a column decoded from dictionary encoding keeps this
///     form (see columnar/encoding.h), and its NULL slots carry code 0.
/// The first append to a dictionary column builds the arena from the
/// codes and drops the dictionary.
class ColumnVector {
 public:
  explicit ColumnVector(ColumnType type = ColumnType::kString);

  ColumnType type() const { return type_; }
  size_t size() const { return size_; }

  /// Appends a NULL slot (placeholder value keeps indexes aligned).
  void AppendNull();

  /// Typed appends; must match type().
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string_view v);

  bool IsValid(size_t i) const { return validity_.Get(i); }
  size_t NullCount() const { return size_ - validity_.CountOnes(); }

  /// Typed accessors; defined only when IsValid(i) and type matches
  /// (NULL slots return the placeholder: 0, 0.0, false, or an empty
  /// string; on a dictionary column a NULL slot reads entry 0).
  int64_t GetInt64(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  bool GetBool(size_t i) const { return bools_.Get(i); }
  std::string_view GetString(size_t i) const {
    if (has_dictionary()) return dict_values_[dict_codes_[i]];
    return std::string_view(buffer_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  /// Numeric value as double (int64 widened); only for numeric columns.
  double GetNumeric(size_t i) const {
    return type_ == ColumnType::kInt64 ? static_cast<double>(ints_[i])
                                       : doubles_[i];
  }

  const BitVector& validity() const { return validity_; }

  // ---- Batch-kernel accessors (engine/vectorized_eval) ----
  // Contiguous typed spans so kernels read raw arrays instead of per-row
  // virtual access, plus validity/bool payloads one 64-row word at a
  // time. NULL slots hold the typed placeholder (0 / 0.0 / false / empty),
  // so a kernel may compare them freely and mask with ValidityWord after.

  /// Raw int64 span; size() entries when type() == kInt64.
  const int64_t* int_data() const { return ints_.data(); }
  /// Raw double span; size() entries when type() == kDouble.
  const double* double_data() const { return doubles_.data(); }
  /// 64 validity bits starting at row wi*64; padding past size() is zero.
  uint64_t ValidityWord(size_t wi) const { return validity_.word(wi); }
  /// 64 bool payload bits starting at row wi*64 (kBool only); padding
  /// past size() is zero, NULL slots are false.
  uint64_t BoolWord(size_t wi) const { return bools_.word(wi); }

  // ---- Dictionary form (kString columns decoded from dictionary
  // encoding; see columnar/encoding.h) ----
  // When present, dict_codes()[i] indexes dict_values() for every row
  // (NULL rows carry code 0; validity masks them), letting equality
  // kernels compare small integers instead of bytes. The column then has
  // no arena: offsets() and buffer() are empty, and only the decoder
  // creates this form. Any append converts it to the arena form.
  bool has_dictionary() const { return !dict_values_.empty(); }
  const std::vector<uint32_t>& dict_codes() const { return dict_codes_; }
  const std::vector<std::string>& dict_values() const { return dict_values_; }

  /// Deep equality (type, validity, and valid values).
  bool Equals(const ColumnVector& other) const;

  // Internal storage accessors for the codec.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const BitVector& bools() const { return bools_; }
  const std::vector<uint32_t>& offsets() const { return offsets_; }
  const std::string& buffer() const { return buffer_; }

 private:
  ColumnType type_;
  size_t size_ = 0;
  BitVector validity_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  BitVector bools_;
  std::vector<uint32_t> offsets_{0};
  std::string buffer_;
  std::vector<uint32_t> dict_codes_;
  std::vector<std::string> dict_values_;

  /// Converts a dictionary column to the arena form; no-op otherwise.
  void DropDictionary();

  // The decoder installs whole arrays (validity, values, offsets and
  // arena, or codes and dictionary) instead of appending row by row.
  friend Result<ColumnVector> DecodeColumn(std::string_view buffer,
                                           size_t* offset);
};

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_COLUMN_VECTOR_H_
