#include "columnar/column_vector.h"

namespace ciao::columnar {

ColumnVector::ColumnVector(ColumnType type) : type_(type) {}

void ColumnVector::DropDictionary() {
  if (!dict_values_.empty()) {
    // Build the arena the appends extend: valid rows copy their entry,
    // NULL slots stay empty.
    offsets_.clear();
    offsets_.reserve(size_ + 1);
    offsets_.push_back(0);
    buffer_.clear();
    for (size_t i = 0; i < size_; ++i) {
      if (validity_.Get(i)) buffer_.append(dict_values_[dict_codes_[i]]);
      offsets_.push_back(static_cast<uint32_t>(buffer_.size()));
    }
    dict_codes_.clear();
    dict_values_.clear();
  }
}

void ColumnVector::AppendNull() {
  DropDictionary();
  validity_.PushBack(false);
  switch (type_) {
    case ColumnType::kInt64:
      ints_.push_back(0);
      break;
    case ColumnType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ColumnType::kBool:
      bools_.PushBack(false);
      break;
    case ColumnType::kString:
      offsets_.push_back(static_cast<uint32_t>(buffer_.size()));
      break;
  }
  ++size_;
}

void ColumnVector::AppendInt64(int64_t v) {
  DropDictionary();
  validity_.PushBack(true);
  ints_.push_back(v);
  ++size_;
}

void ColumnVector::AppendDouble(double v) {
  DropDictionary();
  validity_.PushBack(true);
  doubles_.push_back(v);
  ++size_;
}

void ColumnVector::AppendBool(bool v) {
  DropDictionary();
  validity_.PushBack(true);
  bools_.PushBack(v);
  ++size_;
}

void ColumnVector::AppendString(std::string_view v) {
  DropDictionary();
  validity_.PushBack(true);
  buffer_.append(v);
  offsets_.push_back(static_cast<uint32_t>(buffer_.size()));
  ++size_;
}

bool ColumnVector::Equals(const ColumnVector& other) const {
  if (type_ != other.type_ || size_ != other.size_) return false;
  if (!(validity_ == other.validity_)) return false;
  for (size_t i = 0; i < size_; ++i) {
    if (!IsValid(i)) continue;
    switch (type_) {
      case ColumnType::kInt64:
        if (GetInt64(i) != other.GetInt64(i)) return false;
        break;
      case ColumnType::kDouble:
        if (GetDouble(i) != other.GetDouble(i)) return false;
        break;
      case ColumnType::kBool:
        if (GetBool(i) != other.GetBool(i)) return false;
        break;
      case ColumnType::kString:
        if (GetString(i) != other.GetString(i)) return false;
        break;
    }
  }
  return true;
}

}  // namespace ciao::columnar
