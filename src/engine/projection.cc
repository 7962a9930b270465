#include "engine/projection.h"

#include <cstring>

namespace ciao {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// Per-type tag bytes fold the value's type into the hash, keeping
// NULL / int 0 / double 0.0 / false / "" pairwise distinct.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagBool = 3;
constexpr uint8_t kTagString = 4;

uint64_t FnvByte(uint64_t h, uint8_t b) { return (h ^ b) * kFnvPrime; }

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = FnvByte(h, p[i]);
  return h;
}

uint64_t FnvU64LE(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) h = FnvByte(h, uint8_t(v >> (8 * i)));
  return h;
}

}  // namespace

uint64_t HashProjectedNull() { return FnvByte(kFnvOffset, kTagNull); }

uint64_t HashProjectedInt64(int64_t v) {
  return FnvU64LE(FnvByte(kFnvOffset, kTagInt64), uint64_t(v));
}

uint64_t HashProjectedDouble(double v) {
  // Bit pattern, so -0.0 != 0.0 and NaN payloads hash as stored.
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvU64LE(FnvByte(kFnvOffset, kTagDouble), bits);
}

uint64_t HashProjectedBool(bool v) {
  return FnvByte(FnvByte(kFnvOffset, kTagBool), v ? 1 : 0);
}

uint64_t HashProjectedString(std::string_view v) {
  return FnvBytes(FnvByte(kFnvOffset, kTagString), v.data(), v.size());
}

ProjectionSpec::ProjectionSpec(const Query& query,
                               const columnar::Schema& schema) {
  columns_.reserve(query.projected.size());
  for (const std::string& name : query.projected) {
    ProjectedColumn col;
    col.field = schema.FieldIndex(name);
    if (col.field >= 0) col.type = schema.field(size_t(col.field)).type;
    columns_.push_back(col);
  }
}

void ProjectionSpec::AddWantedColumns(std::vector<bool>* wanted) const {
  for (const ProjectedColumn& col : columns_) {
    if (col.field >= 0 && size_t(col.field) < wanted->size()) {
      (*wanted)[size_t(col.field)] = true;
    }
  }
}

std::vector<bool> ProjectionSpec::WantedColumnsOnly(size_t num_fields) const {
  std::vector<bool> wanted(num_fields, false);
  AddWantedColumns(&wanted);
  return wanted;
}

void ProjectionSpec::EnsureSize(std::vector<uint64_t>* sums) const {
  if (sums->size() < columns_.size()) sums->resize(columns_.size(), 0);
}

void ProjectionSpec::AccumulateRow(const columnar::RecordBatch& batch,
                                   size_t r,
                                   std::vector<uint64_t>* sums) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ProjectedColumn& spec = columns_[i];
    if (spec.field < 0) {
      (*sums)[i] += HashProjectedNull();
      continue;
    }
    const columnar::ColumnVector& col = batch.column(size_t(spec.field));
    if (!col.IsValid(r)) {
      (*sums)[i] += HashProjectedNull();
      continue;
    }
    switch (spec.type) {
      case columnar::ColumnType::kInt64:
        (*sums)[i] += HashProjectedInt64(col.GetInt64(r));
        break;
      case columnar::ColumnType::kDouble:
        (*sums)[i] += HashProjectedDouble(col.GetDouble(r));
        break;
      case columnar::ColumnType::kBool:
        (*sums)[i] += HashProjectedBool(col.GetBool(r));
        break;
      case columnar::ColumnType::kString:
        (*sums)[i] += HashProjectedString(col.GetString(r));
        break;
    }
  }
}

}  // namespace ciao
