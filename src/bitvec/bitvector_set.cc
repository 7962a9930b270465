#include "bitvec/bitvector_set.h"

#include <cstring>

namespace ciao {

BitVectorSet::BitVectorSet(size_t num_predicates, size_t num_records)
    : vectors_(num_predicates, BitVector(num_records)) {}

BitVector BitVectorSet::UnionAll() const {
  if (vectors_.empty()) return BitVector(0);
  // Single word-major pass: each output word is the OR across all
  // vectors' corresponding words, written once (vs. one full
  // read-modify-write sweep per vector). Sizes are uniform by
  // construction, padding bits are zero in every input so the union's
  // padding stays zero.
  BitVector out = vectors_[0];
  for (size_t wi = 0; wi < out.num_words(); ++wi) {
    uint64_t w = out.word(wi);
    for (size_t v = 1; v < vectors_.size(); ++v) {
      w |= vectors_[v].word(wi);
    }
    out.SetWord(wi, w);
  }
  return out;
}

Result<BitVector> BitVectorSet::Intersect(
    const std::vector<uint32_t>& predicate_ids) const {
  if (predicate_ids.empty()) {
    return Status::InvalidArgument("Intersect: no predicate ids");
  }
  std::vector<const BitVector*> ptrs;
  ptrs.reserve(predicate_ids.size());
  for (const uint32_t id : predicate_ids) {
    if (id >= vectors_.size()) {
      return Status::OutOfRange("Intersect: predicate id out of range");
    }
    ptrs.push_back(&vectors_[id]);
  }
  return BitVector::IntersectAll(ptrs);
}

Result<BitVectorSet> BitVectorSet::CompactBy(const BitVector& mask) const {
  BitVectorSet out;
  out.vectors_.reserve(vectors_.size());
  for (const BitVector& v : vectors_) {
    CIAO_ASSIGN_OR_RETURN(BitVector compacted, v.CompactBy(mask));
    out.vectors_.push_back(std::move(compacted));
  }
  return out;
}

void BitVectorSet::SerializeTo(std::string* out) const {
  uint32_t count = static_cast<uint32_t>(vectors_.size());
  char buf[4];
  std::memcpy(buf, &count, 4);
  out->append(buf, 4);
  for (const BitVector& v : vectors_) v.SerializeTo(out);
}

Result<BitVectorSet> BitVectorSet::Deserialize(std::string_view buffer,
                                               size_t* offset) {
  if (*offset > buffer.size() || buffer.size() - *offset < 4) {
    return Status::Corruption("BitVectorSet: truncated count");
  }
  uint32_t count = 0;
  std::memcpy(&count, buffer.data() + *offset, 4);
  *offset += 4;
  // Each vector carries at least its u64 size header.
  if (count > (buffer.size() - *offset) / 8) {
    return Status::Corruption("BitVectorSet: count exceeds the bytes left");
  }
  BitVectorSet out;
  out.vectors_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CIAO_ASSIGN_OR_RETURN(BitVector v, BitVector::Deserialize(buffer, offset));
    out.vectors_.push_back(std::move(v));
  }
  // All vectors must be the same length (one bit per record).
  for (const BitVector& v : out.vectors_) {
    if (v.size() != out.vectors_[0].size()) {
      return Status::Corruption("BitVectorSet: inconsistent vector sizes");
    }
  }
  return out;
}

}  // namespace ciao
