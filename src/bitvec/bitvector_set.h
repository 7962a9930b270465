#ifndef CIAO_BITVEC_BITVECTOR_SET_H_
#define CIAO_BITVEC_BITVECTOR_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bitvec/bitvector.h"
#include "common/status.h"

namespace ciao {

/// The annotation that travels with each JSON chunk: one BitVector per
/// pushed-down predicate, keyed by predicate id (paper Fig 2). Predicate
/// ids are dense small integers assigned by the PredicateRegistry.
class BitVectorSet {
 public:
  BitVectorSet() = default;

  /// Creates a set holding `num_predicates` vectors of `num_records` bits,
  /// all zero.
  BitVectorSet(size_t num_predicates, size_t num_records);

  size_t num_predicates() const { return vectors_.size(); }
  size_t num_records() const {
    return vectors_.empty() ? 0 : vectors_[0].size();
  }

  const BitVector& vector(size_t predicate_id) const {
    return vectors_[predicate_id];
  }
  BitVector* mutable_vector(size_t predicate_id) {
    return &vectors_[predicate_id];
  }

  /// OR across all predicates: bit i set iff record i satisfies at least
  /// one pushed-down predicate — the paper's partial-loading criterion.
  /// Returns an all-zero vector of num_records bits if the set is empty.
  BitVector UnionAll() const;

  /// AND of the vectors for the given predicate ids; used by data skipping
  /// on conjunctive queries. Ids must be < num_predicates().
  Result<BitVector> Intersect(const std::vector<uint32_t>& predicate_ids) const;

  /// Re-indexes every vector to the records where `mask` is set (see
  /// BitVector::CompactBy).
  Result<BitVectorSet> CompactBy(const BitVector& mask) const;

  /// Binary serialization: [uint32 count][vector]...
  void SerializeTo(std::string* out) const;
  static Result<BitVectorSet> Deserialize(std::string_view buffer,
                                          size_t* offset);

  bool operator==(const BitVectorSet& other) const {
    return vectors_ == other.vectors_;
  }

 private:
  std::vector<BitVector> vectors_;
};

}  // namespace ciao

#endif  // CIAO_BITVEC_BITVECTOR_SET_H_
