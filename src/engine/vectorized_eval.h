#ifndef CIAO_ENGINE_VECTORIZED_EVAL_H_
#define CIAO_ENGINE_VECTORIZED_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bitvec/bitvector.h"
#include "columnar/record_batch.h"
#include "common/status.h"
#include "predicate/predicate.h"

namespace ciao {

/// A query compiled for batch-at-a-time evaluation over RecordBatches:
/// each term becomes a typed column kernel (SSE2/SWAR compare-to-constant
/// for int64/double spans, word logic for bools, dictionary-code or
/// length+memcmp equality for strings) producing one packed bit per row;
/// term words are OR-ed per clause and clauses AND-ed word-at-a-time.
/// Substring-contains terms are *late*: they run through a selection
/// vector over the rows still alive after every cheap clause, using the
/// SWAR substring kernel (matcher/kernels.h) per surviving row.
///
/// Semantics are bit-identical to CompiledTypedQuery::Matches on every
/// row — including NULL handling (a NULL matches nothing but presence),
/// NaN (compares false), cross-type int/double operands, and type
/// mismatches (constant-false terms). The differential fuzz suite
/// (tests/vectorized_eval_test.cc) pins the equivalence.
class VectorizedQuery {
 public:
  /// Fails with InvalidArgument if a predicate references a field missing
  /// from the schema (same contract as CompiledTypedQuery::Compile).
  static Result<VectorizedQuery> Compile(const Query& query,
                                         const columnar::Schema& schema);

  /// What one Evaluate call decided about one clause, reported as the
  /// kernels computed it: exact on the known rows. The scan keeps it as
  /// learned bits (engine/learned_bits.h).
  struct ClauseEvidence {
    /// False when an earlier clause left no row alive, so this one never
    /// ran and nothing is known.
    bool evaluated = false;
    /// A dense-only clause runs on every row: all rows are known and
    /// `known` stays empty.
    bool all_known = false;
    /// With late terms: the clause's dense hits plus the rows still alive
    /// when it ran — the only rows its substring kernel looked at.
    BitVector known;
    /// The rows that matched; a subset of the known rows.
    BitVector hits;
  };

  /// Evaluates the conjunction over rows [0, num_rows) of `batch`,
  /// returning one bit per row. When `selection` is non-null (size must
  /// equal num_rows) only its set rows can appear in the result, and the
  /// late kernels touch only rows still alive — the skipping scan passes
  /// the AND of the pushed-down annotation bitvectors here. Referenced
  /// columns must be decoded with exactly num_rows rows (a projected
  /// batch from TableReader::ReadBatchProjected qualifies). When
  /// `evidence` is non-null it is resized to num_clauses() and entry i
  /// reports the query's clause i.
  Result<BitVector> Evaluate(
      const columnar::RecordBatch& batch, size_t num_rows,
      const BitVector* selection = nullptr,
      std::vector<ClauseEvidence>* evidence = nullptr) const;

  /// Column-pruning mask, same contract as CompiledTypedQuery.
  std::vector<bool> ReferencedColumns(size_t num_fields) const;

  size_t num_clauses() const { return clauses_.size(); }

 private:
  /// The typed kernel a term compiles to. Everything but kStringContains
  /// is "dense": evaluated for all rows, 64 at a time, into word bits.
  enum class Kernel : uint8_t {
    kNever,           // type/operand mismatch — constant false
    kPresence,        // validity words verbatim
    kInt64EqInt,      // int64 span == int64 constant (SSE2/SWAR)
    kInt64EqDouble,   // (double)int64 == double constant
    kInt64LtDouble,   // (double)int64 <  double constant
    kDoubleEq,        // double span == constant (SSE2; NaN compares false)
    kDoubleLt,        // double span <  constant (SSE2)
    kBoolEq,          // pure word logic on the packed bool payload
    kStringEq,        // dictionary-code compare where encoded, else
                      // length filter + memcmp
    kStringContains,  // late selection-vector kernel (SWAR substring)
  };

  struct Term {
    Kernel kernel = Kernel::kNever;
    int column = -1;
    int64_t int_operand = 0;
    double double_operand = 0.0;
    bool bool_operand = false;
    std::string string_operand;
  };
  struct CompiledClause {
    std::vector<Term> dense;
    std::vector<Term> late;
  };

  /// ORs the term's bits over all rows into `out` (dense kernels only).
  static Status EvalDenseTerm(const Term& term,
                              const columnar::RecordBatch& batch,
                              size_t num_rows, BitVector* out);

  /// Row-at-a-time evaluation of one late term (kStringContains).
  static bool LateTermMatches(const Term& term,
                              const columnar::RecordBatch& batch, size_t row);

  /// Clause evaluation order: dense-only clauses first (cheapest filters
  /// shrink the selection before any expensive kernel runs).
  std::vector<size_t> order_;
  std::vector<CompiledClause> clauses_;
};

}  // namespace ciao

#endif  // CIAO_ENGINE_VECTORIZED_EVAL_H_
