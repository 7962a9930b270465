#ifndef CIAO_PREDICATE_PATTERN_COMPILER_H_
#define CIAO_PREDICATE_PATTERN_COMPILER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "matcher/compiled_pattern.h"
#include "predicate/predicate.h"

namespace ciao {

/// A simple predicate compiled to string-matching form (paper Table I).
/// Guarantee: **no false negatives** — if a record (serialized with the
/// canonical compact writer) semantically satisfies the predicate, Matches
/// returns true. False positives are expected and later verified by the
/// engine.
class RawPredicateProgram {
 public:
  /// Compiles `p`; fails with Unsupported for kinds that cannot be
  /// evaluated without parsing (e.g. range predicates, §IV-B).
  static Result<RawPredicateProgram> Compile(
      const SimplePredicate& p, SearchKernel kernel = SearchKernel::kStdFind);

  /// Evaluates against one raw serialized JSON record.
  bool Matches(std::string_view record) const;

  /// Pattern strings for reports/registry (1 for most kinds, 2 for
  /// key-value: key pattern + value pattern).
  std::vector<std::string> PatternStrings() const;

  /// Σ pattern-string lengths — the cost model's len(p).
  size_t TotalPatternLength() const;

  PredicateKind kind() const { return kind_; }

 private:
  RawPredicateProgram() = default;

  PredicateKind kind_ = PredicateKind::kExactMatch;
  /// Exact/substring: the (escaped, possibly quoted) value pattern.
  /// Key-presence / key-value: the `"key":` pattern.
  CompiledPattern primary_;
  /// Key-value only: the serialized operand.
  CompiledPattern value_;
};

/// A disjunctive clause compiled for the client: OR of term programs.
class RawClauseProgram {
 public:
  /// Compiles every term; fails if any term is unsupported (the whole
  /// clause then cannot be pushed down, §V-A).
  static Result<RawClauseProgram> Compile(
      const Clause& clause, SearchKernel kernel = SearchKernel::kStdFind);

  /// True iff any term matches the raw record.
  bool Matches(std::string_view record) const;

  /// All pattern strings across terms.
  std::vector<std::string> PatternStrings() const;

  /// Σ pattern lengths across terms (clause cost is the sum of its terms'
  /// costs, §V-D: "for a disjunction ... the summation").
  size_t TotalPatternLength() const;

  size_t num_terms() const { return terms_.size(); }
  const RawPredicateProgram& term(size_t i) const { return terms_[i]; }

 private:
  std::vector<RawPredicateProgram> terms_;
};

/// A query's raw-byte screen: one program per clause that can run on raw
/// bytes, ANDed in query order. A record survives iff every program
/// matches it; with no such clause every record survives. Each program
/// has no false negatives, so a record the screen rules out provably does
/// not satisfy the query. Each program carries its clause's interned key
/// (InternClauseKey), the id under which a raw sideline remembers the
/// program's verdicts (RawStore::Screen); a clause repeated in the query
/// is screened once. The sideline pass of a full scan and query-driven
/// JIT promotion both screen through RawStore::Screen.
class RawQueryScreen {
 public:
  /// Screens nothing: every record survives.
  RawQueryScreen() = default;
  explicit RawQueryScreen(const Query& query);

  /// Runs every program on `record`, stopping at the first miss: the
  /// record-at-a-time definition RawStore::Screen must agree with.
  bool MaySatisfy(std::string_view record) const;
  bool empty() const { return programs_.empty(); }

  size_t num_clauses() const { return programs_.size(); }
  uint32_t clause_id(size_t i) const { return clause_ids_[i]; }
  /// Runs clause `i`'s program on `record`.
  bool Matches(size_t i, std::string_view record) const {
    return programs_[i].Matches(record);
  }

 private:
  std::vector<RawClauseProgram> programs_;
  std::vector<uint32_t> clause_ids_;
};

}  // namespace ciao

#endif  // CIAO_PREDICATE_PATTERN_COMPILER_H_
