#ifndef CIAO_PREDICATE_PREDICATE_H_
#define CIAO_PREDICATE_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "json/value.h"

namespace ciao {

/// The predicate types CIAO can evaluate on raw JSON via string matching
/// (paper Table I), plus one deliberately unsupported kind (`kRangeLess`)
/// to exercise the "cannot push down" path: range/inequality predicates
/// would create false negatives and are rejected by the pattern compiler
/// (paper §IV-B).
enum class PredicateKind {
  kExactMatch,     // field = "Bob"            -> pattern "Bob" (quoted)
  kSubstringMatch, // field LIKE "%delicious%" -> pattern delicious
  kKeyPresence,    // field != NULL            -> pattern "field":
  kKeyValueMatch,  // field = 10               -> patterns "field": and 10
  kRangeLess,      // field < 10               -> NOT client-supported
};

std::string_view PredicateKindName(PredicateKind kind);

/// One atomic predicate over a single (possibly dotted-path nested) field.
struct SimplePredicate {
  PredicateKind kind = PredicateKind::kExactMatch;
  /// Field path, '.'-separated for nested objects ("address.city").
  std::string field;
  /// Comparison operand. String for exact/substring; string/int/bool for
  /// key-value; ignored (null) for key-presence; number for range.
  json::Value operand;

  /// Stable canonical key, e.g. `kv:age=10`; used for deduplication.
  std::string CanonicalKey() const;

  /// SQL-ish rendering for reports, e.g. `age = 10`.
  std::string ToSql() const;

  /// Factory helpers.
  static SimplePredicate Exact(std::string field, std::string value);
  static SimplePredicate Substring(std::string field, std::string needle);
  static SimplePredicate Presence(std::string field);
  static SimplePredicate KeyValue(std::string field, json::Value value);
  static SimplePredicate RangeLess(std::string field, json::Value bound);
};

/// A disjunction of simple predicates — the paper's pushdown unit ("each
/// clause is hereafter referred to as a predicate", §V-A). A clause with a
/// single term is a plain predicate; multiple terms model IN-lists /
/// OR-chains, which must be pushed down atomically.
struct Clause {
  std::vector<SimplePredicate> terms;

  /// Canonical key: term keys sorted and joined with " OR ". Two clauses
  /// with the same key are the same predicate for selection/skipping.
  std::string CanonicalKey() const;

  std::string ToSql() const;

  /// True iff every term can be evaluated client-side by string matching.
  bool SupportedOnClient() const;

  static Clause Of(SimplePredicate p);
  static Clause Or(std::vector<SimplePredicate> ps);
};

/// A dense id for a clause's canonical key (Clause::CanonicalKey), the
/// same in every catalog of the process, so learned entries are keyed by
/// an integer and a query hashes each clause key once, not once per
/// segment. Ids are never reused; the table grows with the number of
/// distinct clauses the process has scanned.
uint32_t InternClauseKey(const std::string& canonical_key);

/// A workload query: `SELECT COUNT(*) FROM t WHERE c1 AND c2 AND ...`
/// (the paper's single query template, §VII-C), optionally extended with
/// projected columns whose values the executor must materialize for the
/// matching rows.
struct Query {
  std::vector<Clause> clauses;
  /// Relative execution frequency (the paper's experiments use uniform).
  double frequency = 1.0;
  /// Identifier for reports ("q0", "q1", ...).
  std::string name;
  /// Columns whose values are projected/aggregated over the matching rows
  /// (by schema field name; unknown names project NULL). Empty = the
  /// paper's plain COUNT(*). Projected columns participate in the column
  /// co-access profile the affinity miner clusters on, and the executor
  /// returns one order-independent value checksum per entry (see
  /// QueryResult::projected_hashes). Last so existing positional
  /// aggregate initializers (`Query{{c}, 1.0, "q0"}`) stay valid.
  std::vector<std::string> projected;

  std::string ToSql() const;
};

/// A query workload plus bookkeeping used by selection and the benches.
struct Workload {
  std::vector<Query> queries;

  /// Total number of clause occurrences across queries (Table III
  /// "#Predicates" column counts multiplicity).
  size_t TotalPredicateOccurrences() const;

  /// Minimum / maximum clauses per query (Table III "Min/Max").
  size_t MinPredicatesPerQuery() const;
  size_t MaxPredicatesPerQuery() const;

  /// Distinct clauses by canonical key, in first-appearance order.
  std::vector<Clause> DistinctClauses() const;

  /// For each distinct clause, the number of queries containing it —
  /// the X_i counts in the paper's skewness formula (§VII-E3).
  std::vector<double> ClauseQueryCounts() const;
};

}  // namespace ciao

#endif  // CIAO_PREDICATE_PREDICATE_H_
