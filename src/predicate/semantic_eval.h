#ifndef CIAO_PREDICATE_SEMANTIC_EVAL_H_
#define CIAO_PREDICATE_SEMANTIC_EVAL_H_

#include "json/value.h"
#include "predicate/predicate.h"

namespace ciao {

/// Ground-truth predicate semantics over a parsed JSON record: the oracle
/// correctness tests compare everything against, and the evaluator that
/// EstimateClauseStats runs over the planning sample. The query engine
/// does not use it: it verifies every tuple, loaded or raw, with the
/// typed evaluators over converted columns (engine/typed_eval.h,
/// engine/vectorized_eval.h), which agree with these semantics on
/// schema-conformant records; a value the converter coerces to NULL
/// matches nothing there.
///
/// Semantics:
///  - exact:    field is a string equal to the operand;
///  - substr:   field is a string containing the operand;
///  - present:  field exists and is not null;
///  - kv:       field equals the operand (numbers compare numerically,
///              int64 10 == double 10.0; bools and strings by value);
///  - range_lt: field is a number strictly less than the operand.
/// A missing field never satisfies any predicate.
bool EvaluateSimple(const SimplePredicate& p, const json::Value& record);

/// OR over the clause's terms.
bool EvaluateClause(const Clause& clause, const json::Value& record);

/// AND over the query's clauses.
bool EvaluateQuery(const Query& query, const json::Value& record);

}  // namespace ciao

#endif  // CIAO_PREDICATE_SEMANTIC_EVAL_H_
