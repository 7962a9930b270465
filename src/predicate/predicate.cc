#include "predicate/predicate.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <unordered_map>

#include "json/writer.h"

namespace ciao {

std::string_view PredicateKindName(PredicateKind kind) {
  switch (kind) {
    case PredicateKind::kExactMatch:
      return "exact";
    case PredicateKind::kSubstringMatch:
      return "substr";
    case PredicateKind::kKeyPresence:
      return "present";
    case PredicateKind::kKeyValueMatch:
      return "kv";
    case PredicateKind::kRangeLess:
      return "range_lt";
  }
  return "unknown";
}

std::string SimplePredicate::CanonicalKey() const {
  std::string key(PredicateKindName(kind));
  key += ':';
  key += field;
  if (kind != PredicateKind::kKeyPresence) {
    key += '=';
    key += json::Write(operand);
  }
  return key;
}

std::string SimplePredicate::ToSql() const {
  switch (kind) {
    case PredicateKind::kExactMatch:
      return field + " = " + json::Write(operand);
    case PredicateKind::kSubstringMatch:
      return field + " LIKE \"%" + operand.as_string() + "%\"";
    case PredicateKind::kKeyPresence:
      return field + " != NULL";
    case PredicateKind::kKeyValueMatch:
      return field + " = " + json::Write(operand);
    case PredicateKind::kRangeLess:
      return field + " < " + json::Write(operand);
  }
  return "<unknown>";
}

SimplePredicate SimplePredicate::Exact(std::string field, std::string value) {
  return SimplePredicate{PredicateKind::kExactMatch, std::move(field),
                         json::Value(std::move(value))};
}

SimplePredicate SimplePredicate::Substring(std::string field,
                                           std::string needle) {
  return SimplePredicate{PredicateKind::kSubstringMatch, std::move(field),
                         json::Value(std::move(needle))};
}

SimplePredicate SimplePredicate::Presence(std::string field) {
  return SimplePredicate{PredicateKind::kKeyPresence, std::move(field),
                         json::Value(nullptr)};
}

SimplePredicate SimplePredicate::KeyValue(std::string field,
                                          json::Value value) {
  return SimplePredicate{PredicateKind::kKeyValueMatch, std::move(field),
                         std::move(value)};
}

SimplePredicate SimplePredicate::RangeLess(std::string field,
                                           json::Value bound) {
  return SimplePredicate{PredicateKind::kRangeLess, std::move(field),
                         std::move(bound)};
}

std::string Clause::CanonicalKey() const {
  std::vector<std::string> keys;
  keys.reserve(terms.size());
  for (const SimplePredicate& p : terms) keys.push_back(p.CanonicalKey());
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += " OR ";
    out += keys[i];
  }
  return out;
}

uint32_t InternClauseKey(const std::string& canonical_key) {
  static std::mutex mu;
  static auto* ids = new std::unordered_map<std::string, uint32_t>();
  std::lock_guard<std::mutex> lock(mu);
  return ids->try_emplace(canonical_key, static_cast<uint32_t>(ids->size()))
      .first->second;
}

std::string Clause::ToSql() const {
  if (terms.size() == 1) return terms[0].ToSql();
  std::string out = "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += " OR ";
    out += terms[i].ToSql();
  }
  out += ")";
  return out;
}

bool Clause::SupportedOnClient() const {
  if (terms.empty()) return false;
  for (const SimplePredicate& p : terms) {
    if (p.kind == PredicateKind::kRangeLess) return false;
  }
  return true;
}

Clause Clause::Of(SimplePredicate p) { return Clause{{std::move(p)}}; }

Clause Clause::Or(std::vector<SimplePredicate> ps) {
  return Clause{std::move(ps)};
}

std::string Query::ToSql() const {
  std::string out = "SELECT COUNT(*)";
  for (const std::string& col : projected) {
    out += ", CHECKSUM(";
    out += col;
    out += ")";
  }
  out += " FROM t WHERE ";
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) out += " AND ";
    out += clauses[i].ToSql();
  }
  return out;
}

size_t Workload::TotalPredicateOccurrences() const {
  size_t total = 0;
  for (const Query& q : queries) total += q.clauses.size();
  return total;
}

size_t Workload::MinPredicatesPerQuery() const {
  size_t best = queries.empty() ? 0 : queries[0].clauses.size();
  for (const Query& q : queries) best = std::min(best, q.clauses.size());
  return best;
}

size_t Workload::MaxPredicatesPerQuery() const {
  size_t best = 0;
  for (const Query& q : queries) best = std::max(best, q.clauses.size());
  return best;
}

std::vector<Clause> Workload::DistinctClauses() const {
  std::vector<Clause> out;
  std::set<std::string> seen;
  for (const Query& q : queries) {
    for (const Clause& c : q.clauses) {
      if (seen.insert(c.CanonicalKey()).second) out.push_back(c);
    }
  }
  return out;
}

std::vector<double> Workload::ClauseQueryCounts() const {
  const std::vector<Clause> distinct = DistinctClauses();
  std::vector<double> counts(distinct.size(), 0.0);
  for (const Query& q : queries) {
    std::set<std::string> in_query;
    for (const Clause& c : q.clauses) in_query.insert(c.CanonicalKey());
    for (size_t i = 0; i < distinct.size(); ++i) {
      if (in_query.count(distinct[i].CanonicalKey()) > 0) counts[i] += 1.0;
    }
  }
  return counts;
}

}  // namespace ciao
