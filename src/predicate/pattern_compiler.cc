#include "predicate/pattern_compiler.h"

#include <algorithm>

#include "json/writer.h"

namespace ciao {

namespace {

/// Last segment of a dotted path: nested fields serialize with their own
/// (unqualified) key, so the pattern uses the leaf name.
std::string_view LeafKey(std::string_view field) {
  const size_t dot = field.rfind('.');
  return dot == std::string_view::npos ? field : field.substr(dot + 1);
}

/// `"key":` with JSON escaping — the serialized form a present key takes.
std::string KeyPattern(std::string_view field) {
  std::string out = "\"";
  json::EscapeStringTo(LeafKey(field), &out);
  out += "\":";
  return out;
}

}  // namespace

Result<RawPredicateProgram> RawPredicateProgram::Compile(
    const SimplePredicate& p, SearchKernel kernel) {
  RawPredicateProgram prog;
  prog.kind_ = p.kind;
  switch (p.kind) {
    case PredicateKind::kExactMatch: {
      if (!p.operand.is_string()) {
        return Status::InvalidArgument(
            "exact match requires a string operand; use key-value for "
            "numbers");
      }
      // Quoted + escaped: the value always appears as "Bob" in the
      // canonical serialization, so including the quotes cannot introduce
      // false negatives and trims false positives.
      std::string pattern = "\"";
      json::EscapeStringTo(p.operand.as_string(), &pattern);
      pattern += "\"";
      prog.primary_ = CompiledPattern(std::move(pattern), kernel);
      return prog;
    }
    case PredicateKind::kSubstringMatch: {
      if (!p.operand.is_string()) {
        return Status::InvalidArgument("substring match requires a string");
      }
      // Escaped but NOT quoted: the needle appears inside a longer quoted
      // value. Escaping is per-character, so `text contains needle` implies
      // `escape(text) contains escape(needle)` — no false negatives.
      std::string pattern;
      json::EscapeStringTo(p.operand.as_string(), &pattern);
      prog.primary_ = CompiledPattern(std::move(pattern), kernel);
      return prog;
    }
    case PredicateKind::kKeyPresence: {
      prog.primary_ = CompiledPattern(KeyPattern(p.field), kernel);
      return prog;
    }
    case PredicateKind::kKeyValueMatch: {
      if (!(p.operand.is_number() || p.operand.is_bool() ||
            p.operand.is_string())) {
        return Status::InvalidArgument(
            "key-value match requires a scalar operand");
      }
      prog.primary_ = CompiledPattern(KeyPattern(p.field), kernel);
      prog.value_ = CompiledPattern(json::Write(p.operand), kernel);
      return prog;
    }
    case PredicateKind::kRangeLess:
      // Range predicates would produce false negatives under substring
      // matching (paper §IV-B) — refuse to push them down.
      return Status::Unsupported(
          "range/inequality predicates cannot be evaluated on raw JSON");
  }
  return Status::Internal("unreachable predicate kind");
}

bool RawPredicateProgram::Matches(std::string_view record) const {
  switch (kind_) {
    case PredicateKind::kExactMatch:
    case PredicateKind::kSubstringMatch:
    case PredicateKind::kKeyPresence:
      return primary_.FindIn(record) != std::string_view::npos;
    case PredicateKind::kKeyValueMatch: {
      // Paper §IV-B: find the key string, then look for the value string
      // before the next key-value delimiter. Two robustness details:
      //  1. iterate over *all* key occurrences — the key pattern may match
      //     inside a longer key (e.g. "score": inside "linear_score":),
      //     and stopping at the first occurrence could miss the real one;
      //  2. begin the delimiter scan only after enough room for the value,
      //     so a comma inside the matched value cannot truncate the
      //     window. Both rules only widen the window: false positives
      //     stay possible, false negatives stay impossible.
      size_t pos = primary_.FindIn(record);
      while (pos != std::string_view::npos) {
        const size_t value_start = pos + primary_.length();
        const size_t scan_from =
            std::min(record.size(), value_start + value_.length());
        size_t window_end = record.find(',', scan_from);
        if (window_end == std::string_view::npos) window_end = record.size();
        const std::string_view window =
            record.substr(value_start, window_end - value_start);
        if (value_.FindIn(window) != std::string_view::npos) return true;
        pos = primary_.FindIn(record, pos + 1);
      }
      return false;
    }
    case PredicateKind::kRangeLess:
      return false;  // Never compiled; unreachable.
  }
  return false;
}

std::vector<std::string> RawPredicateProgram::PatternStrings() const {
  if (kind_ == PredicateKind::kKeyValueMatch) {
    return {primary_.pattern(), value_.pattern()};
  }
  return {primary_.pattern()};
}

size_t RawPredicateProgram::TotalPatternLength() const {
  size_t total = primary_.length();
  if (kind_ == PredicateKind::kKeyValueMatch) total += value_.length();
  return total;
}

Result<RawClauseProgram> RawClauseProgram::Compile(const Clause& clause,
                                                   SearchKernel kernel) {
  if (clause.terms.empty()) {
    return Status::InvalidArgument("cannot compile an empty clause");
  }
  RawClauseProgram prog;
  prog.terms_.reserve(clause.terms.size());
  for (const SimplePredicate& p : clause.terms) {
    CIAO_ASSIGN_OR_RETURN(RawPredicateProgram term,
                          RawPredicateProgram::Compile(p, kernel));
    prog.terms_.push_back(std::move(term));
  }
  return prog;
}

bool RawClauseProgram::Matches(std::string_view record) const {
  for (const RawPredicateProgram& term : terms_) {
    if (term.Matches(record)) return true;
  }
  return false;
}

std::vector<std::string> RawClauseProgram::PatternStrings() const {
  std::vector<std::string> out;
  for (const RawPredicateProgram& term : terms_) {
    for (std::string& s : term.PatternStrings()) out.push_back(std::move(s));
  }
  return out;
}

size_t RawClauseProgram::TotalPatternLength() const {
  size_t total = 0;
  for (const RawPredicateProgram& term : terms_) {
    total += term.TotalPatternLength();
  }
  return total;
}

RawQueryScreen::RawQueryScreen(const Query& query) {
  for (const Clause& clause : query.clauses) {
    if (!clause.SupportedOnClient()) continue;
    const uint32_t id = InternClauseKey(clause.CanonicalKey());
    if (std::find(clause_ids_.begin(), clause_ids_.end(), id) !=
        clause_ids_.end()) {
      continue;  // c AND c screens like c
    }
    Result<RawClauseProgram> program = RawClauseProgram::Compile(clause);
    if (!program.ok()) continue;
    programs_.push_back(std::move(program).value());
    clause_ids_.push_back(id);
  }
}

bool RawQueryScreen::MaySatisfy(std::string_view record) const {
  for (const RawClauseProgram& program : programs_) {
    if (!program.Matches(record)) return false;  // conjunction: one miss
  }
  return true;
}

}  // namespace ciao
