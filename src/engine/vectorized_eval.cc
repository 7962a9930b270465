#include "engine/vectorized_eval.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/simd_gate.h"
#include "common/string_util.h"
#include "matcher/kernels.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ciao {

namespace {

/// Rows covered by word `wi` (the final word may be partial).
inline size_t Lanes(size_t num_rows, size_t wi) {
  return std::min<size_t>(64, num_rows - wi * 64);
}

/// 64 compare-to-constant bits over an int64 span. SSE2 has no 64-bit
/// equality compare, so the vector path checks both 32-bit halves; the
/// scalar tail (and non-SSE2 builds) is a SWAR-friendly loop the
/// compiler vectorizes.
uint64_t WordEqInt64(const int64_t* p, size_t n, int64_t c) {
  uint64_t w = 0;
  size_t j = 0;
#if defined(__SSE2__)
  // CIAO_DISABLE_SIMD=sse2 keeps j at 0 so the scalar tail below covers
  // every lane — the forced-fallback differential path.
  if (!SimdFeatureDisabled(SimdFeature::kSse2)) {
    const __m128i vc = _mm_set1_epi64x(c);
    for (; j + 2 <= n; j += 2) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + j));
      const __m128i eq32 = _mm_cmpeq_epi32(v, vc);
      const __m128i eq64 = _mm_and_si128(
          eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
      w |= static_cast<uint64_t>(_mm_movemask_pd(_mm_castsi128_pd(eq64)))
           << j;
    }
  }
#endif
  for (; j < n; ++j) {
    w |= static_cast<uint64_t>(p[j] == c) << j;
  }
  return w;
}

template <bool kLess>
uint64_t WordCmpDouble(const double* p, size_t n, double c) {
  uint64_t w = 0;
  size_t j = 0;
#if defined(__SSE2__)
  if (!SimdFeatureDisabled(SimdFeature::kSse2)) {
    const __m128d vc = _mm_set1_pd(c);
    for (; j + 2 <= n; j += 2) {
      const __m128d v = _mm_loadu_pd(p + j);
      const __m128d m = kLess ? _mm_cmplt_pd(v, vc) : _mm_cmpeq_pd(v, vc);
      w |= static_cast<uint64_t>(_mm_movemask_pd(m)) << j;
    }
  }
#endif
  for (; j < n; ++j) {
    const bool hit = kLess ? p[j] < c : p[j] == c;
    w |= static_cast<uint64_t>(hit) << j;
  }
  return w;
}

/// Cross-type compares (int64 column, double operand) mirror the rowwise
/// oracle: widen each value to double, then compare. No SSE2 int64->pd
/// convert exists, so these stay scalar (the compiler unrolls them).
template <bool kLess>
uint64_t WordCmpInt64AsDouble(const int64_t* p, size_t n, double c) {
  uint64_t w = 0;
  for (size_t j = 0; j < n; ++j) {
    const double v = static_cast<double>(p[j]);
    const bool hit = kLess ? v < c : v == c;
    w |= static_cast<uint64_t>(hit) << j;
  }
  return w;
}

uint64_t WordEqU32(const uint32_t* p, size_t n, uint32_t c) {
  uint64_t w = 0;
  for (size_t j = 0; j < n; ++j) {
    w |= static_cast<uint64_t>(p[j] == c) << j;
  }
  return w;
}

}  // namespace

Result<VectorizedQuery> VectorizedQuery::Compile(
    const Query& query, const columnar::Schema& schema) {
  VectorizedQuery compiled;
  compiled.clauses_.reserve(query.clauses.size());
  for (const Clause& clause : query.clauses) {
    CompiledClause cc;
    for (const SimplePredicate& p : clause.terms) {
      Term term;
      term.column = schema.FieldIndex(p.field);
      if (term.column < 0) {
        return Status::InvalidArgument(StrFormat(
            "query references field '%s' missing from the table schema",
            p.field.c_str()));
      }
      const columnar::ColumnType type =
          schema.field(static_cast<size_t>(term.column)).type;
      const json::Value& operand = p.operand;
      const bool op_int = operand.is_int();
      const bool op_double = operand.is_double();
      const bool op_numeric = op_int || op_double;
      if (op_int) {
        term.int_operand = operand.as_int();
        term.double_operand = static_cast<double>(operand.as_int());
      } else if (op_double) {
        term.double_operand = operand.as_double();
      } else if (operand.is_bool()) {
        term.bool_operand = operand.as_bool();
      } else if (operand.is_string()) {
        term.string_operand = operand.as_string();
      }

      // Kernel selection mirrors CompiledTypedQuery::TermMatches case by
      // case; any combination that row-wise evaluation rejects outright
      // becomes kNever (constant false).
      term.kernel = Kernel::kNever;
      switch (p.kind) {
        case PredicateKind::kKeyPresence:
          term.kernel = Kernel::kPresence;
          break;
        case PredicateKind::kExactMatch:
          if (operand.is_string() && type == columnar::ColumnType::kString) {
            term.kernel = Kernel::kStringEq;
          }
          break;
        case PredicateKind::kSubstringMatch:
          if (operand.is_string() && type == columnar::ColumnType::kString) {
            term.kernel = Kernel::kStringContains;
          }
          break;
        case PredicateKind::kKeyValueMatch:
          switch (type) {
            case columnar::ColumnType::kInt64:
              if (op_int) {
                term.kernel = Kernel::kInt64EqInt;
              } else if (op_double) {
                term.kernel = Kernel::kInt64EqDouble;
              }
              break;
            case columnar::ColumnType::kDouble:
              if (op_numeric) term.kernel = Kernel::kDoubleEq;
              break;
            case columnar::ColumnType::kBool:
              if (operand.is_bool()) term.kernel = Kernel::kBoolEq;
              break;
            case columnar::ColumnType::kString:
              if (operand.is_string()) term.kernel = Kernel::kStringEq;
              break;
          }
          break;
        case PredicateKind::kRangeLess:
          if (op_numeric) {
            if (type == columnar::ColumnType::kInt64) {
              term.kernel = Kernel::kInt64LtDouble;
            } else if (type == columnar::ColumnType::kDouble) {
              term.kernel = Kernel::kDoubleLt;
            }
          }
          break;
      }
      if (term.kernel == Kernel::kStringContains) {
        cc.late.push_back(std::move(term));
      } else {
        cc.dense.push_back(std::move(term));
      }
    }
    compiled.clauses_.push_back(std::move(cc));
  }

  // Dense-only clauses run first so the selection the late kernels walk
  // is as small as every cheap filter can make it.
  compiled.order_.reserve(compiled.clauses_.size());
  for (size_t i = 0; i < compiled.clauses_.size(); ++i) {
    if (compiled.clauses_[i].late.empty()) compiled.order_.push_back(i);
  }
  for (size_t i = 0; i < compiled.clauses_.size(); ++i) {
    if (!compiled.clauses_[i].late.empty()) compiled.order_.push_back(i);
  }
  return compiled;
}

std::vector<bool> VectorizedQuery::ReferencedColumns(size_t num_fields) const {
  std::vector<bool> wanted(num_fields, false);
  for (const CompiledClause& clause : clauses_) {
    for (const std::vector<Term>* terms : {&clause.dense, &clause.late}) {
      for (const Term& term : *terms) {
        if (term.column >= 0 && static_cast<size_t>(term.column) < num_fields) {
          wanted[static_cast<size_t>(term.column)] = true;
        }
      }
    }
  }
  return wanted;
}

Status VectorizedQuery::EvalDenseTerm(const Term& term,
                                      const columnar::RecordBatch& batch,
                                      size_t num_rows, BitVector* out) {
  if (term.kernel == Kernel::kNever) return Status::OK();
  const columnar::ColumnVector& col =
      batch.column(static_cast<size_t>(term.column));
  if (col.size() != num_rows) {
    return Status::InvalidArgument(
        StrFormat("vectorized eval: column %d has %zu rows, batch has %zu",
                  term.column, col.size(), num_rows));
  }
  const size_t words = out->num_words();
  switch (term.kernel) {
    case Kernel::kPresence:
      for (size_t wi = 0; wi < words; ++wi) {
        out->OrWord(wi, col.ValidityWord(wi));
      }
      break;
    case Kernel::kInt64EqInt: {
      const int64_t* data = col.int_data();
      for (size_t wi = 0; wi < words; ++wi) {
        const uint64_t w =
            WordEqInt64(data + wi * 64, Lanes(num_rows, wi), term.int_operand);
        out->OrWord(wi, w & col.ValidityWord(wi));
      }
      break;
    }
    case Kernel::kInt64EqDouble: {
      const int64_t* data = col.int_data();
      for (size_t wi = 0; wi < words; ++wi) {
        const uint64_t w = WordCmpInt64AsDouble<false>(
            data + wi * 64, Lanes(num_rows, wi), term.double_operand);
        out->OrWord(wi, w & col.ValidityWord(wi));
      }
      break;
    }
    case Kernel::kInt64LtDouble: {
      const int64_t* data = col.int_data();
      for (size_t wi = 0; wi < words; ++wi) {
        const uint64_t w = WordCmpInt64AsDouble<true>(
            data + wi * 64, Lanes(num_rows, wi), term.double_operand);
        out->OrWord(wi, w & col.ValidityWord(wi));
      }
      break;
    }
    case Kernel::kDoubleEq: {
      const double* data = col.double_data();
      for (size_t wi = 0; wi < words; ++wi) {
        const uint64_t w = WordCmpDouble<false>(
            data + wi * 64, Lanes(num_rows, wi), term.double_operand);
        out->OrWord(wi, w & col.ValidityWord(wi));
      }
      break;
    }
    case Kernel::kDoubleLt: {
      const double* data = col.double_data();
      for (size_t wi = 0; wi < words; ++wi) {
        const uint64_t w = WordCmpDouble<true>(
            data + wi * 64, Lanes(num_rows, wi), term.double_operand);
        out->OrWord(wi, w & col.ValidityWord(wi));
      }
      break;
    }
    case Kernel::kBoolEq:
      for (size_t wi = 0; wi < words; ++wi) {
        const uint64_t bits =
            term.bool_operand ? col.BoolWord(wi) : ~col.BoolWord(wi);
        // Validity padding is zero, so the complement's padding is masked.
        out->OrWord(wi, bits & col.ValidityWord(wi));
      }
      break;
    case Kernel::kStringEq: {
      const std::string& op = term.string_operand;
      if (col.has_dictionary()) {
        // One byte-compare against each distinct value, then the rows are
        // a pure integer compare-to-constant over the code span.
        const std::vector<std::string>& values = col.dict_values();
        uint32_t code = 0;
        bool found = false;
        for (; code < values.size(); ++code) {
          if (values[code] == op) {
            found = true;
            break;
          }
        }
        if (!found) break;  // operand outside the dictionary: no matches
        const uint32_t* codes = col.dict_codes().data();
        for (size_t wi = 0; wi < words; ++wi) {
          const uint64_t w =
              WordEqU32(codes + wi * 64, Lanes(num_rows, wi), code);
          out->OrWord(wi, w & col.ValidityWord(wi));
        }
        break;
      }
      const uint32_t* offsets = col.offsets().data();
      const char* buffer = col.buffer().data();
      const size_t op_len = op.size();
      for (size_t wi = 0; wi < words; ++wi) {
        const size_t base = wi * 64;
        const size_t n = Lanes(num_rows, wi);
        uint64_t w = 0;
        for (size_t j = 0; j < n; ++j) {
          const uint32_t begin = offsets[base + j];
          const bool hit = offsets[base + j + 1] - begin == op_len &&
                           std::memcmp(buffer + begin, op.data(), op_len) == 0;
          w |= static_cast<uint64_t>(hit) << j;
        }
        out->OrWord(wi, w & col.ValidityWord(wi));
      }
      break;
    }
    case Kernel::kNever:
    case Kernel::kStringContains:
      break;  // unreachable: filtered above / compiled as late
  }
  return Status::OK();
}

bool VectorizedQuery::LateTermMatches(const Term& term,
                                      const columnar::RecordBatch& batch,
                                      size_t row) {
  const columnar::ColumnVector& col =
      batch.column(static_cast<size_t>(term.column));
  return col.IsValid(row) &&
         FindSwar(col.GetString(row), term.string_operand) !=
             std::string_view::npos;
}

Result<BitVector> VectorizedQuery::Evaluate(
    const columnar::RecordBatch& batch, size_t num_rows,
    const BitVector* selection, std::vector<ClauseEvidence>* evidence) const {
  if (selection != nullptr && selection->size() != num_rows) {
    return Status::InvalidArgument(
        "vectorized eval: selection size does not match batch rows");
  }
  if (evidence != nullptr) {
    evidence->assign(clauses_.size(), ClauseEvidence{});
  }
  BitVector alive =
      selection != nullptr ? *selection : BitVector(num_rows, true);
  bool any = num_rows > 0 && alive.Any();
  for (const size_t ci : order_) {
    if (!any) break;
    const CompiledClause& clause = clauses_[ci];
    BitVector hits(num_rows, false);
    ClauseEvidence* ev = evidence != nullptr ? &(*evidence)[ci] : nullptr;
    for (const Term& term : clause.dense) {
      CIAO_RETURN_IF_ERROR(EvalDenseTerm(term, batch, num_rows, &hits));
    }
    if (!clause.late.empty()) {
      for (const Term& term : clause.late) {
        const columnar::ColumnVector& col =
            batch.column(static_cast<size_t>(term.column));
        if (col.size() != num_rows) {
          return Status::InvalidArgument(StrFormat(
              "vectorized eval: column %d has %zu rows, batch has %zu",
              term.column, col.size(), num_rows));
        }
      }
      // Selection-vector fallback: only rows still alive and not already
      // satisfied by a cheap term of this clause pay the substring scan.
      for (size_t wi = 0; wi < alive.num_words(); ++wi) {
        uint64_t pending = alive.word(wi) & ~hits.word(wi);
        uint64_t matched = 0;
        while (pending != 0) {
          const int bit = std::countr_zero(pending);
          pending &= pending - 1;
          const size_t row = wi * 64 + static_cast<size_t>(bit);
          for (const Term& term : clause.late) {
            if (LateTermMatches(term, batch, row)) {
              matched |= 1ULL << bit;
              break;
            }
          }
        }
        hits.OrWord(wi, matched);
      }
    }
    if (ev != nullptr) {
      ev->evaluated = true;
      ev->all_known = clause.late.empty();
      // The late kernels ran on the rows alive before this clause; every
      // other row it decided is a dense hit, already in `hits`.
      if (!ev->all_known) {
        ev->known = alive;
        CIAO_RETURN_IF_ERROR(ev->known.OrWith(hits));
      }
    }
    CIAO_ASSIGN_OR_RETURN(any, alive.AndWithAny(hits));
    if (ev != nullptr) ev->hits = std::move(hits);
  }
  return alive;
}

}  // namespace ciao
