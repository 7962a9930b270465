#ifndef CIAO_JSON_TAPE_PARSER_H_
#define CIAO_JSON_TAPE_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "json/parser.h"

namespace ciao::json {

/// Token kinds on the tape. Containers emit a start and an end token;
/// object contents are (key token, value tokens)* where the key is a
/// kString token.
enum class TapeKind : uint8_t {
  kNull,
  kBool,
  kInt,
  kDouble,
  kString,
  kObjectStart,
  kObjectEnd,
  kArrayStart,
  kArrayEnd,
};

/// One tape entry. Strings are represented by their raw byte span in the
/// parsed input (quotes excluded, escapes undecoded) so the common
/// escape-free case costs nothing to extract; numbers carry their decoded
/// value inline.
struct TapeToken {
  TapeKind kind = TapeKind::kNull;
  /// kBool: the literal's value.
  bool bool_value = false;
  /// kString: the raw span contains at least one backslash escape and
  /// must be decoded before use.
  bool has_escapes = false;
  /// Raw byte span [begin, end) in the parsed input.
  uint32_t begin = 0;
  uint32_t end = 0;
  /// Token count of the subtree rooted at this token: 1 for scalars and
  /// keys, container size including both start and end tokens otherwise.
  /// `index + extent` is always the index one past the value — the
  /// constant-time skip that makes schema-driven field lookup cheap.
  uint32_t extent = 1;
  union {
    int64_t i64;  // kInt
    double f64;   // kDouble
  };
};

/// A parsed record as a flat token tape. The token vector and decode
/// scratch are owned by the Tape and reused across records (cleared, not
/// reallocated), so steady-state parsing does no heap allocation — the
/// per-record DOM churn of json::Parse is the cost this replaces
/// (paper §I: parsing is the loading bottleneck).
///
/// The tape refers into the parsed input buffer; the caller must keep
/// that buffer alive while reading the tape (JsonChunk already provides
/// exactly this lifetime).
class Tape {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  size_t size() const { return tokens_.size(); }
  bool empty() const { return tokens_.empty(); }
  const TapeToken& token(size_t i) const { return tokens_[i]; }

  /// Raw input bytes of `t`'s span (string escapes NOT decoded).
  std::string_view Raw(const TapeToken& t) const {
    return input_.substr(t.begin, t.end - t.begin);
  }

  /// Decoded content of string token `t`. Returns the raw span directly
  /// when it has no escapes; otherwise decodes into `*scratch` (cleared
  /// first, capacity reused) and returns a view of it.
  std::string_view DecodedString(const TapeToken& t,
                                 std::string* scratch) const;

  /// True iff the decoded content of string token `t` equals `expected`.
  /// Never allocates, even for escaped strings.
  bool StringEquals(const TapeToken& t, std::string_view expected) const;

  /// Tape index of the value for `key` in the object starting at
  /// `obj_index`, or npos when absent (or not an object). First match
  /// wins on duplicate keys, mirroring Value::Find. The loader walks each
  /// record's keys once instead (BatchBuilder); tests navigate with this.
  size_t FindField(size_t obj_index, std::string_view key) const;

  /// Nested lookup from the root with a '.'-separated path, mirroring
  /// Value::FindPath exactly (a literal dotted key is never matched).
  size_t FindPath(std::string_view dotted_path) const;

 private:
  friend class TapeParser;

  std::string_view input_;
  std::vector<TapeToken> tokens_;
};

/// Single-pass tape parser. Accept/reject behavior is pinned to
/// json::Parse (same max-depth guard, string-escape and surrogate rules,
/// number grammar with exact int64 and double fallback, trailing-input
/// handling); the differential suite in tests/tape_parser_test.cc runs
/// both parsers over every corpus and malformed-input family. Unlike
/// json::Parse it materializes nothing: strings stay raw spans decoded
/// only on demand.
///
/// Numbers: the grammar is checked first, then the text is converted to
/// the oracle's value by the cheapest exact means. An integer of at most
/// 18 digits always fits in an int64 and is accumulated digit by digit.
/// A double goes through std::from_chars, which rounds correctly like
/// strtod. Any other case takes the oracle's own calls: integers of 19 or
/// more digits use strtoll (falling back to strtod on overflow), and a
/// double that from_chars reports out of range goes to strtod, which
/// rejects an overflow (1e400) and accepts an underflow as a signed zero
/// (1e-400), as json::Parse does.
///
/// A TapeParser is cheap but stateful (it keeps a number-text scratch
/// buffer for the strtoll/strtod cases); use one per thread.
class TapeParser {
 public:
  explicit TapeParser(ParseOptions options = {}) : options_(options) {}

  /// Parses one document into `*tape` (cleared first, capacity reused).
  Status Parse(std::string_view input, Tape* tape);

  /// Like Parse but reports consumed bytes and ignores trailing input
  /// (the TapeParser analogue of json::ParsePrefix).
  Status ParsePrefix(std::string_view input, Tape* tape, size_t* consumed);

 private:
  ParseOptions options_;
  std::string number_scratch_;
};

}  // namespace ciao::json

#endif  // CIAO_JSON_TAPE_PARSER_H_
