#include "json/tape_parser.h"

#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "common/string_util.h"

namespace ciao::json {

namespace {

/// Decodes four hex digits; the span was validated during scanning.
inline uint32_t Hex4(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = p[i];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint32_t>(c - 'a' + 10);
    } else {
      v |= static_cast<uint32_t>(c - 'A' + 10);
    }
  }
  return v;
}

template <typename Sink>
inline void EmitUtf8(uint32_t cp, Sink&& sink) {
  if (cp < 0x80) {
    sink(static_cast<char>(cp));
  } else if (cp < 0x800) {
    sink(static_cast<char>(0xC0 | (cp >> 6)));
    sink(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    sink(static_cast<char>(0xE0 | (cp >> 12)));
    sink(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    sink(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    sink(static_cast<char>(0xF0 | (cp >> 18)));
    sink(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    sink(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    sink(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Streams the decoded bytes of an escaped raw span into `sink`, one char
/// at a time. The span was fully validated by the scanner, so escapes and
/// surrogate pairs are well-formed here.
template <typename Sink>
void DecodeEscapedSpan(std::string_view raw, Sink&& sink) {
  size_t i = 0;
  while (i < raw.size()) {
    const char c = raw[i++];
    if (c != '\\') {
      sink(c);
      continue;
    }
    const char e = raw[i++];
    switch (e) {
      case '"':
        sink('"');
        break;
      case '\\':
        sink('\\');
        break;
      case '/':
        sink('/');
        break;
      case 'b':
        sink('\b');
        break;
      case 'f':
        sink('\f');
        break;
      case 'n':
        sink('\n');
        break;
      case 'r':
        sink('\r');
        break;
      case 't':
        sink('\t');
        break;
      default: {  // 'u'
        uint32_t cp = Hex4(raw.data() + i);
        i += 4;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          const uint32_t low = Hex4(raw.data() + i + 2);
          i += 6;  // skip "\uXXXX"
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        EmitUtf8(cp, sink);
        break;
      }
    }
  }
}

/// Bit 7 of each byte of the result is set for a zero byte of `w`, and
/// the lowest set bit marks the first one: no borrow crosses a byte until
/// a zero byte is reached.
inline uint64_t ZeroBytes(uint64_t w) {
  return (w - 0x0101010101010101ULL) & ~w & 0x8080808080808080ULL;
}

/// Like ZeroBytes, for the bytes of `w` below 0x20.
inline uint64_t ControlBytes(uint64_t w) {
  return (w - 0x2020202020202020ULL) & ~w & 0x8080808080808080ULL;
}

/// Integers with at most this many digits fit in an int64 and are
/// accumulated directly; longer ones take the oracle's strtoll path.
constexpr size_t kExactIntDigits = 18;

/// The scanning core: the oracle parser's grammar and error conditions
/// (json/parser.cc) transliterated to emit tape tokens instead of
/// building a DOM. Any accept/reject divergence from the oracle is a bug
/// caught by the differential suite. The scan functions return false on
/// the first error, which Fail records once, with the oracle's text and
/// offset, for ScanDocument to return.
class Scanner {
 public:
  Scanner(std::string_view input, const ParseOptions& options,
          std::vector<TapeToken>* tokens, std::string* number_scratch)
      : input_(input),
        options_(options),
        tokens_(tokens),
        number_scratch_(number_scratch) {}

  Status ScanDocument(size_t* consumed, bool allow_trailing) {
    SkipWhitespace();
    if (!ScanValue(0)) return std::move(error_);
    SkipWhitespace();
    if (consumed != nullptr) *consumed = pos_;
    if (!allow_trailing && pos_ != input_.size()) {
      Fail("trailing characters after JSON value");
      return std::move(error_);
    }
    return Status::OK();
  }

 private:
  bool Fail(const char* what) {
    error_ = Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what));
    return false;
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = input_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Expect(char c) {
    if (AtEnd() || input_[pos_] != c) {
      error_ = Status::InvalidArgument(StrFormat(
          "JSON parse error at offset %zu: expected '%c'", pos_, c));
      return false;
    }
    ++pos_;
    return true;
  }

  void PushToken(TapeKind kind, size_t begin, size_t end) {
    TapeToken t;
    t.kind = kind;
    t.begin = static_cast<uint32_t>(begin);
    t.end = static_cast<uint32_t>(end);
    tokens_->push_back(t);
  }

  bool ScanValue(int depth) {
    if (depth > options_.max_depth) return Fail("max nesting depth exceeded");
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ScanObject(depth);
      case '[':
        return ScanArray(depth);
      case '"':
        return ScanString();
      case 't':
        return ScanLiteral("true", TapeKind::kBool, true);
      case 'f':
        return ScanLiteral("false", TapeKind::kBool, false);
      case 'n':
        return ScanLiteral("null", TapeKind::kNull, false);
      default:
        return ScanNumber();
    }
  }

  bool ScanLiteral(std::string_view literal, TapeKind kind, bool bool_value) {
    if (input_.substr(pos_, literal.size()) != literal) {
      return Fail("invalid literal");
    }
    PushToken(kind, pos_, pos_ + literal.size());
    tokens_->back().bool_value = bool_value;
    pos_ += literal.size();
    return true;
  }

  bool ScanObject(int depth) {
    if (!Expect('{')) return false;
    const size_t start_index = tokens_->size();
    PushToken(TapeKind::kObjectStart, pos_ - 1, pos_);
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return CloseContainer(start_index, TapeKind::kObjectEnd);
    }
    while (true) {
      SkipWhitespace();
      if (!ScanString()) return false;
      SkipWhitespace();
      if (!Expect(':')) return false;
      SkipWhitespace();
      if (!ScanValue(depth + 1)) return false;
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated object");
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        break;
      }
      return Fail("expected ',' or '}' in object");
    }
    return CloseContainer(start_index, TapeKind::kObjectEnd);
  }

  bool ScanArray(int depth) {
    if (!Expect('[')) return false;
    const size_t start_index = tokens_->size();
    PushToken(TapeKind::kArrayStart, pos_ - 1, pos_);
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return CloseContainer(start_index, TapeKind::kArrayEnd);
    }
    while (true) {
      SkipWhitespace();
      if (!ScanValue(depth + 1)) return false;
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated array");
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        break;
      }
      return Fail("expected ',' or ']' in array");
    }
    return CloseContainer(start_index, TapeKind::kArrayEnd);
  }

  bool CloseContainer(size_t start_index, TapeKind end_kind) {
    PushToken(end_kind, pos_ - 1, pos_);
    (*tokens_)[start_index].extent =
        static_cast<uint32_t>(tokens_->size() - start_index);
    (*tokens_)[start_index].end = static_cast<uint32_t>(pos_);
    return true;
  }

  bool ValidateHex4(uint32_t* cp) {
    if (pos_ + 4 > input_.size()) return Fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = input_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *cp = v;
    return true;
  }

  /// Advances over string bytes that need no decision: each whole 8-byte
  /// word with no '"', no '\\' and no byte below 0x20, then the bytes in
  /// front of the first such byte of the next word, where the byte loop
  /// in ScanString takes over. Loads stay inside the input. The first
  /// byte of a word is its lowest (the wire and bit formats already
  /// assume a little-endian host).
  void SkipPlainStringBytes() {
    while (pos_ + sizeof(uint64_t) <= input_.size()) {
      uint64_t w;
      std::memcpy(&w, input_.data() + pos_, sizeof(w));
      const uint64_t special = ZeroBytes(w ^ 0x2222222222222222ULL) |
                               ZeroBytes(w ^ 0x5C5C5C5C5C5C5C5CULL) |
                               ControlBytes(w);
      if (special != 0) {
        pos_ += static_cast<size_t>(std::countr_zero(special)) / 8;
        return;
      }
      pos_ += sizeof(uint64_t);
    }
  }

  /// Validates one string and records its content span; nothing is
  /// decoded here — DecodedString does that lazily if ever asked.
  bool ScanString() {
    if (!Expect('"')) return false;
    const size_t content_start = pos_;
    bool has_escapes = false;
    while (true) {
      SkipPlainStringBytes();
      if (AtEnd()) return Fail("unterminated string");
      const char c = input_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') continue;
      has_escapes = true;
      if (AtEnd()) return Fail("dangling escape at end of string");
      const char e = input_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          break;
        case 'u': {
          uint32_t cp = 0;
          if (!ValidateHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 >= input_.size() || input_[pos_] != '\\' ||
                input_[pos_ + 1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            if (!ValidateHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
    PushToken(TapeKind::kString, content_start, pos_ - 1);
    tokens_->back().has_escapes = has_escapes;
    return true;
  }

  /// Checks the oracle's number grammar, then converts without the
  /// oracle's calls where the result is provably the same: an integer of
  /// up to kExactIntDigits digits is accumulated, and a double goes
  /// through std::from_chars, which rounds correctly like strtod. Longer
  /// integers, and any double from_chars reports out of range (overflow
  /// and also underflow, which strtod accepts as a signed zero), take the
  /// oracle's strtoll/strtod calls verbatim.
  bool ScanNumber() {
    const size_t start = pos_;
    bool is_double = false;
    const bool negative = !AtEnd() && Peek() == '-';
    if (negative) ++pos_;
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Fail("invalid number");
    }
    uint64_t magnitude = 0;  // wraps past 19 digits; then unused
    if (Peek() == '0') {
      ++pos_;
      if (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        return Fail("leading zero in number");
      }
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        magnitude = magnitude * 10 + static_cast<uint64_t>(Peek() - '0');
        ++pos_;
      }
    }
    const size_t int_digits = pos_ - start - (negative ? 1 : 0);
    if (!AtEnd() && Peek() == '.') {
      is_double = true;
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("digit required after decimal point");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      is_double = true;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("digit required in exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!is_double && int_digits <= kExactIntDigits) {
      const int64_t v = static_cast<int64_t>(magnitude);
      PushToken(TapeKind::kInt, start, pos_);
      tokens_->back().i64 = negative ? -v : v;
      return true;
    }
    if (is_double) {
      const char* first = input_.data() + start;
      const char* last = input_.data() + pos_;
      double d = 0.0;
      const std::from_chars_result r = std::from_chars(first, last, d);
      if (r.ec == std::errc() && r.ptr == last) {
        PushToken(TapeKind::kDouble, start, pos_);
        tokens_->back().f64 = d;
        return true;
      }
    }
    // The scratch string keeps its capacity across records, so this path
    // pays a memcpy, not an allocation. The conversion calls are the
    // oracle's exactly (int64 overflow falls back to double).
    number_scratch_->assign(input_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(number_scratch_->c_str(), &end, 10);
      if (errno == 0 && end == number_scratch_->c_str() + number_scratch_->size()) {
        PushToken(TapeKind::kInt, start, pos_);
        tokens_->back().i64 = static_cast<int64_t>(v);
        return true;
      }
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(number_scratch_->c_str(), &end);
    if (end != number_scratch_->c_str() + number_scratch_->size() ||
        !std::isfinite(d)) {
      return Fail("number out of range");
    }
    PushToken(TapeKind::kDouble, start, pos_);
    tokens_->back().f64 = d;
    return true;
  }

  std::string_view input_;
  ParseOptions options_;
  std::vector<TapeToken>* tokens_;
  std::string* number_scratch_;
  size_t pos_ = 0;
  Status error_;
};

}  // namespace

std::string_view Tape::DecodedString(const TapeToken& t,
                                     std::string* scratch) const {
  const std::string_view raw = Raw(t);
  if (!t.has_escapes) return raw;
  scratch->clear();
  DecodeEscapedSpan(raw, [scratch](char c) { scratch->push_back(c); });
  return *scratch;
}

bool Tape::StringEquals(const TapeToken& t, std::string_view expected) const {
  const std::string_view raw = Raw(t);
  if (!t.has_escapes) return raw == expected;
  size_t pos = 0;
  bool equal = true;
  DecodeEscapedSpan(raw, [&](char c) {
    if (equal && (pos >= expected.size() || expected[pos] != c)) {
      equal = false;
    }
    ++pos;
  });
  return equal && pos == expected.size();
}

size_t Tape::FindField(size_t obj_index, std::string_view key) const {
  if (obj_index >= tokens_.size()) return npos;
  const TapeToken& obj = tokens_[obj_index];
  if (obj.kind != TapeKind::kObjectStart) return npos;
  size_t i = obj_index + 1;
  const size_t end = obj_index + obj.extent - 1;  // index of kObjectEnd
  while (i < end) {
    const size_t value = i + 1;
    if (StringEquals(tokens_[i], key)) return value;
    i = value + tokens_[value].extent;
  }
  return npos;
}

size_t Tape::FindPath(std::string_view dotted_path) const {
  if (tokens_.empty()) return npos;
  size_t cur = 0;
  size_t start = 0;
  while (start <= dotted_path.size()) {
    const size_t dot = dotted_path.find('.', start);
    const std::string_view piece =
        dot == std::string_view::npos
            ? dotted_path.substr(start)
            : dotted_path.substr(start, dot - start);
    cur = FindField(cur, piece);
    if (cur == npos) return npos;
    if (dot == std::string_view::npos) return cur;
    start = dot + 1;
  }
  return npos;
}

namespace {

/// Token spans are uint32; reject inputs whose offsets would wrap rather
/// than silently truncating them.
Status CheckInputSize(std::string_view input) {
  if (input.size() > static_cast<size_t>(UINT32_MAX)) {
    return Status::InvalidArgument(
        "TapeParser: input exceeds 4 GiB token-span limit");
  }
  return Status::OK();
}

}  // namespace

Status TapeParser::Parse(std::string_view input, Tape* tape) {
  CIAO_RETURN_IF_ERROR(CheckInputSize(input));
  tape->input_ = input;
  tape->tokens_.clear();
  Scanner scanner(input, options_, &tape->tokens_, &number_scratch_);
  return scanner.ScanDocument(nullptr, options_.allow_trailing);
}

Status TapeParser::ParsePrefix(std::string_view input, Tape* tape,
                               size_t* consumed) {
  CIAO_RETURN_IF_ERROR(CheckInputSize(input));
  tape->input_ = input;
  tape->tokens_.clear();
  Scanner scanner(input, options_, &tape->tokens_, &number_scratch_);
  return scanner.ScanDocument(consumed, /*allow_trailing=*/true);
}

}  // namespace ciao::json
