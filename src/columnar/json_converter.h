#ifndef CIAO_COLUMNAR_JSON_CONVERTER_H_
#define CIAO_COLUMNAR_JSON_CONVERTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/status.h"
#include "json/tape_parser.h"
#include "json/value.h"

namespace ciao::columnar {

/// Converts JSON records into a RecordBatch, schema-driven. This is the
/// expensive "loading" step the paper wants to avoid for irrelevant
/// records: parse, extract (dotted paths into nested objects), coerce, and
/// append columnar values.
///
/// Serialized records take the zero-allocation tape path: one single-pass
/// scan onto a reusable token tape, then only the schema's columns are
/// pulled off the tape — no DOM is materialized. AppendParsed converts an
/// already-parsed DOM with the same rules; tests/tape_parser_test.cc pins
/// json::Parse + AppendParsed and AppendSerialized to identical batches.
///
/// Coercion rules: Int64 accepts JSON ints; Double accepts ints and
/// doubles; Bool accepts bools; String accepts strings. A missing field or
/// JSON null becomes NULL. A type mismatch also becomes NULL but is
/// counted in `coercion_errors` — generators never produce mismatches, so
/// a non-zero count flags schema drift.
class BatchBuilder {
 public:
  explicit BatchBuilder(Schema schema);

  /// Appends one parsed record.
  void AppendParsed(const json::Value& record);

  /// Tape-parses `serialized` then appends; returns the parse error if
  /// any (the record is then skipped, counted in `parse_errors`).
  Status AppendSerialized(std::string_view serialized);

  size_t num_rows() const { return batch_.num_rows(); }
  size_t coercion_errors() const { return coercion_errors_; }
  size_t parse_errors() const { return parse_errors_; }

  /// Returns the accumulated batch; the builder resets to empty.
  RecordBatch Finish();

 private:
  void AppendFromTape();

  Schema schema_;
  RecordBatch batch_;
  size_t coercion_errors_ = 0;
  size_t parse_errors_ = 0;

  // Tape state, reused across records so steady-state appends do not
  // allocate: the parser's number scratch, the token tape, the
  // escaped-string decode scratch, and each field's pre-split dotted path
  // (split exactly like Value::FindPath, empty segments preserved).
  json::TapeParser tape_parser_;
  json::Tape tape_;
  std::string decode_scratch_;
  std::vector<std::vector<std::string>> field_paths_;
};

/// Infers a flat schema from sample records: scalar top-level (and
/// one-level nested, dotted) fields with consistent types across the
/// sample. Arrays and deeper nesting are skipped. Used by tests and the
/// quickstart example; production pipelines pass an explicit schema.
Schema InferSchema(const std::vector<json::Value>& samples);

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_JSON_CONVERTER_H_
