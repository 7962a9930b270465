#ifndef CIAO_COLUMNAR_JSON_CONVERTER_H_
#define CIAO_COLUMNAR_JSON_CONVERTER_H_

#include <cstdint>
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
/// scan onto a reusable token tape, then one pass over the record's keys
/// pulls the schema's columns off it — no DOM is materialized. A key map,
/// built from the schema at construction, sends each key of an object
/// level to the fields it ends and, for a dotted path's parent key, into
/// its nested object, so each key of the record is looked up once. The
/// map keeps the rules of Value::FindPath: keys match on their decoded
/// bytes, the first occurrence of a key in an object wins, a path descends
/// only into the first occurrence of its parent key and only if that is an
/// object, empty segments are kept, a literal dotted key never matches a
/// path, and a non-object root resolves nothing. AppendParsed converts an
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

  // The key map views the field names of `schema_`, which a copy or a
  // move would not carry along.
  BatchBuilder(const BatchBuilder&) = delete;
  BatchBuilder& operator=(const BatchBuilder&) = delete;

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
  static constexpr uint32_t kNone = UINT32_MAX;

  /// One key of one object level of the schema's paths. Level 0 is the
  /// record's root object; a key that is a parent segment of some path
  /// leads into a level of its own.
  struct KeyEntry {
    std::string_view key;   // one path segment, a view into schema_
    uint32_t level = 0;
    uint32_t child = kNone;  // the level this key leads into, if any
    /// Tape index of the value of the key's first occurrence in the
    /// current record, or Tape::npos.
    size_t value = json::Tape::npos;
  };

  /// The slot of `key` at `level` in key_slots_, or the empty slot where
  /// it would go.
  size_t FindSlot(uint32_t level, std::string_view key) const;
  void WalkObject(size_t obj_index, uint32_t level);
  void AppendFromTape();

  Schema schema_;
  RecordBatch batch_;
  size_t coercion_errors_ = 0;
  size_t parse_errors_ = 0;

  // The key map: every distinct (level, segment) of the schema's paths
  // split exactly like Value::FindPath, an open-addressed table of their
  // indexes (kNone = empty slot, at most half full), and each field's
  // last-segment key.
  std::vector<KeyEntry> keys_;
  std::vector<uint32_t> key_slots_;
  std::vector<uint32_t> field_key_;

  // Tape state, reused across records so steady-state appends do not
  // allocate: the parser's number scratch, the token tape and the
  // escaped-string decode scratch.
  json::TapeParser tape_parser_;
  json::Tape tape_;
  std::string decode_scratch_;
};

/// Infers a flat schema from sample records: scalar top-level (and
/// one-level nested, dotted) fields with consistent types across the
/// sample. Arrays and deeper nesting are skipped. Used by tests and the
/// quickstart example; production pipelines pass an explicit schema.
Schema InferSchema(const std::vector<json::Value>& samples);

}  // namespace ciao::columnar

#endif  // CIAO_COLUMNAR_JSON_CONVERTER_H_
