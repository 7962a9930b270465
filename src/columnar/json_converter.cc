#include "columnar/json_converter.h"

#include <map>

namespace ciao::columnar {

BatchBuilder::BatchBuilder(Schema schema)
    : schema_(schema), batch_(std::move(schema)) {
  field_paths_.reserve(schema_.num_fields());
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const std::string& name = schema_.field(c).name;
    std::vector<std::string> segments;
    size_t start = 0;
    while (start <= name.size()) {
      const size_t dot = name.find('.', start);
      if (dot == std::string::npos) {
        segments.push_back(name.substr(start));
        break;
      }
      segments.push_back(name.substr(start, dot - start));
      start = dot + 1;
    }
    field_paths_.push_back(std::move(segments));
  }
}

void BatchBuilder::AppendParsed(const json::Value& record) {
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const Field& field = schema_.field(c);
    ColumnVector* col = batch_.mutable_column(c);
    const json::Value* v = record.FindPath(field.name);
    if (v == nullptr || v->is_null()) {
      col->AppendNull();
      continue;
    }
    switch (field.type) {
      case ColumnType::kInt64:
        if (v->is_int()) {
          col->AppendInt64(v->as_int());
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kDouble:
        if (v->is_number()) {
          col->AppendDouble(v->AsNumber());
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kBool:
        if (v->is_bool()) {
          col->AppendBool(v->as_bool());
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kString:
        if (v->is_string()) {
          col->AppendString(v->as_string());
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
    }
  }
}

Status BatchBuilder::AppendSerialized(std::string_view serialized) {
  Status st = tape_parser_.Parse(serialized, &tape_);
  if (!st.ok()) {
    ++parse_errors_;
    return st;
  }
  AppendFromTape();
  return Status::OK();
}

void BatchBuilder::AppendFromTape() {
  using json::TapeKind;
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const Field& field = schema_.field(c);
    ColumnVector* col = batch_.mutable_column(c);
    // Walk the pre-split dotted path down the tape. A non-object at any
    // step (including a non-object root) is a miss, exactly like
    // Value::FindPath returning nullptr.
    size_t idx = 0;
    for (const std::string& segment : field_paths_[c]) {
      idx = tape_.FindField(idx, segment);
      if (idx == json::Tape::npos) break;
    }
    if (idx == json::Tape::npos ||
        tape_.token(idx).kind == TapeKind::kNull) {
      col->AppendNull();
      continue;
    }
    const json::TapeToken& t = tape_.token(idx);
    switch (field.type) {
      case ColumnType::kInt64:
        if (t.kind == TapeKind::kInt) {
          col->AppendInt64(t.i64);
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kDouble:
        if (t.kind == TapeKind::kInt) {
          col->AppendDouble(static_cast<double>(t.i64));
        } else if (t.kind == TapeKind::kDouble) {
          col->AppendDouble(t.f64);
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kBool:
        if (t.kind == TapeKind::kBool) {
          col->AppendBool(t.bool_value);
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kString:
        if (t.kind == TapeKind::kString) {
          col->AppendString(tape_.DecodedString(t, &decode_scratch_));
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
    }
  }
}

RecordBatch BatchBuilder::Finish() {
  RecordBatch out = std::move(batch_);
  batch_ = RecordBatch(schema_);
  return out;
}

Schema InferSchema(const std::vector<json::Value>& samples) {
  // Field path -> inferred type; promoted Int64->Double on conflict,
  // dropped entirely on harder conflicts.
  std::map<std::string, ColumnType> types;
  std::map<std::string, bool> dropped;
  std::vector<std::string> order;

  const auto consider = [&](const std::string& path, const json::Value& v) {
    if (v.is_array() || v.is_object() || v.is_null()) return;
    ColumnType t = ColumnType::kString;
    if (v.is_int()) {
      t = ColumnType::kInt64;
    } else if (v.is_double()) {
      t = ColumnType::kDouble;
    } else if (v.is_bool()) {
      t = ColumnType::kBool;
    }
    const auto it = types.find(path);
    if (it == types.end()) {
      types.emplace(path, t);
      order.push_back(path);
      return;
    }
    if (it->second == t) return;
    const bool numeric_pair =
        (it->second == ColumnType::kInt64 || it->second == ColumnType::kDouble) &&
        (t == ColumnType::kInt64 || t == ColumnType::kDouble);
    if (numeric_pair) {
      it->second = ColumnType::kDouble;
    } else {
      dropped[path] = true;
    }
  };

  for (const json::Value& record : samples) {
    if (!record.is_object()) continue;
    for (const auto& [key, value] : record.as_object()) {
      if (value.is_object()) {
        for (const auto& [nested_key, nested_value] : value.as_object()) {
          consider(key + "." + nested_key, nested_value);
        }
      } else {
        consider(key, value);
      }
    }
  }

  std::vector<Field> fields;
  for (const std::string& path : order) {
    if (dropped.count(path) > 0) continue;
    fields.push_back(Field{path, types.at(path)});
  }
  return Schema(std::move(fields));
}

}  // namespace ciao::columnar
