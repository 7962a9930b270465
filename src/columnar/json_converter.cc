#include "columnar/json_converter.h"

#include <algorithm>
#include <bit>
#include <map>

namespace ciao::columnar {

BatchBuilder::BatchBuilder(Schema schema)
    : schema_(schema), batch_(std::move(schema)) {
  size_t segments = 0;
  for (const Field& field : schema_.fields()) {
    segments += 1 + static_cast<size_t>(
                        std::count(field.name.begin(), field.name.end(), '.'));
  }
  keys_.reserve(segments);
  key_slots_.assign(std::bit_ceil(2 * segments + 2), kNone);
  field_key_.reserve(schema_.num_fields());
  uint32_t levels = 1;
  for (const Field& field : schema_.fields()) {
    const std::string_view name = field.name;
    uint32_t level = 0;
    size_t start = 0;
    while (true) {
      const size_t dot = name.find('.', start);
      const std::string_view segment = name.substr(start, dot - start);
      const size_t slot = FindSlot(level, segment);
      if (key_slots_[slot] == kNone) {
        key_slots_[slot] = static_cast<uint32_t>(keys_.size());
        keys_.push_back(KeyEntry{segment, level});
      }
      const uint32_t k = key_slots_[slot];
      if (dot == std::string_view::npos) {
        field_key_.push_back(k);
        break;
      }
      if (keys_[k].child == kNone) keys_[k].child = levels++;
      level = keys_[k].child;
      start = dot + 1;
    }
  }
}

size_t BatchBuilder::FindSlot(uint32_t level, std::string_view key) const {
  // The length and three sampled bytes tell a schema's keys apart well
  // enough; linear probing settles the rest.
  uint64_t h = key.size() ^ (uint64_t{level} << 40);
  if (!key.empty()) {
    h ^= uint64_t{static_cast<unsigned char>(key.front())} << 8 |
         uint64_t{static_cast<unsigned char>(key[key.size() / 2])} << 16 |
         uint64_t{static_cast<unsigned char>(key.back())} << 24;
  }
  const size_t mask = key_slots_.size() - 1;
  size_t slot = static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
  while (true) {
    const uint32_t k = key_slots_[slot];
    if (k == kNone || (keys_[k].level == level && keys_[k].key == key)) {
      return slot;
    }
    slot = (slot + 1) & mask;
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

void BatchBuilder::WalkObject(size_t obj_index, uint32_t level) {
  const size_t end = obj_index + tape_.token(obj_index).extent - 1;
  size_t i = obj_index + 1;
  while (i < end) {
    const size_t value = i + 1;
    const uint32_t k = key_slots_[FindSlot(
        level, tape_.DecodedString(tape_.token(i), &decode_scratch_))];
    if (k != kNone && keys_[k].value == json::Tape::npos) {
      keys_[k].value = value;
      if (keys_[k].child != kNone &&
          tape_.token(value).kind == json::TapeKind::kObjectStart) {
        WalkObject(value, keys_[k].child);
      }
    }
    i = value + tape_.token(value).extent;
  }
}

void BatchBuilder::AppendFromTape() {
  using json::TapeKind;
  for (KeyEntry& key : keys_) key.value = json::Tape::npos;
  if (tape_.token(0).kind == TapeKind::kObjectStart) WalkObject(0, 0);
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const Field& field = schema_.field(c);
    ColumnVector* col = batch_.mutable_column(c);
    const size_t idx = keys_[field_key_[c]].value;
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
