#include "columnar/schema.h"

#include "columnar/wire.h"

namespace ciao::columnar {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "int64";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kBool:
      return "bool";
    case ColumnType::kString:
      return "string";
  }
  return "unknown";
}

int Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Schema::SerializeTo(std::string* out) const {
  wire::PutU32(static_cast<uint32_t>(fields_.size()), out);
  for (const Field& f : fields_) {
    wire::PutBytes(f.name, out);
    wire::PutU8(static_cast<uint8_t>(f.type), out);
  }
}

Result<Schema> Schema::Deserialize(std::string_view buffer, size_t* offset) {
  wire::Cursor cursor(buffer, *offset);
  uint32_t count = 0;
  CIAO_RETURN_IF_ERROR(cursor.ReadU32(&count));
  // No CRC covers the schema, so bound the count before reserving: each
  // field takes at least its u32 name length and u8 type.
  CIAO_RETURN_IF_ERROR(cursor.CheckCount(count, 5, "schema field count"));
  std::vector<Field> fields;
  fields.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name;
    CIAO_RETURN_IF_ERROR(cursor.ReadBytes(&name));
    uint8_t type = 0;
    CIAO_RETURN_IF_ERROR(cursor.ReadU8(&type));
    if (type > static_cast<uint8_t>(ColumnType::kString)) {
      return Status::Corruption("schema: unknown column type");
    }
    fields.push_back(Field{std::string(name), static_cast<ColumnType>(type)});
  }
  *offset = cursor.position();
  return Schema(std::move(fields));
}

}  // namespace ciao::columnar
