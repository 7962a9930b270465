#include "json/chunk.h"

#include <cstring>

#include "json/writer.h"

namespace ciao::json {

void JsonChunk::Reserve(size_t records, size_t bytes) {
  data_.reserve(data_.size() + bytes);
  offsets_.reserve(offsets_.size() + records);
  lengths_.reserve(lengths_.size() + records);
}

void JsonChunk::AppendSerialized(std::string_view record) {
  offsets_.push_back(static_cast<uint32_t>(data_.size()));
  lengths_.push_back(static_cast<uint32_t>(record.size()));
  data_.append(record);
  data_.push_back('\n');
}

void JsonChunk::AppendValue(const Value& v) {
  offsets_.push_back(static_cast<uint32_t>(data_.size()));
  const size_t before = data_.size();
  WriteTo(v, &data_);
  lengths_.push_back(static_cast<uint32_t>(data_.size() - before));
  data_.push_back('\n');
}

std::string_view JsonChunk::Record(size_t i) const {
  return std::string_view(data_).substr(offsets_[i], lengths_[i]);
}

double JsonChunk::MeanRecordLength() const {
  if (offsets_.empty()) return 0.0;
  double total = 0.0;
  for (const uint32_t len : lengths_) total += len;
  return total / static_cast<double>(offsets_.size());
}

Result<JsonChunk> JsonChunk::FromNdjson(std::string buffer) {
  if (!buffer.empty() && buffer.back() != '\n') {
    return Status::Corruption("NDJSON buffer does not end with newline");
  }
  JsonChunk chunk;
  chunk.data_ = std::move(buffer);
  const char* data = chunk.data_.data();
  const size_t size = chunk.data_.size();
  // The buffer ends with '\n', so every search from a record start finds
  // one.
  for (size_t start = 0; start < size;) {
    const char* newline = static_cast<const char*>(
        std::memchr(data + start, '\n', size - start));
    const size_t end = static_cast<size_t>(newline - data);
    chunk.offsets_.push_back(static_cast<uint32_t>(start));
    chunk.lengths_.push_back(static_cast<uint32_t>(end - start));
    start = end + 1;
  }
  return chunk;
}

std::vector<JsonChunk> SplitIntoChunks(const std::vector<std::string>& records,
                                       size_t chunk_size) {
  std::vector<JsonChunk> chunks;
  if (chunk_size == 0) chunk_size = 1;
  for (size_t i = 0; i < records.size(); i += chunk_size) {
    JsonChunk chunk;
    const size_t end = std::min(records.size(), i + chunk_size);
    for (size_t j = i; j < end; ++j) chunk.AppendSerialized(records[j]);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

}  // namespace ciao::json
