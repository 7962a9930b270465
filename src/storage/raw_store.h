#ifndef CIAO_STORAGE_RAW_STORE_H_
#define CIAO_STORAGE_RAW_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ciao {

/// Sideline storage for records the partial loader chose *not* to load:
/// raw JSON bytes kept append-only with an offset index (the paper's
/// "data left in a raw JSON format, which requires later parsing", §VI-A).
class RawStore {
 public:
  RawStore() = default;

  /// Appends one raw record (serialized JSON, no newline).
  void Append(std::string_view record);

  size_t size() const { return offsets_.size(); }
  bool empty() const { return offsets_.empty(); }
  uint64_t byte_size() const { return data_.size(); }

  std::string_view Record(size_t i) const {
    return std::string_view(data_).substr(offsets_[i], lengths_[i]);
  }

 private:
  std::string data_;
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> lengths_;
};

}  // namespace ciao

#endif  // CIAO_STORAGE_RAW_STORE_H_
