#ifndef CIAO_COLUMNAR_WIRE_H_
#define CIAO_COLUMNAR_WIRE_H_

// Internal little-endian wire helpers shared by the columnar codec.
// Not part of the public API.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ciao::columnar::wire {

inline void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

inline void PutF64(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(bits, out);
}

inline void PutBytes(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Bounds-checked sequential reader over a byte buffer.
class Cursor {
 public:
  explicit Cursor(std::string_view data, size_t offset = 0)
      : data_(data), pos_(offset) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

  Status ReadU8(uint8_t* v) {
    if (remaining() < 1) return Truncated("u8");
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status ReadU32(uint32_t* v) {
    if (remaining() < 4) return Truncated("u32");
    std::memcpy(v, data_.data() + pos_, 4);
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* v) {
    if (remaining() < 8) return Truncated("u64");
    std::memcpy(v, data_.data() + pos_, 8);
    pos_ += 8;
    return Status::OK();
  }

  Status ReadI64(int64_t* v) {
    uint64_t u = 0;
    CIAO_RETURN_IF_ERROR(ReadU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status ReadF64(double* v) {
    uint64_t bits = 0;
    CIAO_RETURN_IF_ERROR(ReadU64(&bits));
    std::memcpy(v, &bits, 8);
    return Status::OK();
  }

  /// Reads a u32-length-prefixed byte string as a view into the buffer.
  Status ReadBytes(std::string_view* out) {
    uint32_t len = 0;
    CIAO_RETURN_IF_ERROR(ReadU32(&len));
    if (remaining() < len) return Truncated("bytes payload");
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Reads exactly `len` raw bytes as a view.
  Status ReadRaw(size_t len, std::string_view* out) {
    if (remaining() < len) return Truncated("raw bytes");
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status Skip(size_t len) {
    if (remaining() < len) return Truncated("skip");
    pos_ += len;
    return Status::OK();
  }

  /// Corruption unless `count` entries of at least `min_entry_bytes` each
  /// fit in the bytes left. Run on every decoded count before it sizes an
  /// allocation, so a flipped bit cannot ask for gigabytes.
  Status CheckCount(uint64_t count, size_t min_entry_bytes,
                    const char* what) const {
    if (count > remaining() / min_entry_bytes) {
      return Status::Corruption(std::string("columnar file: ") + what +
                                " exceeds the bytes left");
    }
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) const {
    return Status::Corruption(std::string("columnar file truncated reading ") +
                              what);
  }

  std::string_view data_;
  size_t pos_;
};

}  // namespace ciao::columnar::wire

#endif  // CIAO_COLUMNAR_WIRE_H_
