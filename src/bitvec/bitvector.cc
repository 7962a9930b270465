#include "bitvec/bitvector.h"

#include <bit>
#include <cstring>

namespace ciao {

BitVector::BitVector(size_t n, bool value)
    : size_(n), words_((n + 63) / 64, value ? ~0ULL : 0ULL) {
  ClearPadding();
}

void BitVector::ClearPadding() {
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

void BitVector::PushBack(bool value) {
  if ((size_ & 63) == 0) words_.push_back(0);
  if (value) words_[size_ >> 6] |= 1ULL << (size_ & 63);
  ++size_;
}

size_t BitVector::CountOnes() const {
  size_t total = 0;
  for (const uint64_t w : words_) total += static_cast<size_t>(std::popcount(w));
  return total;
}

size_t BitVector::Rank(size_t prefix) const {
  if (prefix > size_) prefix = size_;
  size_t total = 0;
  const size_t full_words = prefix >> 6;
  for (size_t i = 0; i < full_words; ++i) {
    total += static_cast<size_t>(std::popcount(words_[i]));
  }
  const size_t tail = prefix & 63;
  if (tail != 0) {
    total += static_cast<size_t>(
        std::popcount(words_[full_words] & ((1ULL << tail) - 1)));
  }
  return total;
}

Status BitVector::AndWith(const BitVector& other) {
  if (size_ != other.size_) {
    return Status::InvalidArgument("BitVector::AndWith: size mismatch");
  }
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return Status::OK();
}

Result<bool> BitVector::AndWithAny(const BitVector& other) {
  if (size_ != other.size_) {
    return Status::InvalidArgument("BitVector::AndWithAny: size mismatch");
  }
  uint64_t any = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= other.words_[i];
    any |= words_[i];
  }
  return any != 0;
}

Status BitVector::OrWith(const BitVector& other) {
  if (size_ != other.size_) {
    return Status::InvalidArgument("BitVector::OrWith: size mismatch");
  }
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return Status::OK();
}

void BitVector::Negate() {
  for (uint64_t& w : words_) w = ~w;
  ClearPadding();
}

bool BitVector::Any() const {
  for (const uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool BitVector::All() const { return CountOnes() == size_; }

std::vector<uint32_t> BitVector::SetBits() const {
  std::vector<uint32_t> out;
  out.reserve(CountOnes());
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out.push_back(static_cast<uint32_t>((wi << 6) + static_cast<size_t>(bit)));
      w &= w - 1;
    }
  }
  return out;
}

Result<BitVector> BitVector::CompactBy(const BitVector& mask) const {
  if (size_ != mask.size_) {
    return Status::InvalidArgument("BitVector::CompactBy: size mismatch");
  }
  // Pre-sized output written word-at-a-time: mask words drive a
  // countr_zero scan over their set bits and surviving source bits are
  // packed densely, with no per-bit PushBack reallocation.
  BitVector out(mask.CountOnes());
  size_t out_pos = 0;
  for (size_t wi = 0; wi < mask.words_.size(); ++wi) {
    uint64_t m = mask.words_[wi];
    const uint64_t src = words_[wi];
    while (m != 0) {
      const int bit = std::countr_zero(m);
      if ((src >> bit) & 1ULL) {
        out.words_[out_pos >> 6] |= 1ULL << (out_pos & 63);
      }
      ++out_pos;
      m &= m - 1;
    }
  }
  return out;
}

void BitVector::SerializeTo(std::string* out) const {
  uint64_t n = size_;
  char buf[8];
  std::memcpy(buf, &n, 8);
  out->append(buf, 8);
  for (const uint64_t w : words_) {
    std::memcpy(buf, &w, 8);
    out->append(buf, 8);
  }
}

Result<BitVector> BitVector::Deserialize(std::string_view buffer,
                                         size_t* offset) {
  if (*offset > buffer.size() || buffer.size() - *offset < 8) {
    return Status::Corruption("BitVector: truncated size header");
  }
  uint64_t n = 0;
  std::memcpy(&n, buffer.data() + *offset, 8);
  *offset += 8;
  // n / 64 rounded up without the n + 63 that wraps for n near 2^64.
  const uint64_t words = n / 64 + (n % 64 != 0 ? 1 : 0);
  if (words > (buffer.size() - *offset) / 8) {
    return Status::Corruption("BitVector: truncated payload");
  }
  BitVector out;
  out.size_ = static_cast<size_t>(n);
  out.words_.resize(words);
  for (size_t i = 0; i < words; ++i) {
    std::memcpy(&out.words_[i], buffer.data() + *offset, 8);
    *offset += 8;
  }
  // Defend against padding garbage from hostile buffers.
  const size_t ones_before = out.CountOnes();
  out.ClearPadding();
  if (out.CountOnes() != ones_before) {
    return Status::Corruption("BitVector: set bits beyond declared size");
  }
  return out;
}

Result<BitVector> BitVector::IntersectAll(
    const std::vector<const BitVector*>& vectors) {
  if (vectors.empty()) {
    return Status::InvalidArgument("IntersectAll: no vectors");
  }
  BitVector out = *vectors[0];
  for (size_t i = 1; i < vectors.size(); ++i) {
    CIAO_RETURN_IF_ERROR(out.AndWith(*vectors[i]));
  }
  return out;
}

}  // namespace ciao
