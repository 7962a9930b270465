#ifndef CIAO_COMMON_CRC32_H_
#define CIAO_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ciao {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Guards every columnar row
/// group, WAL frame, manifest and sideline snapshot against torn writes
/// and bit rot; readers verify before decoding (tests inject corruption
/// to prove detection). Inputs of 64 bytes and more go through a
/// carry-less-multiply folding kernel where the CPU has PCLMULQDQ and
/// SSE4.1 (CIAO_DISABLE_SIMD=pclmul masks it); shorter inputs, the
/// len % 16 tail and other CPUs use slicing-by-8. Both give the same
/// result bit for bit.
///
/// The raw-pointer overload deliberately has NO default seed: with one,
/// `Crc32("literal", 0)` would silently bind the literal to `const void*`
/// with length 0 instead of converting to string_view.
uint32_t Crc32(const void* data, size_t len, uint32_t seed);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace ciao

#endif  // CIAO_COMMON_CRC32_H_
