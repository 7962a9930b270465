#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/crc32_clmul.h"
#include "common/simd_gate.h"

namespace ciao {

namespace {

/// Slicing-by-8 table set: table[0] is the classic byte-at-a-time table,
/// table[t][b] is the CRC of byte b followed by t zero bytes. Eight bytes
/// are then folded per step with eight independent lookups instead of an
/// 8-long dependency chain — ~6-8x over the byte loop.
std::array<std::array<uint32_t, 256>, 8> BuildTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFF] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

/// The folding kernel runs when the CPU has it and CIAO_DISABLE_SIMD does
/// not mask it (the mask is re-read per call so tests can flip it).
bool ClmulEnabled() {
  return internal::Crc32ClmulAvailable() &&
         !SimdFeatureDisabled(SimdFeature::kPclmul);
}

}  // namespace

namespace internal {

uint32_t Crc32Slice8(const unsigned char* p, size_t len, uint32_t c) {
  static const auto kTables = BuildTables();
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    c = kTables[0][(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

}  // namespace internal

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFU;
  if (len >= internal::kCrc32ClmulMinBytes && ClmulEnabled()) {
    // The kernel takes whole 16-byte blocks; slicing-by-8 finishes the
    // len % 16 tail from the folded register.
    const size_t folded = len & ~size_t{15};
    c = internal::Crc32ClmulFold(p, folded, c);
    p += folded;
    len -= folded;
  }
  return internal::Crc32Slice8(p, len, c) ^ 0xFFFFFFFFU;
}

}  // namespace ciao
