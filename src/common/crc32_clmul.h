#ifndef CIAO_COMMON_CRC32_CLMUL_H_
#define CIAO_COMMON_CRC32_CLMUL_H_

// Internal CRC-32 kernels shared by crc32.cc (the dispatcher) and
// crc32_clmul.cc (the carry-less-multiply kernel, compiled with
// -msse4.1 -mpclmul and runtime-dispatched). Not part of the public API;
// callers use ciao::Crc32.
//
// Both kernels advance the raw CRC register: the caller applies the
// pre- and post-inversion of the IEEE CRC-32 around them.

#include <cstddef>
#include <cstdint>

namespace ciao::internal {

/// Smallest input the folding kernel takes: one 16-byte block per lane.
inline constexpr size_t kCrc32ClmulMinBytes = 64;

/// True when the folding kernel was compiled in and this CPU has
/// PCLMULQDQ and SSE4.1 (checked once, then cached).
bool Crc32ClmulAvailable();

/// Folds `data[0, len)` into the register `state`. `len` must be at least
/// kCrc32ClmulMinBytes and a multiple of 16. Call only when
/// Crc32ClmulAvailable(); where the kernel is not compiled in, this is the
/// slicing-by-8 loop.
uint32_t Crc32ClmulFold(const unsigned char* data, size_t len, uint32_t state);

/// The portable slicing-by-8 loop over any length: the path for short
/// inputs, the folding kernel's tail and CPUs without CLMUL.
uint32_t Crc32Slice8(const unsigned char* data, size_t len, uint32_t state);

}  // namespace ciao::internal

#endif  // CIAO_COMMON_CRC32_CLMUL_H_
