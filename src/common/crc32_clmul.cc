// The CRC-32 carry-less-multiply folding kernel, after Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009). This translation unit is compiled with
// -msse4.1 -mpclmul (see CMakeLists.txt) and only ever *called* after a
// runtime __builtin_cpu_supports check, so the rest of the library keeps
// the baseline ISA.
//
// The input is treated as a polynomial over GF(2). Four 128-bit
// accumulators each take every fourth 16-byte block; one step multiplies
// an accumulator by x^512 mod P (split into two 64-bit halves, hence two
// CLMULs) and adds the next block, so the four dependency chains run side
// by side. The accumulators are then folded into one, further 16-byte
// blocks are folded in one at a time, and the 128-bit remainder is reduced
// to 64 bits and then, by Barrett reduction, to the 32-bit CRC. All
// constants are bit-reflected, matching the reflected IEEE CRC-32 the
// slicing-by-8 loop computes, so both kernels give identical results.

#include "common/crc32_clmul.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <smmintrin.h>
#include <wmmintrin.h>
#endif

namespace ciao::internal {

#if defined(__PCLMUL__) && defined(__SSE4_1__)

bool Crc32ClmulAvailable() {
  static const bool supported =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return supported;
}

namespace {

// Reflected fold and reduction constants for P = 0x104C11DB7 (Gopal et
// al., appendix): k1/k2 fold an accumulator 512 bits ahead, k3/k4 fold 128
// bits ahead, k5 folds the last 64 bits, and P'/mu drive the Barrett
// reduction.
constexpr long long kK1 = 0x154442bd4;
constexpr long long kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0;
constexpr long long kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641;  // P'
constexpr long long kMu = 0x1f7011641;

inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves `acc` forward by the distance the constant pair `k` encodes
/// (low half times k.low, high half times k.high) and adds `block`.
inline __m128i Fold(__m128i acc, __m128i k, __m128i block) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), block);
}

}  // namespace

uint32_t Crc32ClmulFold(const unsigned char* data, size_t len,
                        uint32_t state) {
  // The register enters as the low 32 bits of the first block.
  __m128i a0 = _mm_xor_si128(Load(data),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i a1 = Load(data + 16);
  __m128i a2 = Load(data + 32);
  __m128i a3 = Load(data + 48);
  data += 64;
  len -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  while (len >= 64) {
    a0 = Fold(a0, k1k2, Load(data));
    a1 = Fold(a1, k1k2, Load(data + 16));
    a2 = Fold(a2, k1k2, Load(data + 32));
    a3 = Fold(a3, k1k2, Load(data + 48));
    data += 64;
    len -= 64;
  }

  // Four accumulators into one, then the remaining 16-byte blocks.
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  __m128i acc = Fold(a0, k3k4, a1);
  acc = Fold(acc, k3k4, a2);
  acc = Fold(acc, k3k4, a3);
  while (len >= 16) {
    acc = Fold(acc, k3k4, Load(data));
    data += 16;
    len -= 16;
  }

  // 128 -> 64 bits: the low half times k4, added to the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10),
                      _mm_srli_si128(acc, 8));
  // 64 -> 32 + 32 bits: the low 32 bits times k5, added to the rest.
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  acc = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
      _mm_srli_si128(acc, 4));

  // Barrett reduction: t1 = (acc mod x^32) * mu, t2 = (t1 mod x^32) * P';
  // the CRC is bits 32..63 of acc + t2.
  const __m128i poly = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  acc = _mm_xor_si128(acc, t);
  return static_cast<uint32_t>(_mm_extract_epi32(acc, 1));
}

#else  // !(defined(__PCLMUL__) && defined(__SSE4_1__))

bool Crc32ClmulAvailable() { return false; }

uint32_t Crc32ClmulFold(const unsigned char* data, size_t len,
                        uint32_t state) {
  return Crc32Slice8(data, len, state);
}

#endif  // defined(__PCLMUL__) && defined(__SSE4_1__)

}  // namespace ciao::internal
