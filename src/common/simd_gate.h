#ifndef CIAO_COMMON_SIMD_GATE_H_
#define CIAO_COMMON_SIMD_GATE_H_

#include <string_view>

namespace ciao {

/// SIMD instruction-set tiers the dispatchers can be told to avoid via the
/// CIAO_DISABLE_SIMD environment knob (comma-separated list, e.g.
/// "avx2,ssse3"; "all" covers every tier). The knob *masks* features at
/// dispatch time so the scalar fallbacks can be exercised on machines that
/// do have the hardware — the forced-fallback CI leg runs the matcher,
/// vectorized and storage suites under it. It can only disable; it never
/// enables a kernel the CPU lacks (runtime feature detection stays the
/// hard guard).
enum class SimdFeature {
  kSse2,    // FindSwar's 16-wide cmpeq screen
  kSsse3,   // Teddy pshufb nibble-lookup kernel
  kAvx2,    // Teddy 32-wide kernel
  kPclmul,  // CRC-32 carry-less-multiply folding kernel
};

/// True when `feature` is listed in CIAO_DISABLE_SIMD. The env var is
/// parsed once and cached (dispatch sites sit on hot build/scan paths);
/// tests that mutate the env must call ReloadSimdDisableMaskForTest.
bool SimdFeatureDisabled(SimdFeature feature);

/// Re-parses CIAO_DISABLE_SIMD (test hook; not thread-safe against
/// concurrent SimdFeatureDisabled callers).
void ReloadSimdDisableMaskForTest();

/// Parses a CIAO_DISABLE_SIMD-style list into a bitmask of SimdFeature
/// bits (1 << feature). Unknown tokens are ignored, matching is
/// case-insensitive and whitespace-tolerant. Exposed for tests.
unsigned ParseSimdDisableList(std::string_view list);

}  // namespace ciao

#endif  // CIAO_COMMON_SIMD_GATE_H_
