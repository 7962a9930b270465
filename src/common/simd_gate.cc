#include "common/simd_gate.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

namespace ciao {

namespace {

unsigned ParseFromEnv() {
  const char* env = std::getenv("CIAO_DISABLE_SIMD");
  return env == nullptr ? 0u : ParseSimdDisableList(env);
}

/// Cached mask; re-parsed only via ReloadSimdDisableMaskForTest. Relaxed
/// atomics: readers only need *a* consistent value, and the test hook is
/// documented as not racing scan threads.
std::atomic<unsigned>& CachedMask() {
  static std::atomic<unsigned> mask{ParseFromEnv()};
  return mask;
}

}  // namespace

unsigned ParseSimdDisableList(std::string_view list) {
  unsigned mask = 0;
  size_t start = 0;
  while (start <= list.size()) {
    size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    std::string token;
    for (size_t i = start; i < end; ++i) {
      const char ch = list[i];
      if (!std::isspace(static_cast<unsigned char>(ch))) {
        token.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
      }
    }
    if (token == "sse2") mask |= 1u << static_cast<int>(SimdFeature::kSse2);
    if (token == "ssse3") mask |= 1u << static_cast<int>(SimdFeature::kSsse3);
    if (token == "avx2") mask |= 1u << static_cast<int>(SimdFeature::kAvx2);
    if (token == "pclmul") {
      mask |= 1u << static_cast<int>(SimdFeature::kPclmul);
    }
    if (token == "all") {
      mask |= (1u << static_cast<int>(SimdFeature::kSse2)) |
              (1u << static_cast<int>(SimdFeature::kSsse3)) |
              (1u << static_cast<int>(SimdFeature::kAvx2)) |
              (1u << static_cast<int>(SimdFeature::kPclmul));
    }
    if (end == list.size()) break;
    start = end + 1;
  }
  return mask;
}

bool SimdFeatureDisabled(SimdFeature feature) {
  return (CachedMask().load(std::memory_order_relaxed) &
          (1u << static_cast<int>(feature))) != 0;
}

void ReloadSimdDisableMaskForTest() {
  CachedMask().store(ParseFromEnv(), std::memory_order_relaxed);
}

}  // namespace ciao
