#include "matcher/kernels.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/simd_gate.h"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace ciao {

std::string_view SearchKernelName(SearchKernel kernel) {
  switch (kernel) {
    case SearchKernel::kStdFind:
      return "std_find";
    case SearchKernel::kMemchr:
      return "memchr";
    case SearchKernel::kHorspool:
      return "horspool";
    case SearchKernel::kSwar:
      return "swar";
  }
  return "unknown";
}

std::vector<SearchKernel> AllSearchKernels() {
  return {SearchKernel::kStdFind, SearchKernel::kMemchr,
          SearchKernel::kHorspool, SearchKernel::kSwar};
}

size_t FindStd(std::string_view hay, std::string_view needle, size_t from) {
  return hay.find(needle, from);
}

size_t FindMemchr(std::string_view hay, std::string_view needle, size_t from) {
  if (needle.empty()) return from <= hay.size() ? from : std::string_view::npos;
  if (from >= hay.size() || hay.size() - from < needle.size()) {
    return std::string_view::npos;
  }
  const char first = needle[0];
  const char* base = hay.data();
  size_t pos = from;
  const size_t last_start = hay.size() - needle.size();
  while (pos <= last_start) {
    const void* hit =
        std::memchr(base + pos, first, last_start - pos + 1);
    if (hit == nullptr) return std::string_view::npos;
    pos = static_cast<size_t>(static_cast<const char*>(hit) - base);
    if (needle.size() == 1 ||
        std::memcmp(base + pos + 1, needle.data() + 1, needle.size() - 1) ==
            0) {
      return pos;
    }
    ++pos;
  }
  return std::string_view::npos;
}

HorspoolTable HorspoolTable::Build(std::string_view needle) {
  HorspoolTable t;
  const size_t m = needle.size();
  const size_t default_shift = m == 0 ? 1 : m;
  for (size_t i = 0; i < 256; ++i) t.shift[i] = default_shift;
  if (m >= 1) {
    for (size_t i = 0; i + 1 < m; ++i) {
      t.shift[static_cast<unsigned char>(needle[i])] = m - 1 - i;
    }
  }
  return t;
}

size_t FindHorspool(std::string_view hay, std::string_view needle,
                    const HorspoolTable& table, size_t from) {
  const size_t m = needle.size();
  if (m == 0) return from <= hay.size() ? from : std::string_view::npos;
  if (from >= hay.size() || hay.size() - from < m) {
    return std::string_view::npos;
  }
  size_t pos = from;
  const size_t last_start = hay.size() - m;
  const char last_char = needle[m - 1];
  while (pos <= last_start) {
    const char tail = hay[pos + m - 1];
    if (tail == last_char &&
        std::memcmp(hay.data() + pos, needle.data(), m - 1) == 0) {
      return pos;
    }
    pos += table.shift[static_cast<unsigned char>(tail)];
  }
  return std::string_view::npos;
}

namespace {

/// Verifies the (already two-byte-screened) candidate at `pos`.
inline bool VerifyTail(const char* hay, const char* needle, size_t m,
                       size_t pos) {
  return m <= 2 ||
         std::memcmp(hay + pos + 2, needle + 2, m - 2) == 0;
}

}  // namespace

size_t FindSwarFallback(std::string_view hay, std::string_view needle,
                        size_t from) {
  const size_t m = needle.size();
  // Degenerate needles (empty, 1-byte) have no second probe byte; route
  // them to FindMemchr before any two-byte setup. FindMemchr implements
  // the empty-needle semantics of std::string_view::find exactly.
  if (m < 2) return FindMemchr(hay, needle, from);
  if (from >= hay.size() || hay.size() - from < m) {
    return std::string_view::npos;
  }

  const char* base = hay.data();
  const size_t last_start = hay.size() - m;
  size_t pos = from;

  // Screen 8 candidate first/second bytes per uint64 load using the
  // classic zero-byte detector on the XOR with a broadcast.
  const uint64_t kLow = 0x0101010101010101ULL;
  const uint64_t kHigh = 0x8080808080808080ULL;
  const uint64_t first = kLow * static_cast<unsigned char>(needle[0]);
  const uint64_t second = kLow * static_cast<unsigned char>(needle[1]);
  while (pos <= last_start && pos + 9 <= hay.size()) {
    uint64_t w0, w1;
    std::memcpy(&w0, base + pos, 8);
    std::memcpy(&w1, base + pos + 1, 8);
    const uint64_t x0 = w0 ^ first;
    const uint64_t x1 = w1 ^ second;
    // The subtraction borrow can flag bytes following a genuine zero, so
    // this screen has false positives — candidates must re-check their
    // first two bytes before the tail verify (unlike the exact SSE2
    // cmpeq screen).
    uint64_t hits = ((x0 - kLow) & ~x0 & kHigh) &
                    ((x1 - kLow) & ~x1 & kHigh);
    while (hits != 0) {
      const size_t candidate =
          pos + static_cast<size_t>(__builtin_ctzll(hits)) / 8;
      if (candidate <= last_start && base[candidate] == needle[0] &&
          base[candidate + 1] == needle[1] &&
          VerifyTail(base, needle.data(), m, candidate)) {
        return candidate;
      }
      hits &= hits - 1;
    }
    pos += 8;
  }

  // Scalar tail for the last < block-size positions.
  for (; pos <= last_start; ++pos) {
    if (base[pos] == needle[0] && base[pos + 1] == needle[1] &&
        VerifyTail(base, needle.data(), m, pos)) {
      return pos;
    }
  }
  return std::string_view::npos;
}

size_t FindSwar(std::string_view hay, std::string_view needle, size_t from) {
#ifdef __SSE2__
  // Forced-fallback knob: CIAO_DISABLE_SIMD=sse2 routes to the portable
  // SWAR path so its correctness is testable on SSE2 hardware.
  if (SimdFeatureDisabled(SimdFeature::kSse2)) {
    return FindSwarFallback(hay, needle, from);
  }
  const size_t m = needle.size();
  // As in FindSwarFallback: degenerate needles route to FindMemchr
  // explicitly instead of threading through the two-byte probe setup.
  if (m < 2) return FindMemchr(hay, needle, from);
  if (from >= hay.size() || hay.size() - from < m) {
    return std::string_view::npos;
  }

  const char* base = hay.data();
  const size_t last_start = hay.size() - m;
  size_t pos = from;

  const __m128i first = _mm_set1_epi8(needle[0]);
  const __m128i second = _mm_set1_epi8(needle[1]);
  // Blocks of 16 candidate positions; the second-byte load reads
  // hay[pos+1 .. pos+16], so stop while pos+17 <= hay.size().
  while (pos <= last_start && pos + 17 <= hay.size()) {
    const __m128i block0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + pos));
    const __m128i block1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + pos + 1));
    uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(
        _mm_and_si128(_mm_cmpeq_epi8(block0, first),
                      _mm_cmpeq_epi8(block1, second))));
    // Drop candidates whose window would run past the haystack.
    if (pos + 15 > last_start) {
      mask &= (1u << (last_start - pos + 1)) - 1u;
    }
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
      const size_t candidate = pos + bit;
      // The cmpeq screen is exact, so only the tail needs verifying.
      if (VerifyTail(base, needle.data(), m, candidate)) return candidate;
      mask &= mask - 1;
    }
    pos += 16;
  }

  // Scalar tail for the last < block-size positions.
  for (; pos <= last_start; ++pos) {
    if (base[pos] == needle[0] && base[pos + 1] == needle[1] &&
        VerifyTail(base, needle.data(), m, pos)) {
      return pos;
    }
  }
  return std::string_view::npos;
#else
  return FindSwarFallback(hay, needle, from);
#endif
}

size_t Find(SearchKernel kernel, std::string_view hay, std::string_view needle,
            size_t from) {
  switch (kernel) {
    case SearchKernel::kStdFind:
      return FindStd(hay, needle, from);
    case SearchKernel::kMemchr:
      return FindMemchr(hay, needle, from);
    case SearchKernel::kHorspool: {
      // Per-thread memo keyed on the needle bytes: repeated one-shot
      // probes with the same needle (calibration sweeps, tests, backfill
      // passes) reuse the table instead of rebuilding the 256-entry
      // array per call.
      //
      // Thread-safety: the memo is thread_local, so every thread —
      // including backfill and loader-pool workers, which reach this
      // dispatch concurrently — owns an independent entry and no state
      // is ever shared across threads. Each entry is immutable after
      // construction: a needle change builds a *fresh* entry and swaps
      // it in, rather than mutating a table another frame could alias
      // (tests/matcher_concurrency_test.cc pins this under TSan).
      struct Memo {
        std::string needle;
        HorspoolTable table;
        explicit Memo(std::string_view n)
            : needle(n), table(HorspoolTable::Build(n)) {}
      };
      thread_local std::unique_ptr<Memo> memo;
      if (memo == nullptr || memo->needle != needle) {
        memo = std::make_unique<Memo>(needle);
      }
      return FindHorspool(hay, needle, memo->table, from);
    }
    case SearchKernel::kSwar:
      return FindSwar(hay, needle, from);
  }
  return std::string_view::npos;
}

}  // namespace ciao
