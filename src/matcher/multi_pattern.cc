#include "matcher/multi_pattern.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>

#include "common/simd_gate.h"
#include "matcher/teddy_impl.h"

namespace ciao {

namespace {

/// Process-wide kAuto crossover. A mutex-guarded copy (not atomics on the
/// members) so a reader never observes a torn half-installed crossover;
/// Build() is never hot enough for the lock to matter.
std::mutex g_crossover_mu;
KernelCrossover g_crossover;

}  // namespace

void SetActiveKernelCrossover(const KernelCrossover& crossover) {
  std::lock_guard<std::mutex> lock(g_crossover_mu);
  g_crossover = crossover;
}

KernelCrossover ActiveKernelCrossover() {
  std::lock_guard<std::mutex> lock(g_crossover_mu);
  return g_crossover;
}

std::string_view ClientMatcherModeName(ClientMatcherMode mode) {
  switch (mode) {
    case ClientMatcherMode::kPerPattern:
      return "per_pattern";
    case ClientMatcherMode::kBatched:
      return "batched";
  }
  return "unknown";
}

MultiPatternMatcher::MultiPatternMatcher() = default;
MultiPatternMatcher::MultiPatternMatcher(MultiPatternMatcher&&) noexcept =
    default;
MultiPatternMatcher& MultiPatternMatcher::operator=(
    MultiPatternMatcher&&) noexcept = default;
MultiPatternMatcher::~MultiPatternMatcher() = default;

namespace {

using internal::AcAutomaton;
using internal::TeddyPlan;

std::unique_ptr<TeddyPlan> BuildTeddy(const std::vector<std::string>& patterns,
                                      const std::vector<uint32_t>& ids,
                                      size_t min_len) {
  auto plan = std::make_unique<TeddyPlan>();
  plan->m = static_cast<int>(std::min<size_t>(3, min_len));

  // Bucket assignment: sort by the fingerprint bytes and split into 8
  // contiguous runs, so patterns sharing a prefix land in the same bucket
  // and pollute the other buckets' screens as little as possible.
  std::vector<uint32_t> order = ids;
  const size_t m = static_cast<size_t>(plan->m);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const std::string_view fa(patterns[a].data(), m);
    const std::string_view fb(patterns[b].data(), m);
    return fa != fb ? fa < fb : a < b;
  });
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t bucket = i * 8 / order.size();
    plan->bucket_patterns[bucket].push_back(order[i]);
    const unsigned char* bytes =
        reinterpret_cast<const unsigned char*>(patterns[order[i]].data());
    const uint8_t bit = static_cast<uint8_t>(1u << bucket);
    for (size_t j = 0; j < m; ++j) {
      plan->byte_mask[j][bytes[j]] |= bit;
      plan->lo_nibble[j][bytes[j] & 0x0F] |= bit;
      plan->hi_nibble[j][bytes[j] >> 4] |= bit;
    }
  }
  return plan;
}

std::unique_ptr<AcAutomaton> BuildAhoCorasick(
    const std::vector<std::string>& patterns,
    const std::vector<uint32_t>& ids) {
  // Trie construction (sparse children during build).
  struct Node {
    std::vector<int32_t> child = std::vector<int32_t>(256, -1);
    std::vector<uint32_t> out;
    uint32_t fail = 0;
  };
  std::vector<Node> trie(1);
  for (const uint32_t pid : ids) {
    int32_t s = 0;
    for (const char ch : patterns[pid]) {
      const unsigned char c = static_cast<unsigned char>(ch);
      if (trie[s].child[c] < 0) {
        trie[s].child[c] = static_cast<int32_t>(trie.size());
        trie.emplace_back();
      }
      s = trie[s].child[c];
    }
    trie[s].out.push_back(pid);
  }

  // BFS fail links; outputs become suffix-closed by prepending the fail
  // state's (already closed) list — fail states are visited first.
  std::vector<uint32_t> bfs;
  bfs.reserve(trie.size());
  for (int c = 0; c < 256; ++c) {
    const int32_t child = trie[0].child[c];
    if (child > 0) {
      trie[child].fail = 0;
      bfs.push_back(static_cast<uint32_t>(child));
    }
  }
  for (size_t head = 0; head < bfs.size(); ++head) {
    const uint32_t s = bfs[head];
    for (int c = 0; c < 256; ++c) {
      const int32_t child = trie[s].child[c];
      if (child < 0) continue;
      uint32_t f = trie[s].fail;
      while (f != 0 && trie[f].child[c] < 0) f = trie[f].fail;
      const int32_t fc = trie[f].child[c];
      trie[child].fail =
          (fc >= 0 && fc != child) ? static_cast<uint32_t>(fc) : 0;
      bfs.push_back(static_cast<uint32_t>(child));
    }
  }
  for (const uint32_t s : bfs) {
    const Node& fail_node = trie[trie[s].fail];
    if (!fail_node.out.empty()) {
      trie[s].out.insert(trie[s].out.end(), fail_node.out.begin(),
                         fail_node.out.end());
    }
  }

  // Flatten to a byte-class DFA: one load per input byte at scan time,
  // over an alphabet compressed to the bytes patterns actually use.
  auto ac = std::make_unique<AcAutomaton>();
  ac->num_states = trie.size();
  bool used[256] = {};
  for (const uint32_t pid : ids) {
    for (const char ch : patterns[pid]) {
      used[static_cast<unsigned char>(ch)] = true;
    }
  }
  // Class 0 is reserved for bytes in no pattern — but only when such a
  // byte exists. When patterns cover all 256 byte values the classes are
  // exactly the bytes (no all-root column), which keeps class ids within
  // uint8 instead of wrapping the 256th class to 0.
  bool any_unused = false;
  for (int c = 0; c < 256; ++c) any_unused = any_unused || !used[c];
  ac->num_classes = any_unused ? 1 : 0;
  for (int c = 0; c < 256; ++c) {
    if (used[c]) {
      ac->byte_class[c] = static_cast<uint8_t>(ac->num_classes++);
    }
  }
  const size_t num_classes = ac->num_classes;
  // Premultiplied rows pack state*num_classes plus the output flag into
  // 32 bits; wrapping into bit 31 would silently alias transitions (false
  // negatives). Reaching this needs ~8 MB of distinct pattern text —
  // refuse loudly instead of corrupting matches.
  if (trie.size() > (1ull << 31) / num_classes) {
    std::fprintf(stderr,
                 "MultiPatternMatcher: pattern set too large for the "
                 "Aho-Corasick DFA (%zu states x %zu classes)\n",
                 trie.size(), num_classes);
    std::abort();
  }
  ac->next.assign(trie.size() * num_classes, 0);
  ac->out_start.assign(trie.size(), 0);
  ac->out_end.assign(trie.size(), 0);
  // Transition word for target state t: premultiplied row plus the
  // has-output flag (trie outputs are already suffix-closed here).
  const auto word_for = [&](int32_t t) {
    return static_cast<uint32_t>(static_cast<size_t>(t) * num_classes) |
           (trie[t].out.empty() ? 0u : 0x80000000u);
  };
  // The unused-byte class (0, when present) leads to the root from every
  // state; the assign(.., 0) above already wrote those columns. Used
  // bytes get real transitions: root first, then BFS order so next[fail]
  // is final before any dependent state reads it.
  for (int c = 0; c < 256; ++c) {
    if (!used[c]) continue;
    const uint8_t cls = ac->byte_class[static_cast<unsigned char>(c)];
    const int32_t child = trie[0].child[c];
    ac->next[cls] = child > 0 ? word_for(child) : 0;
  }
  for (const uint32_t s : bfs) {
    for (int c = 0; c < 256; ++c) {
      if (!used[c]) continue;
      const uint8_t cls = ac->byte_class[static_cast<unsigned char>(c)];
      const int32_t child = trie[s].child[c];
      ac->next[static_cast<size_t>(s) * num_classes + cls] =
          child >= 0
              ? word_for(child)
              : ac->next[static_cast<size_t>(trie[s].fail) * num_classes +
                         cls];
    }
  }
  for (size_t s = 0; s < trie.size(); ++s) {
    ac->out_start[s] = static_cast<uint32_t>(ac->out_patterns.size());
    ac->out_patterns.insert(ac->out_patterns.end(), trie[s].out.begin(),
                            trie[s].out.end());
    ac->out_end[s] = static_cast<uint32_t>(ac->out_patterns.size());
  }
  return ac;
}

}  // namespace

MultiPatternMatcher MultiPatternMatcher::Build(
    std::vector<std::string> patterns, std::vector<bool> track_positions,
    const Options& options) {
  MultiPatternMatcher m;
  m.patterns_ = std::move(patterns);
  m.tracked_.assign(m.patterns_.size(), false);
  for (size_t i = 0; i < track_positions.size() && i < m.patterns_.size();
       ++i) {
    m.tracked_[i] = track_positions[i];
    m.any_tracked_ = m.any_tracked_ || track_positions[i];
  }

  std::vector<uint32_t> live;  // non-empty pattern ids the engines scan for
  size_t min_len = SIZE_MAX;
  for (uint32_t i = 0; i < m.patterns_.size(); ++i) {
    if (m.patterns_[i].empty()) {
      m.empty_ids_.push_back(i);
    } else {
      live.push_back(i);
      min_len = std::min(min_len, m.patterns_[i].size());
    }
  }
  if (live.empty()) {
    m.engine_ = Engine::kNone;
    return m;
  }

  bool use_teddy;
  switch (options.force) {
    case Options::Force::kTeddy:
      use_teddy = true;
      break;
    case Options::Force::kAhoCorasick:
      use_teddy = false;
      break;
    case Options::Force::kAuto:
    default: {
      // 1-byte patterns make the fingerprint fire on every occurrence of
      // a (possibly common) byte, and big sets overflow the 8 buckets into
      // long verify chains — both are the DFA's strength. Where exactly
      // the crossover sits is hardware-dependent, so the thresholds come
      // from the calibrated crossover (static defaults when the host was
      // never profiled). The 2-byte floor is structural — Teddy's
      // fingerprint needs 2 bytes — and cannot be calibrated away.
      const KernelCrossover cx =
          options.has_crossover ? options.crossover : ActiveKernelCrossover();
      use_teddy = live.size() <= cx.teddy_max_patterns &&
                  min_len >= std::max<uint32_t>(cx.teddy_min_len, 2);
      break;
    }
  }
  if (use_teddy) {
    m.engine_ = Engine::kTeddy;
    m.teddy_ = BuildTeddy(m.patterns_, live, min_len);
    // CPU capability is the hard guard; CIAO_DISABLE_SIMD can mask a
    // capability the CPU has (forced-fallback testing) but never add one.
    const bool avx2 = internal::TeddyAvx2Available() &&
                      !SimdFeatureDisabled(SimdFeature::kAvx2);
    const bool ssse3 = internal::TeddySimdAvailable() &&
                       !SimdFeatureDisabled(SimdFeature::kSsse3);
    m.teddy_kernel_ = avx2    ? TeddyKernel::kAvx2
                      : ssse3 ? TeddyKernel::kSsse3
                              : TeddyKernel::kScalar;
  } else {
    m.engine_ = Engine::kAhoCorasick;
    m.ac_ = BuildAhoCorasick(m.patterns_, live);
  }
  return m;
}

std::string_view MultiPatternMatcher::engine_name() const {
  switch (engine_) {
    case Engine::kNone:
      return "none";
    case Engine::kTeddy:
      switch (teddy_kernel_) {
        case TeddyKernel::kAvx2:
          return "teddy_avx2";
        case TeddyKernel::kSsse3:
          return "teddy_ssse3";
        case TeddyKernel::kScalar:
          return "teddy_scalar";
      }
      return "teddy";
    case Engine::kAhoCorasick:
      return "aho_corasick";
  }
  return "unknown";
}

bool MultiPatternMatcher::simd_active() const {
  return engine_ == Engine::kTeddy && teddy_kernel_ != TeddyKernel::kScalar;
}

MultiPatternHits MultiPatternMatcher::MakeHits() const {
  MultiPatternHits hits;
  hits.found_.assign((patterns_.size() + 63) / 64, 0);
  hits.slot_of_.assign(patterns_.size(), -1);
  for (uint32_t i = 0; i < patterns_.size(); ++i) {
    if (tracked_[i]) {
      hits.slot_of_[i] = static_cast<int32_t>(hits.positions_.size());
      hits.positions_.emplace_back();
    }
  }
  return hits;
}

void MultiPatternMatcher::Scan(std::string_view hay,
                               MultiPatternHits* hits) const {
  std::fill(hits->found_.begin(), hits->found_.end(), 0);
  hits->found_count_ = 0;
  for (std::vector<uint32_t>& positions : hits->positions_) positions.clear();

  // Empty patterns match everywhere (std::string_view::find semantics).
  for (const uint32_t pid : empty_ids_) {
    hits->found_[pid >> 6] |= 1ULL << (pid & 63);
    ++hits->found_count_;
    if (hits->slot_of_[pid] >= 0) {
      std::vector<uint32_t>& positions =
          hits->positions_[hits->slot_of_[pid]];
      positions.reserve(hay.size() + 1);
      for (uint32_t pos = 0; pos <= hay.size(); ++pos) {
        positions.push_back(pos);
      }
    }
  }

  switch (engine_) {
    case Engine::kNone:
      return;
    case Engine::kTeddy:
      switch (teddy_kernel_) {
        case TeddyKernel::kAvx2:
          internal::TeddyScanAvx2(*teddy_, patterns_, hay, patterns_.size(),
                                  any_tracked_, hits);
          return;
        case TeddyKernel::kSsse3:
          internal::TeddyScanSimd(*teddy_, patterns_, hay, patterns_.size(),
                                  any_tracked_, hits);
          return;
        case TeddyKernel::kScalar:
          internal::TeddyScanScalar(*teddy_, patterns_, hay, 0,
                                    patterns_.size(), any_tracked_, hits);
          return;
      }
      return;
    case Engine::kAhoCorasick: {
      const AcAutomaton& ac = *ac_;
      const uint32_t* next = ac.next.data();
      const uint8_t* classes = ac.byte_class;
      const uint32_t num_classes = ac.num_classes;
      uint32_t row = 0;  // premultiplied state (state * num_classes)
      const size_t n = hay.size();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t entry =
            next[row + classes[static_cast<unsigned char>(hay[i])]];
        row = entry & 0x7FFFFFFFu;
        if ((entry & 0x80000000u) == 0) continue;
        const uint32_t state = row / num_classes;  // rare path only
        const uint32_t oe = ac.out_end[state];
        for (uint32_t k = ac.out_start[state]; k < oe; ++k) {
          const uint32_t pid = ac.out_patterns[k];
          if (!hits->NeedsHit(pid)) continue;
          hits->RecordHit(
              pid, static_cast<uint32_t>(i + 1 - patterns_[pid].size()));
        }
        if (!any_tracked_ && hits->found_count_ == patterns_.size()) return;
      }
      return;
    }
  }
}

}  // namespace ciao
