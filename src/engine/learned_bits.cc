#include "engine/learned_bits.h"

namespace ciao {

namespace {

/// Learned bits are capped at 1/kLearnedBytesDivisor of the segment's
/// file size: a few clause entries per group, against the rows'
/// encoded bytes.
constexpr uint64_t kLearnedBytesDivisor = 8;

/// The bits of word `wi` that stand for rows of a `num_rows`-row group.
uint64_t RowsInWord(size_t num_rows, size_t wi) {
  const size_t rows = num_rows - wi * 64;
  return rows >= 64 ? ~0ULL : (1ULL << rows) - 1;
}

}  // namespace

LearnedBits::LearnedBits(size_t num_groups, uint64_t file_bytes)
    : num_groups_(num_groups), byte_cap_(file_bytes / kLearnedBytesDivisor) {}

int LearnedBits::FindSlotLocked(uint32_t clause) const {
  for (size_t i = 0; i < clause_ids_.size(); ++i) {
    if (clause_ids_[i] == clause) return static_cast<int>(i);
  }
  return -1;
}

uint64_t LearnedBits::BytesLocked() const {
  return clause_ids_.size() * sizeof(uint32_t) +
         entries_.size() * sizeof(Entry) + words_.size() * sizeof(uint64_t);
}

uint64_t LearnedBits::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return BytesLocked();
}

uint32_t LearnedBits::AllocWordsLocked(size_t n) {
  const auto offset = static_cast<uint32_t>(words_.size());
  words_.resize(words_.size() + n, 0);
  return offset;
}

LearnedBits::Lookup LearnedBits::Restrict(size_t group,
                                          const std::vector<uint32_t>& clauses,
                                          size_t num_rows,
                                          BitVector* mask) const {
  Lookup found;
  const size_t n = (num_rows + 63) / 64;
  // mask &= hits | ~known (known == nullptr: every row is known).
  const auto restrict_by = [&](const uint64_t* hits, const uint64_t* known) {
    if (mask->empty()) *mask = BitVector(num_rows, true);
    for (size_t w = 0; w < n; ++w) {
      const uint64_t keep = known != nullptr ? hits[w] | ~known[w] : hits[w];
      mask->SetWord(w, mask->word(w) & keep);
    }
  };
  std::lock_guard<std::mutex> lock(mu_);
  bool any_partial = false;
  for (const uint32_t clause : clauses) {
    const int slot = FindSlotLocked(clause);
    if (slot < 0) {
      found.all_known = false;
      continue;
    }
    const Entry& e = entries_[static_cast<size_t>(slot) * num_groups_ + group];
    switch (e.state) {
      case State::kUnknown:
        found.all_known = false;
        break;
      case State::kNoHits:
        found.none = true;
        return found;
      case State::kAllHits:
        break;
      case State::kHits:
        restrict_by(&words_[e.offset], nullptr);
        break;
      case State::kPartial:
        any_partial = true;
        restrict_by(&words_[e.offset + n], &words_[e.offset]);
        break;
    }
  }
  if (!found.all_known || !any_partial) return found;
  // A partially known clause decides the group only when every candidate
  // left after all clauses is among its known rows.
  for (const uint32_t clause : clauses) {
    const Entry& e = entries_[static_cast<size_t>(FindSlotLocked(clause)) *
                                  num_groups_ +
                              group];
    if (e.state != State::kPartial) continue;
    const uint64_t* known = &words_[e.offset];
    for (size_t w = 0; w < n; ++w) {
      if ((mask->word(w) & ~known[w]) != 0) {
        found.all_known = false;
        return found;
      }
    }
  }
  return found;
}

void LearnedBits::Merge(size_t group, uint32_t clause, const BitVector& hits,
                        const BitVector* known) {
  const size_t num_rows = hits.size();
  const size_t n = hits.num_words();
  const bool all_known = known == nullptr || known->All();
  if (!all_known && !known->Any()) return;  // nothing was decided

  std::lock_guard<std::mutex> lock(mu_);
  int slot = FindSlotLocked(clause);
  const State state =
      slot < 0 ? State::kUnknown
               : entries_[static_cast<size_t>(slot) * num_groups_ + group]
                     .state;
  if (state != State::kUnknown && state != State::kPartial) {
    return;  // already decided on every row
  }
  if (state == State::kPartial) {
    Entry& e = entries_[static_cast<size_t>(slot) * num_groups_ + group];
    uint64_t* known_words = &words_[e.offset];
    uint64_t* hit_words = known_words + n;
    bool full = true;
    bool no_hits = true;
    bool all_hits = true;
    for (size_t w = 0; w < n; ++w) {
      const uint64_t rows = RowsInWord(num_rows, w);
      known_words[w] |= known != nullptr ? known->word(w) : rows;
      hit_words[w] |= hits.word(w);
      full = full && known_words[w] == rows;
      no_hits = no_hits && hit_words[w] == 0;
      all_hits = all_hits && hit_words[w] == rows;
    }
    if (!full) return;
    // Every row is known now: the known words are dead, and the entry
    // needs its hits words at most.
    if (no_hits) {
      e.state = State::kNoHits;
    } else if (all_hits) {
      e.state = State::kAllHits;
    } else {
      e.state = State::kHits;
      e.offset += static_cast<uint32_t>(n);
    }
    return;
  }

  // First evidence for this (clause, group).
  State fresh = State::kPartial;
  if (all_known) {
    fresh = !hits.Any() ? State::kNoHits
            : hits.All() ? State::kAllHits
                         : State::kHits;
  }
  const size_t words = fresh == State::kPartial ? 2 * n
                       : fresh == State::kHits  ? n
                                                : 0;
  const uint64_t slot_bytes =
      slot < 0 ? sizeof(uint32_t) + num_groups_ * sizeof(Entry) : 0;
  if (BytesLocked() + slot_bytes + words * sizeof(uint64_t) > byte_cap_) {
    return;  // past the cap: learn nothing new
  }
  if (slot < 0) {
    slot = static_cast<int>(clause_ids_.size());
    clause_ids_.push_back(clause);
    entries_.resize(entries_.size() + num_groups_);
  }
  Entry& e = entries_[static_cast<size_t>(slot) * num_groups_ + group];
  e.state = fresh;
  if (words == 0) return;
  e.offset = AllocWordsLocked(words);
  uint64_t* out = &words_[e.offset];
  if (fresh == State::kPartial) {
    for (size_t w = 0; w < n; ++w) *out++ = known->word(w);
  }
  for (size_t w = 0; w < n; ++w) *out++ = hits.word(w);
}

}  // namespace ciao
