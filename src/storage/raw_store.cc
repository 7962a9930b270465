#include "storage/raw_store.h"

#include <bit>

#include "predicate/pattern_compiler.h"

namespace ciao {

namespace {

/// Remembered verdicts are capped at 1/kScreenBytesDivisor of the
/// store's raw bytes, the rule learned bits follow against a segment's
/// file: at most two bits per record and clause, against records of a
/// few hundred bytes.
constexpr uint64_t kScreenBytesDivisor = 8;

/// The bits of word `w` that stand for the first `n` records.
uint64_t PrefixWord(size_t n, size_t w) {
  if (n <= w * 64) return 0;
  const size_t rest = n - w * 64;
  return rest >= 64 ? ~0ULL : (1ULL << rest) - 1;
}

/// Word `w` of the known records of an entry covering the first
/// `records` records, whose `known` words are empty when it knows all.
uint64_t KnownWord(size_t records, const std::vector<uint64_t>& known,
                   size_t w) {
  const uint64_t covered = PrefixWord(records, w);
  return w < known.size() ? covered & known[w] : covered;
}

}  // namespace

RawStore::RawStore(RawStore&& other) noexcept
    : data_(std::move(other.data_)),
      offsets_(std::move(other.offsets_)),
      lengths_(std::move(other.lengths_)) {
  other.data_.clear();
  other.offsets_.clear();
  other.lengths_.clear();
  other.verdicts_.clear();
}

void RawStore::Append(std::string_view record) {
  offsets_.push_back(data_.size());
  lengths_.push_back(static_cast<uint32_t>(record.size()));
  data_.append(record);
}

RawStore::ClauseVerdicts* RawStore::FindLocked(uint32_t clause) const {
  for (ClauseVerdicts& v : verdicts_) {
    if (v.clause == clause) return &v;
  }
  return nullptr;
}

uint64_t RawStore::ScreenBytesLocked() const {
  uint64_t bytes = 0;
  for (const ClauseVerdicts& v : verdicts_) {
    bytes += sizeof(ClauseVerdicts) +
             (v.known.size() + v.may.size()) * sizeof(uint64_t);
  }
  return bytes;
}

uint64_t RawStore::screen_bytes() const {
  std::lock_guard<std::mutex> lock(screen_mu_);
  return ScreenBytesLocked();
}

uint64_t RawStore::screen_byte_cap() const {
  return byte_size() / kScreenBytesDivisor;
}

BitVector RawStore::Screen(const RawQueryScreen& screen,
                           uint64_t* clause_evals) const {
  const size_t n = size();
  BitVector alive(n, true);
  const size_t num_clauses = screen.num_clauses();
  if (n == 0 || num_clauses == 0) return alive;
  const size_t num_words = alive.num_words();
  // todo[c]: the records clause c has no verdict on. Every verdict held
  // applies first, so a record that any clause already ruled out runs no
  // program at all.
  std::vector<BitVector> todo(num_clauses, BitVector(n, true));
  {
    std::lock_guard<std::mutex> lock(screen_mu_);
    for (size_t c = 0; c < num_clauses; ++c) {
      const ClauseVerdicts* v = FindLocked(screen.clause_id(c));
      if (v == nullptr) continue;
      for (size_t w = 0; w < num_words; ++w) {
        const uint64_t known = KnownWord(v->records, v->known, w);
        const uint64_t may = w < v->may.size() ? v->may[w] : 0;
        alive.SetWord(w, alive.word(w) & (may | ~known));
        todo[c].SetWord(w, todo[c].word(w) & ~known);
      }
    }
  }
  // The conjunction in query order, outside the lock: clause c runs on
  // the records still alive that it has no verdict on. 64 records at a
  // time, so a record is still in cache for the clauses after the first.
  std::vector<BitVector> hits(num_clauses, BitVector(n));
  uint64_t evals = 0;
  for (size_t w = 0; w < num_words; ++w) {
    for (size_t c = 0; c < num_clauses; ++c) {
      const uint64_t run = todo[c].word(w) & alive.word(w);
      todo[c].SetWord(w, run);
      if (run == 0) continue;
      uint64_t hit = 0;
      for (uint64_t left = run; left != 0; left &= left - 1) {
        const int b = std::countr_zero(left);
        if (screen.Matches(c, Record(w * 64 + b))) hit |= 1ULL << b;
      }
      evals += std::popcount(run);
      hits[c].SetWord(w, hit);
      alive.SetWord(w, alive.word(w) & ~(run & ~hit));
    }
  }
  if (evals > 0) {
    std::lock_guard<std::mutex> lock(screen_mu_);
    for (size_t c = 0; c < num_clauses; ++c) {
      MergeLocked(screen.clause_id(c), todo[c], hits[c]);
    }
  }
  *clause_evals += evals;
  return alive;
}

void RawStore::MergeLocked(uint32_t clause, const BitVector& ran,
                           const BitVector& hits) const {
  if (!ran.Any()) return;
  const size_t n = ran.size();
  const size_t num_words = ran.num_words();
  ClauseVerdicts* v = FindLocked(clause);
  std::vector<uint64_t> known(num_words);
  bool all_known = true;
  for (size_t w = 0; w < num_words; ++w) {
    known[w] = ran.word(w) |
               (v != nullptr ? KnownWord(v->records, v->known, w) : 0);
    all_known = all_known && known[w] == PrefixWord(n, w);
  }
  if (all_known) known = {};  // every record known: no known words
  const uint64_t held =
      v == nullptr ? 0
                   : sizeof(ClauseVerdicts) +
                         (v->known.size() + v->may.size()) * sizeof(uint64_t);
  const uint64_t merged = sizeof(ClauseVerdicts) +
                          (known.size() + num_words) * sizeof(uint64_t);
  if (ScreenBytesLocked() - held + merged > screen_byte_cap()) {
    return;  // past the cap: screen without remembering
  }
  std::vector<uint64_t> may(num_words);
  for (size_t w = 0; w < num_words; ++w) {
    const uint64_t before = v != nullptr && w < v->may.size() ? v->may[w] : 0;
    may[w] = hits.word(w) | before;
  }
  if (v == nullptr) {
    v = &verdicts_.emplace_back();
    v->clause = clause;
  }
  v->records = n;
  v->known = std::move(known);
  v->may = std::move(may);
}

}  // namespace ciao
