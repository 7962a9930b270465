#ifndef CIAO_ENGINE_LEARNED_BITS_H_
#define CIAO_ENGINE_LEARNED_BITS_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "bitvec/bitvector.h"

namespace ciao {

/// What scans learned about one immutable segment, for the clauses no
/// client bit covers: per (clause, row group), the rows the typed
/// evaluator decided (`known`) and which of them matched (`hits`). The
/// server's own counterpart of the client's annotation bits (paper
/// §VI-B), written by the scans themselves.
///
/// An entry is exact on its known rows, so a lookup restricts a group's
/// candidates to `hits | ~known` — sound whatever was learned. Merges
/// are unions of known and hits, monotone, so concurrent scans may merge
/// in either order. The segment never changes, so nothing is ever
/// invalidated; a rewritten segment is a new segment with its own, empty
/// LearnedBits. Internally synchronized: scans of one segment look up
/// and merge concurrently.
class LearnedBits {
 public:
  /// `file_bytes` is the segment's file size; learned bytes stay under
  /// 1/8 of it.
  LearnedBits(size_t num_groups, uint64_t file_bytes);

  LearnedBits(const LearnedBits&) = delete;
  LearnedBits& operator=(const LearnedBits&) = delete;

  struct Lookup {
    /// Learned bits rule every row of the group out.
    bool none = false;
    /// Every clause is decided on every candidate row left, so the
    /// candidates are the clauses' matches.
    bool all_known = true;
  };

  /// ANDs the learned `hits | ~known` of every clause in `clauses` into
  /// the candidates of row group `group` (`num_rows` rows). `*mask` holds
  /// the candidate rows, or is empty when every row is a candidate; it
  /// is filled on the first clause that restricts. Returns early, with
  /// `none` set and `*mask` unspecified, when a clause matches no row.
  Lookup Restrict(size_t group, const std::vector<uint32_t>& clauses,
                  size_t num_rows, BitVector* mask) const;

  /// Merges what one evaluation decided about `clause` on row group
  /// `group`: `hits` are its matches among the known rows, `known` the
  /// rows decided (nullptr: every row). Learns nothing new once the cap
  /// is reached.
  void Merge(size_t group, uint32_t clause, const BitVector& hits,
             const BitVector* known);

  /// Bytes held: clause slots, per-group entries and bit words.
  uint64_t bytes() const;
  uint64_t byte_cap() const { return byte_cap_; }

 private:
  /// Per (clause, group). kHits and kPartial point into `words_`: kHits
  /// at the group's hits words, kPartial at its known words followed by
  /// its hits words. Every row known with no hits, or only hits, needs no
  /// words.
  enum class State : uint8_t { kUnknown, kNoHits, kAllHits, kHits, kPartial };
  struct Entry {
    uint32_t offset = 0;
    State state = State::kUnknown;
  };

  /// Index of `clause`'s slot, or -1.
  int FindSlotLocked(uint32_t clause) const;
  uint64_t BytesLocked() const;
  /// Appends `n` words (zeroed) to the arena; returns their offset.
  uint32_t AllocWordsLocked(size_t n);

  const size_t num_groups_;
  const uint64_t byte_cap_;
  mutable std::mutex mu_;
  /// Slot i learns clause clause_ids_[i]; its entries are
  /// entries_[i * num_groups_ .. (i + 1) * num_groups_).
  std::vector<uint32_t> clause_ids_;
  std::vector<Entry> entries_;
  std::vector<uint64_t> words_;
};

}  // namespace ciao

#endif  // CIAO_ENGINE_LEARNED_BITS_H_
