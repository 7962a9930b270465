#ifndef CIAO_STORAGE_RAW_STORE_H_
#define CIAO_STORAGE_RAW_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bitvec/bitvector.h"

namespace ciao {

class RawQueryScreen;

/// Sideline storage for records the partial loader chose *not* to load:
/// raw JSON bytes kept append-only with an offset index (the paper's
/// "data left in a raw JSON format, which requires later parsing", §VI-A).
///
/// The store also remembers what its raw screens decided. For each
/// clause it has screened (by interned clause key), it keeps the records
/// the clause's raw program ran on (`known`) and those it matched
/// (`may`), so a later screen of that clause ANDs words instead of
/// re-reading raw JSON. `may` is the program's own verdict, so
/// `may | ~known` never rules out a record the program would pass. The
/// verdicts belong to this object and start empty with it: a rebuilt
/// sideline (promotion, backfill, compaction, recovery) is a new store
/// that remembers nothing, and nothing is persisted. Appends add unknown
/// records; an entry covers a prefix of the store and grows on demand.
class RawStore {
 public:
  RawStore() = default;
  /// Moves the records; the screen verdicts stay behind, and both stores
  /// remember nothing afterwards.
  RawStore(RawStore&& other) noexcept;

  /// Appends one raw record (serialized JSON, no newline). Never runs
  /// concurrently with a read or a screen of this store (the catalog's
  /// rule for appends).
  void Append(std::string_view record);

  size_t size() const { return offsets_.size(); }
  bool empty() const { return offsets_.empty(); }
  uint64_t byte_size() const { return data_.size(); }

  std::string_view Record(size_t i) const {
    return std::string_view(data_).substr(offsets_[i], lengths_[i]);
  }

  /// The records that survive `screen`: one bit per record, set iff
  /// every clause program may match it (RawQueryScreen::MaySatisfy).
  /// Clauses run in query order, each only on records still alive and
  /// not yet known for it, so a first screen does the short-circuit work
  /// of MaySatisfy and a repeated one runs no program. What runs is
  /// remembered while the verdicts stay within screen_byte_cap();
  /// `*clause_evals` grows by the number of programs run. Screens of one
  /// store may run concurrently: programs run outside the store's lock
  /// and their verdicts merge under it as unions, in either order.
  BitVector Screen(const RawQueryScreen& screen,
                   uint64_t* clause_evals) const;

  /// Bytes of remembered verdicts; never above screen_byte_cap(), 1/8 of
  /// byte_size().
  uint64_t screen_bytes() const;
  uint64_t screen_byte_cap() const;

 private:
  /// One clause's verdicts on the first `records` records; every later
  /// record is unknown for it.
  struct ClauseVerdicts {
    uint32_t clause = 0;
    size_t records = 0;
    /// The records the program ran on; empty when it ran on all of them.
    std::vector<uint64_t> known;
    /// The known records it matched.
    std::vector<uint64_t> may;
  };

  ClauseVerdicts* FindLocked(uint32_t clause) const;
  uint64_t ScreenBytesLocked() const;
  /// Adds one screen's runs of `clause` over the store's first
  /// `ran.size()` records: `ran` the records its program ran on, `hits`
  /// those matched.
  /// Keeps nothing when that would take the verdicts past the cap.
  void MergeLocked(uint32_t clause, const BitVector& ran,
                   const BitVector& hits) const;

  std::string data_;
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> lengths_;
  mutable std::mutex screen_mu_;
  mutable std::vector<ClauseVerdicts> verdicts_;
};

}  // namespace ciao

#endif  // CIAO_STORAGE_RAW_STORE_H_
