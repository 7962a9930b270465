#ifndef CIAO_STORAGE_BACKFILL_H_
#define CIAO_STORAGE_BACKFILL_H_

#include <cstdint>

#include "common/status.h"
#include "predicate/registry.h"
#include "storage/catalog.h"

namespace ciao {

/// Counters of one annotation-backfill pass.
struct BackfillStats {
  /// Segments rewritten with annotations in the new epoch's id space.
  uint64_t segments_rebuilt = 0;
  uint64_t groups_rebuilt = 0;
  /// Rows whose annotation bits were recomputed (exact typed evaluation).
  uint64_t rows_reannotated = 0;
  /// Sideline records promoted to columnar because they match >= 1
  /// predicate of the new epoch.
  uint64_t raw_promoted = 0;
  /// Sideline records kept raw (match no new predicate, or unparseable).
  uint64_t raw_kept = 0;
  double seconds = 0.0;
};

/// Brings the whole catalog into the predicate-id space of a new plan
/// epoch *without discarding loaded data* (the incremental alternative to
/// a cold reload):
///
///  1. Every columnar segment is rewritten, one segment-input rewrite
///     (storage/rewrite.h) each, with fresh annotation bitvectors for
///     `registry`'s predicates, computed by exact typed evaluation of
///     each clause on the decoded rows. Exact bits are a subset of the
///     client filter's (which may hold false positives) — sound for
///     skipping, and tighter. Rows matching >= 1 predicate and all-zero
///     rows never share a row group (at most 4096 rows each), and the
///     rewritten file takes the old segment's slot. Segments already
///     tagged `annotation_epoch` are left untouched (idempotence).
///  2. Sideline records matching >= 1 new predicate (evaluated with the
///     ClientFilter's record-major block kernel on the raw bytes) are
///     promoted by one sideline-input rewrite into a columnar segment
///     with compacted annotations; the rest — plus records that fail to
///     parse — stay in a rebuilt sideline. This restores the planner invariant "every record
///     satisfying a pushed-down clause is loaded" for the new epoch, so
///     its skipping scans may keep ignoring the sideline.
///
/// Concurrency: safe against concurrent *queries* (they scan refcounted
/// snapshots; replaced segments stay alive until their scans finish, and
/// an executor planned against the old epoch treats rewritten segments as
/// stale and verifies rows instead of trusting bits). NOT safe against
/// concurrent ingest appends — run from the query path, as the
/// ReplanController does, or with ingest quiescent.
///
/// Call with the new epoch's registry BEFORE installing the epoch:
/// queries only start trusting the new id space once the epoch is
/// current, at which point every segment already carries matching bits.
Status BackfillEpochAnnotations(TableCatalog* catalog,
                                const PredicateRegistry& registry,
                                uint64_t annotation_epoch,
                                BackfillStats* stats);

}  // namespace ciao

#endif  // CIAO_STORAGE_BACKFILL_H_
