#ifndef CIAO_STORAGE_JIT_LOADER_H_
#define CIAO_STORAGE_JIT_LOADER_H_

#include <cstdint>

#include "common/status.h"
#include "predicate/predicate.h"
#include "predicate/registry.h"
#include "storage/catalog.h"

namespace ciao {

/// Statistics for just-in-time work over the raw sideline.
struct JitStats {
  uint64_t records_parsed = 0;
  uint64_t parse_errors = 0;
  double seconds = 0.0;
};

/// Just-in-time loading (paper §I: "set aside the other raw data to be
/// loaded when needed"): converts the whole raw sideline into one columnar
/// segment tagged `annotation_epoch` and leaves only the records that fail
/// to parse raw. The promoted rows carry annotations computed by running
/// `registry`'s predicates over the raw bytes (the client filter's
/// record-major kernel): free of false negatives under any registry, so
/// skipping scans keep their benefit on the promoted rows. A sideline
/// rewrite (storage/rewrite.h) that selects every record; compaction uses
/// it.
Status PromoteRawToColumnar(TableCatalog* catalog,
                            const PredicateRegistry& registry,
                            uint64_t annotation_epoch, JitStats* stats);

/// Counters of one query-driven promotion pass.
struct QueryPromotionStats {
  /// Raw records the query's clause patterns could not rule out — parsed
  /// and promoted.
  uint64_t promoted = 0;
  /// Raw records the screen proved non-matching — left raw, unparsed.
  uint64_t screened_out = 0;
  /// Screen survivors that failed to parse — left raw.
  uint64_t parse_failures = 0;
};

/// Query-driven just-in-time promotion: parses ONLY the raw records the
/// query's residual predicate cannot rule out.
///
/// Each sideline record is screened with the query's compiled clause
/// patterns (clauses that cannot run on raw bytes do not screen). The
/// screen has no false negatives, so a record failing any clause of the
/// conjunction provably does not satisfy the query and stays raw,
/// unparsed. Survivors are parsed batch-wise via the tape parser and
/// published as a columnar segment whose annotations re-evaluate
/// `registry`'s predicates on the raw bytes — so subsequent skipping
/// scans keep skipping (no pessimistic all-zero rows), and subsequent
/// full scans find the rows in columnar form instead of re-parsing them.
/// When every record is screened out, nothing is published. Skips (and
/// returns OK) while another thread restructures the sideline.
///
/// Run this BEFORE executing the query's full scan: the scan then counts
/// the promoted rows from the segment and the remaining sideline shrinks
/// to records this query could never match.
Status PromoteForQuery(TableCatalog* catalog, const Query& query,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, JitStats* stats,
                       QueryPromotionStats* promotion);

}  // namespace ciao

#endif  // CIAO_STORAGE_JIT_LOADER_H_
