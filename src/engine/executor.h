#ifndef CIAO_ENGINE_EXECUTOR_H_
#define CIAO_ENGINE_EXECUTOR_H_

#include <cstdint>

#include "common/status.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "predicate/predicate.h"
#include "predicate/registry.h"
#include "storage/catalog.h"

namespace ciao {

/// Executor tuning knobs.
struct ExecutorOptions {
  /// Zone-map (min/max) group skipping — the classic server-side data
  /// skipping baseline. Complements bitvector skipping; both sound.
  bool use_zone_maps = true;

  /// Worker threads scanning catalog segments; 1 = sequential scan,
  /// 0 = one per hardware thread. Counts and scan statistics are merged
  /// commutatively, so results are identical at any thread count.
  size_t num_scan_threads = 1;

  /// Full-scan path only: screen raw sideline records with the query's
  /// compiled clause patterns (RawQueryScreen) before parsing them. The
  /// screen has no false negatives (the client-filter property, §IV-B),
  /// so records it rules out are counted as non-matching without a
  /// parse. Survivors — every record when this is off, the default — are
  /// tape-parsed in batches and verified by the same typed kernels as the
  /// row groups.
  bool raw_prefilter = false;

  /// How rows are verified against the typed predicate: batch-at-a-time
  /// typed kernels (default; engine/vectorized_eval.h) or the row-wise
  /// CompiledTypedQuery loop kept as the differential oracle. Counts are
  /// identical either way; only the cycles differ.
  QueryEvalMode query_eval = QueryEvalMode::kVectorized;
};

/// The plan generation a query executes against: the registry that
/// assigned the pushed-down predicate ids, plus the epoch id that tags
/// matching segment annotations. The legacy single-plan pipeline is
/// epoch 0 throughout; the adaptive runtime snapshots the current epoch
/// per query so a re-plan installing mid-flight never mixes id spaces.
struct EpochView {
  const PredicateRegistry* registry = nullptr;
  uint64_t epoch_id = 0;
};

/// COUNT(*) executor over a table catalog — the repository's stand-in for
/// the Spark scan operator the paper integrates with: the only extension
/// is "checking corresponding bit vectors to decide whether to discard a
/// tuple" (§VII-A), which is exactly the skipping path here.
///
/// Scans run against catalog *snapshots*, so they are safe against a
/// concurrent backfill replacing segments or the sideline (the adaptive
/// runtime's transition window). A segment whose annotations were written
/// under a different epoch than the query's view is scanned with the full
/// typed predicate instead of its bitvectors — always sound, never wrong.
class QueryExecutor {
 public:
  /// Both pointers must outlive the executor. `registry` may be empty
  /// (baseline: every query full-scans). The constructor registry forms
  /// the default EpochView (epoch 0).
  QueryExecutor(const TableCatalog* catalog, const PredicateRegistry* registry,
                const ExecutorOptions& options = {})
      : catalog_(catalog), registry_(registry), options_(options) {}

  /// Plans and executes the query against the default (epoch 0) view.
  Result<QueryResult> Execute(const Query& query) const;

  /// Plans and executes against an explicit epoch snapshot.
  Result<QueryResult> Execute(const Query& query, const EpochView& view) const;

  /// Forced plan variants, used by tests and the ablation benches.
  Result<QueryResult> ExecuteFullScan(const Query& query) const;
  Result<QueryResult> ExecuteWithSkipping(
      const Query& query, const std::vector<uint32_t>& predicate_ids,
      uint64_t epoch_id = 0) const;

 private:
  /// A skipping scan of the published segments; `registry` says which
  /// of the query's clauses `predicate_ids` push down.
  Result<QueryResult> SkippingScan(const Query& query,
                                   const std::vector<uint32_t>& predicate_ids,
                                   uint64_t epoch_id,
                                   const PredicateRegistry* registry) const;

  /// The one scan: every segment of `snapshot` through the row-group
  /// loop, using the annotation bits of `predicate_ids` where they were
  /// written under `epoch_id` (none for a full scan) and the bits scans
  /// learned for every other clause, then the sideline when
  /// `snapshot.raw` is set.
  Result<QueryResult> Scan(const Query& query,
                           const std::vector<uint32_t>& predicate_ids,
                           uint64_t epoch_id,
                           const PredicateRegistry* registry,
                           const CatalogSnapshot& snapshot) const;

  const TableCatalog* catalog_;
  const PredicateRegistry* registry_;
  ExecutorOptions options_;
};

}  // namespace ciao

#endif  // CIAO_ENGINE_EXECUTOR_H_
