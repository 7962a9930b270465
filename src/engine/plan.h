#ifndef CIAO_ENGINE_PLAN_H_
#define CIAO_ENGINE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ciao {

/// Which physical plan a query ran under.
enum class PlanKind {
  /// Scan all columnar rows + parse and scan the raw sideline.
  kFullScan,
  /// AND the pushed-down bitvectors, skip 0-rows and all-zero groups,
  /// verify survivors; raw sideline provably irrelevant (paper §VI-B).
  kSkippingScan,
};

std::string_view PlanKindName(PlanKind kind);

/// How the executor verifies rows against the typed predicate.
enum class QueryEvalMode {
  /// CompiledTypedQuery::Matches, one row at a time — the paper-faithful
  /// path, kept as the differential oracle for the vectorized kernels.
  kRowwise,
  /// Batch-at-a-time typed column kernels producing packed BitVectors,
  /// combined word-at-a-time per the clause tree, with a selection-vector
  /// fallback for late expensive clauses (see engine/vectorized_eval.h).
  kVectorized,
};

std::string_view QueryEvalModeName(QueryEvalMode mode);

/// Counters accumulated while executing one query.
struct ScanStats {
  /// Row groups the scan looked at (in the segment's resident index),
  /// whether or not they were subsequently skipped. Denominator for
  /// skipping effectiveness: groups_skipped* / groups_considered.
  uint64_t groups_considered = 0;
  /// Rows whose column bytes were actually decoded (body read). After
  /// re-layout this should drop far below total rows on skewed workloads.
  uint64_t rows_decoded = 0;
  /// Rows on which the (typed) predicate was actually evaluated.
  uint64_t rows_evaluated = 0;
  /// Rows skipped because their candidate bit was 0.
  uint64_t rows_skipped = 0;
  /// Row groups whose candidate bits were all-zero (columns never
  /// decoded): the intersected client bitvectors, or the bits earlier
  /// scans learned.
  uint64_t groups_skipped = 0;
  /// The subset of groups_skipped ruled out by learned bits
  /// (engine/learned_bits.h) after the client bits left candidates.
  uint64_t groups_skipped_learned = 0;
  /// Row groups proved empty by zone maps (numeric min/max statistics).
  uint64_t groups_skipped_zonemap = 0;
  /// Row groups answered straight from bits: every query clause is
  /// decided on every candidate row — a pushed clause by client bits
  /// with typed-eval provenance, any other clause by learned bits — so
  /// the candidate count IS the group's result. The predicate is never
  /// re-evaluated, and only projected columns are decoded.
  uint64_t groups_counted_exact = 0;
  /// The subset of groups_counted_exact that needed learned bits.
  uint64_t groups_counted_learned = 0;
  /// Row groups decoded and verified with the typed predicate.
  uint64_t groups_scanned = 0;
  /// Row groups whose annotations were written under a different plan
  /// epoch than the one this query planned against — their bits live in
  /// another predicate-id space, so the scan verified every row instead
  /// of trusting them (adaptive runtime, transition window only).
  uint64_t groups_stale_annotations = 0;
  /// Raw sideline records parsed + evaluated (full-scan path only).
  uint64_t raw_records_scanned = 0;
  uint64_t raw_parse_errors = 0;
  /// Raw sideline records ruled out by the no-false-negative pattern
  /// screen without being parsed (adaptive full-scan path).
  uint64_t raw_records_screened_out = 0;
  /// Raw clause programs that screen ran: one per (clause, record) the
  /// sideline had no remembered verdict for (RawStore::Screen). A
  /// repeated screen of one sideline runs none.
  uint64_t raw_clause_evals = 0;
  /// Columns whose encoded payload was actually decoded, summed over
  /// scanned row groups. With a column-grouped (v4) layout this counts
  /// every column of every touched group chunk; with the per-column
  /// (legacy) body it counts exactly the wanted columns.
  uint64_t columns_decoded = 0;
  /// Encoded bytes fed through the column decoder — the physical decode
  /// volume column grouping exists to shrink. The before/after of this
  /// counter is the bench gate (>= 60% reduction on the wide-schema
  /// projection workload).
  uint64_t bytes_decoded = 0;
  /// The subset of bytes_decoded spent on columns the query never asked
  /// for (decode-to-skip inside a partially-wanted group chunk) — the
  /// column half of the relayout regret ledger's waste accrual.
  uint64_t bytes_decode_waste = 0;
  /// Disk-resident segments this query faulted into the mapping cache
  /// (mmap created + CRC-verified during the scan). 0 on cache hits and
  /// on the in-memory pipeline — the out-of-core cold/warm signal.
  uint64_t segments_mapped = 0;
  /// File bytes of those fresh mappings.
  uint64_t bytes_mapped = 0;
  /// Segments whose bytes the scan touched: pinned and opened because at
  /// least one row group needed a decode. A segment whose every group
  /// the resident index rules out is never pinned, in RAM or on disk.
  uint64_t segments_read = 0;

  /// Accumulates another worker's counters (parallel segment scan).
  void MergeFrom(const ScanStats& other) {
    groups_considered += other.groups_considered;
    rows_decoded += other.rows_decoded;
    rows_evaluated += other.rows_evaluated;
    rows_skipped += other.rows_skipped;
    groups_skipped += other.groups_skipped;
    groups_skipped_learned += other.groups_skipped_learned;
    groups_skipped_zonemap += other.groups_skipped_zonemap;
    groups_counted_exact += other.groups_counted_exact;
    groups_counted_learned += other.groups_counted_learned;
    groups_scanned += other.groups_scanned;
    groups_stale_annotations += other.groups_stale_annotations;
    raw_records_scanned += other.raw_records_scanned;
    raw_parse_errors += other.raw_parse_errors;
    raw_records_screened_out += other.raw_records_screened_out;
    raw_clause_evals += other.raw_clause_evals;
    columns_decoded += other.columns_decoded;
    bytes_decoded += other.bytes_decoded;
    bytes_decode_waste += other.bytes_decode_waste;
    segments_mapped += other.segments_mapped;
    bytes_mapped += other.bytes_mapped;
    segments_read += other.segments_read;
  }
};

/// Result of one COUNT(*) query.
struct QueryResult {
  uint64_t count = 0;
  PlanKind plan = PlanKind::kFullScan;
  ScanStats stats;
  /// One order-independent checksum per Query::projected entry: the sum
  /// (mod 2^64) of a typed FNV-1a hash of the column's value over every
  /// matching row. Commutative, so parallel scan workers merge by
  /// element-wise addition and any thread count / scan order / physical
  /// layout yields byte-identical values — the differential suites pin
  /// grouped against ungrouped layouts with it. Empty when the query
  /// projects nothing.
  std::vector<uint64_t> projected_hashes;
  /// Wall-clock execution time (the paper's per-query "Query Time").
  double seconds = 0.0;

  /// Merges a parallel worker's partial result (count, stats, hashes).
  void MergePartial(const QueryResult& other) {
    count += other.count;
    stats.MergeFrom(other.stats);
    if (projected_hashes.size() < other.projected_hashes.size()) {
      projected_hashes.resize(other.projected_hashes.size(), 0);
    }
    for (size_t i = 0; i < other.projected_hashes.size(); ++i) {
      projected_hashes[i] += other.projected_hashes[i];
    }
  }
};

/// The planner's decision for a query (see planner.h).
struct PlanDecision {
  PlanKind kind = PlanKind::kFullScan;
  /// Registry ids of the query's pushed-down clauses (skipping scan only).
  std::vector<uint32_t> predicate_ids;
};

}  // namespace ciao

#endif  // CIAO_ENGINE_PLAN_H_
