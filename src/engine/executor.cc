#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "columnar/file_reader.h"
#include "columnar/json_converter.h"
#include "common/timer.h"
#include "engine/learned_bits.h"
#include "engine/projection.h"
#include "engine/typed_eval.h"
#include "engine/vectorized_eval.h"
#include "engine/zone_map_filter.h"
#include "predicate/pattern_compiler.h"
#include "storage/segment_file.h"

namespace ciao {

namespace {

/// Sideline records parsed into one batch before it is evaluated.
constexpr size_t kSidelineBatchRows = 4096;

/// The query compiled for whichever evaluation mode the executor runs:
/// exactly one of the two evaluators is populated. Counts are identical
/// either way (pinned by tests/vectorized_eval_test.cc); `wanted` is the
/// column-pruning mask both share.
struct GroupEvaluator {
  std::optional<CompiledTypedQuery> rowwise;
  std::optional<VectorizedQuery> vectorized;
  std::vector<bool> wanted;
  /// The query's projected columns (may be empty). `wanted` is the union
  /// of the predicate's referenced columns and these, so one projected
  /// read feeds both verification and checksum accumulation.
  ProjectionSpec projection;

  static Result<GroupEvaluator> Make(const Query& query,
                                     const columnar::Schema& schema,
                                     QueryEvalMode mode) {
    GroupEvaluator ev;
    if (mode == QueryEvalMode::kVectorized) {
      CIAO_ASSIGN_OR_RETURN(VectorizedQuery vq,
                            VectorizedQuery::Compile(query, schema));
      ev.wanted = vq.ReferencedColumns(schema.num_fields());
      ev.vectorized.emplace(std::move(vq));
    } else {
      CIAO_ASSIGN_OR_RETURN(CompiledTypedQuery cq,
                            CompiledTypedQuery::Compile(query, schema));
      ev.wanted = cq.ReferencedColumns(schema.num_fields());
      ev.rowwise.emplace(std::move(cq));
    }
    ev.projection = ProjectionSpec(query, schema);
    ev.projection.AddWantedColumns(&ev.wanted);
    return ev;
  }

  /// Verifies `batch` rows against the full typed predicate, restricted
  /// to `selection` when non-null, and returns the match count; when the
  /// query projects columns, also folds every matching row into `out`'s
  /// projected checksums. Stats are the caller's job (one add per batch,
  /// not per row). The vectorized evaluator also reports what it decided
  /// per clause into `evidence` when given; the row-wise one leaves it
  /// empty.
  Result<uint64_t> CountAndProject(
      const columnar::RecordBatch& batch, uint64_t num_rows,
      const BitVector* selection, QueryResult* out,
      std::vector<VectorizedQuery::ClauseEvidence>* evidence =
          nullptr) const {
    BitVector hits;
    if (vectorized.has_value()) {
      CIAO_ASSIGN_OR_RETURN(
          hits, vectorized->Evaluate(batch, num_rows, selection, evidence));
    } else {
      hits = BitVector(num_rows);
      const auto verify = [&](size_t r) {
        if (rowwise->Matches(batch, r)) hits.Set(r, true);
      };
      if (selection != nullptr) {
        for (const uint32_t r : selection->SetBits()) verify(r);
      } else {
        for (size_t r = 0; r < num_rows; ++r) verify(r);
      }
    }
    ProjectCandidates(batch, num_rows, &hits, out);
    return hits.CountOnes();
  }

  /// Folds every candidate row (selection, or all `num_rows` when null)
  /// into `out`'s projected checksums without re-evaluating the
  /// predicate — the candidates are the matches. No-op without a
  /// projection.
  void ProjectCandidates(const columnar::RecordBatch& batch,
                         uint64_t num_rows, const BitVector* selection,
                         QueryResult* out) const {
    if (projection.empty()) return;
    projection.EnsureSize(&out->projected_hashes);
    if (selection != nullptr) {
      for (const uint32_t r : selection->SetBits()) {
        projection.AccumulateRow(batch, r, &out->projected_hashes);
      }
    } else {
      for (size_t r = 0; r < num_rows; ++r) {
        projection.AccumulateRow(batch, r, &out->projected_hashes);
      }
    }
  }
};

/// Adds one projected read's decode volume into the scan counters.
void AddDecodeStats(const columnar::DecodeStats& d, ScanStats* stats) {
  stats->columns_decoded += d.columns_decoded;
  stats->bytes_decoded += d.bytes_decoded;
  stats->bytes_decode_waste += d.bytes_wasted;
}

/// The query's clauses as the learned bits know them.
struct LearnedClauses {
  /// Per query clause: whether its registry id is among the pushed-down
  /// ids, and its interned key (InternClauseKey, predicate/predicate.h).
  std::vector<bool> pushed;
  std::vector<uint32_t> keys;
  /// The keys of the clauses that are not pushed.
  std::vector<uint32_t> unpushed_keys;
};

/// One key hash per clause and query; segments then compare interned
/// ids. A query with one pushed id per clause (the planner's output when
/// every clause is pushed) over segments whose bits are all fresh uses no
/// learned bits, so it computes no key.
LearnedClauses ResolveClauses(const Query& query,
                              const std::vector<uint32_t>& predicate_ids,
                              uint64_t epoch_id,
                              const PredicateRegistry* registry,
                              const std::vector<SegmentRef>& segments) {
  const size_t num_clauses = query.clauses.size();
  const bool skipping = !predicate_ids.empty();
  const bool all_pushed = skipping && predicate_ids.size() == num_clauses;
  LearnedClauses out;
  out.pushed.assign(num_clauses, all_pushed);
  if (all_pushed &&
      std::all_of(segments.begin(), segments.end(), [&](const SegmentRef& s) {
        return s->annotation_epoch == epoch_id;
      })) {
    return out;
  }
  for (size_t i = 0; i < num_clauses; ++i) {
    const std::string key = query.clauses[i].CanonicalKey();
    if (skipping && !all_pushed && registry != nullptr) {
      const RegisteredPredicate* p = registry->FindByKey(key);
      out.pushed[i] = p != nullptr &&
                      std::find(predicate_ids.begin(), predicate_ids.end(),
                                p->id) != predicate_ids.end();
    }
    out.keys.push_back(InternClauseKey(key));
    if (!out.pushed[i]) out.unpushed_keys.push_back(out.keys.back());
  }
  return out;
}

/// What a query's scan holds fixed across segments. A full scan has no
/// predicate ids: no segment's bits are usable, the selection stays null
/// and every row is a candidate.
struct ScanPlan {
  const Query& query;
  const columnar::Schema& schema;
  const GroupEvaluator& eval;
  /// Pushed-down clause ids whose annotation bitvectors are ANDed.
  const std::vector<uint32_t>& predicate_ids;
  /// The epoch those ids belong to; only bits tagged with it are usable.
  uint64_t epoch_id = 0;
  bool use_zone_maps = true;
  /// What the exact-bits counting path decodes: the projected columns
  /// only, since the predicate itself needs no column there.
  std::vector<bool> projected_only;
  LearnedClauses clauses;
};

/// The one row-group loop: full scans, stale-epoch segments and skipping
/// scans all run through it. Per group, from the segment's resident
/// index and learned bits: (fresh client bits only) the bitvector
/// intersection, then the learned bits, counting from bits, zone maps;
/// then the projected decode and typed verification, which teaches the
/// learned bits. The segment's bytes are pinned and opened only when the
/// first group needs a decode, so a segment the index and learned bits
/// rule out entirely costs no mapping, no CRC pass and no header parse.
Status ScanSegment(const ScanPlan& plan, const ColumnarSegment& segment,
                   QueryResult* out) {
  const columnar::SegmentIndex& index = *segment.index;
  const bool skipping = !plan.predicate_ids.empty();
  // Bits written under another epoch index a different predicate set:
  // ignore them and verify every row (sound; zone maps still apply).
  // Only happens in the adaptive transition window, before/while
  // backfill rewrites the segment for the new epoch.
  const bool bits_fresh =
      skipping && segment.annotation_epoch == plan.epoch_id;
  // A pushed clause whose fresh client bits the scan uses is covered:
  // backfill and re-layout are what make those bits exact, so it is
  // neither looked up in nor added to the learned bits. Every other
  // clause is.
  const std::vector<uint32_t>& learned_keys =
      bits_fresh ? plan.clauses.unpushed_keys : plan.clauses.keys;
  LearnedBits* learned =
      learned_keys.empty() ? nullptr : segment.learned.get();
  // The candidates are the matches when every clause is decided on them:
  // a covered clause by exact (typed-eval) client bits — backfilled and
  // re-clustered segments; ingest bits are a client-prefilter superset —
  // and every other clause by learned bits.
  const bool covered_decided = !bits_fresh || segment.annotations_exact;
  // Pinned on the first group that needs bytes. The reader is kTrust:
  // heap segments were written by the in-process TableWriter and have
  // lived in memory since; disk-resident segments were CRC-verified once
  // when their mmap was created (PinSegment), and mappings are
  // immutable. FromIndex also refuses bytes whose size or group CRC
  // fields differ from the index's. Re-hashing every group body per
  // query would dwarf the projected decode itself.
  std::optional<PinnedSegment> pin;
  std::optional<columnar::TableReader> reader;
  const auto read_group =
      [&](size_t g, const std::vector<bool>& wanted,
          columnar::DecodeStats* decode) -> Result<columnar::RecordBatch> {
    if (!reader.has_value()) {
      CIAO_ASSIGN_OR_RETURN(pin, PinSegment(segment));
      if (pin->fresh_mapping) {
        ++out->stats.segments_mapped;
        out->stats.bytes_mapped += pin->bytes.size();
      }
      CIAO_ASSIGN_OR_RETURN(reader,
                            columnar::TableReader::FromIndex(index, pin->bytes));
      ++out->stats.segments_read;
    }
    return reader->ReadBatchProjected(g, wanted, decode);
  };
  std::vector<VectorizedQuery::ClauseEvidence> evidence;
  for (size_t g = 0; g < index.num_row_groups(); ++g) {
    const columnar::RowGroupMeta& meta = index.group(g);
    ++out->stats.groups_considered;
    if (skipping && !bits_fresh) ++out->stats.groups_stale_annotations;
    uint64_t candidates = meta.num_rows;
    BitVector mask;
    const BitVector* selection = nullptr;
    if (bits_fresh) {
      // AND the bitvectors of the query's pushed-down clauses (§VI-B).
      // The header's match-density summary often answers without
      // touching bitvector words: a pushed predicate with zero matches
      // rules the whole group out, and all-full densities make every row
      // a candidate — the common cases once re-layout has clustered rows
      // so only cluster-boundary groups carry a mixed population.
      bool density_decided = false;
      if (!meta.match_counts.empty()) {
        bool in_range = true;
        bool any_zero = false;
        bool all_full = true;
        for (const uint32_t id : plan.predicate_ids) {
          if (id >= meta.match_counts.size()) {
            in_range = false;
            break;
          }
          if (meta.match_counts[id] == 0) any_zero = true;
          if (meta.match_counts[id] != meta.num_rows) all_full = false;
        }
        if (in_range && any_zero) {
          candidates = 0;
          density_decided = true;
        } else if (in_range && all_full) {
          density_decided = true;  // selection stays null: full batch
        }
      }
      if (!density_decided) {
        CIAO_ASSIGN_OR_RETURN(mask,
                              meta.annotations.Intersect(plan.predicate_ids));
        candidates = mask.CountOnes();
        // A saturated mask restricts nothing; dropping it lets the
        // vectorized kernels run full-batch instead of per-selection.
        if (candidates != meta.num_rows) selection = &mask;
      }
      if (candidates == 0) {
        // Whole group skipped; columns never decoded.
        ++out->stats.groups_skipped;
        out->stats.rows_skipped += meta.num_rows;
        continue;
      }
    }
    bool learned_decided = true;
    if (learned != nullptr) {
      if (selection == nullptr) mask = BitVector();  // every row
      const LearnedBits::Lookup found =
          learned->Restrict(g, learned_keys, meta.num_rows, &mask);
      if (found.none) {
        candidates = 0;
      } else if (!mask.empty()) {
        candidates = mask.CountOnes();
        selection = candidates != meta.num_rows ? &mask : nullptr;
      }
      if (candidates == 0) {
        ++out->stats.groups_skipped;
        ++out->stats.groups_skipped_learned;
        out->stats.rows_skipped += meta.num_rows;
        continue;
      }
      learned_decided = found.all_known;
    }
    if ((bits_fresh || learned != nullptr) && covered_decided &&
        learned_decided) {
      // Every clause is decided on the candidates: they are the matches.
      // Zone maps can't contradict exact bits, so they are not consulted
      // either.
      ++out->stats.groups_counted_exact;
      if (learned != nullptr) ++out->stats.groups_counted_learned;
      out->stats.rows_skipped += meta.num_rows - candidates;
      out->count += candidates;
      if (!plan.eval.projection.empty()) {
        columnar::DecodeStats decode;
        CIAO_ASSIGN_OR_RETURN(columnar::RecordBatch batch,
                              read_group(g, plan.projected_only, &decode));
        out->stats.rows_decoded += meta.num_rows;
        AddDecodeStats(decode, &out->stats);
        plan.eval.ProjectCandidates(batch, meta.num_rows, selection, out);
      }
      continue;
    }
    if (plan.use_zone_maps &&
        !ZoneMapsMaySatisfy(plan.query, plan.schema, meta.zone_maps,
                            meta.num_rows)) {
      ++out->stats.groups_skipped_zonemap;
      out->stats.rows_skipped += meta.num_rows;
      continue;
    }
    columnar::DecodeStats decode;
    CIAO_ASSIGN_OR_RETURN(columnar::RecordBatch batch,
                          read_group(g, plan.eval.wanted, &decode));
    ++out->stats.groups_scanned;
    out->stats.rows_decoded += meta.num_rows;
    out->stats.rows_skipped += meta.num_rows - candidates;
    out->stats.rows_evaluated += candidates;  // one add per batch
    AddDecodeStats(decode, &out->stats);
    // Verify candidates with the full typed predicate: bitvectors may
    // contain false positives and the query may have non-pushed clauses.
    // The candidate mask is the vectorized path's selection vector.
    CIAO_ASSIGN_OR_RETURN(
        const uint64_t matched,
        plan.eval.CountAndProject(batch, meta.num_rows, selection, out,
                                  learned != nullptr ? &evidence : nullptr));
    out->count += matched;
    // Keep what the evaluator decided about every uncovered clause.
    for (size_t i = 0; i < evidence.size(); ++i) {
      const VectorizedQuery::ClauseEvidence& ev = evidence[i];
      if (!ev.evaluated || (bits_fresh && plan.clauses.pushed[i])) continue;
      learned->Merge(g, plan.clauses.keys[i], ev.hits,
                     ev.all_known ? nullptr : &ev.known);
    }
  }
  return Status::OK();
}

/// Runs ScanSegment over every snapshotted segment, fanning out across
/// worker threads when requested. Partial counts/stats accumulate per
/// worker and merge commutatively, so any thread count yields identical
/// results. The refcounted snapshot keeps replaced segments alive for the
/// duration of the scan, so a concurrent backfill cannot pull bytes out
/// from under a worker.
Status ScanSegments(const ScanPlan& plan,
                    const std::vector<SegmentRef>& segments,
                    size_t num_threads, QueryResult* result) {
  const size_t total = segments.size();
  size_t threads = num_threads == 0
                       ? std::max(1u, std::thread::hardware_concurrency())
                       : num_threads;
  threads = std::min(threads, total);
  if (threads <= 1) {
    for (size_t s = 0; s < total; ++s) {
      CIAO_RETURN_IF_ERROR(ScanSegment(plan, *segments[s], result));
    }
    return Status::OK();
  }

  std::atomic<size_t> next{0};
  std::vector<QueryResult> partials(threads);
  std::vector<Status> statuses(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (true) {
        const size_t s = next.fetch_add(1, std::memory_order_relaxed);
        if (s >= total) break;
        Status st = ScanSegment(plan, *segments[s], &partials[t]);
        if (!st.ok()) {
          statuses[t] = std::move(st);
          break;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (size_t t = 0; t < threads; ++t) {
    CIAO_RETURN_IF_ERROR(statuses[t]);
    result->MergePartial(partials[t]);
  }
  return Status::OK();
}

/// Scans the raw sideline with the same evaluator as the row groups.
/// Records that survive `screen` (RawStore::Screen, which answers from
/// the verdicts the sideline remembers where it can) are parsed on the
/// loader's tape path in batches of kSidelineBatchRows, and each batch is
/// verified and projected like a group. A value the converter coerces to
/// NULL therefore matches nothing here either: a record gets the same
/// answer raw as after it is promoted or compacted. Sideline rows add
/// nothing to rows_decoded or rows_evaluated; they have their own raw_*
/// counters.
Status ScanSideline(const RawStore& raw, const RawQueryScreen& screen,
                    const columnar::Schema& schema, const GroupEvaluator& eval,
                    QueryResult* out) {
  std::optional<columnar::BatchBuilder> builder;  // on the first survivor
  const auto evaluate = [&]() -> Status {
    const size_t rows = builder->num_rows();
    if (rows == 0) return Status::OK();
    const columnar::RecordBatch batch = builder->Finish();
    CIAO_ASSIGN_OR_RETURN(const uint64_t matched,
                          eval.CountAndProject(batch, rows, nullptr, out));
    out->count += matched;
    out->stats.raw_records_scanned += rows;
    return Status::OK();
  };
  const std::vector<uint32_t> survivors =
      raw.Screen(screen, &out->stats.raw_clause_evals).SetBits();
  out->stats.raw_records_screened_out += raw.size() - survivors.size();
  for (const uint32_t i : survivors) {
    if (!builder.has_value()) builder.emplace(schema);
    if (!builder->AppendSerialized(raw.Record(i)).ok()) {
      ++out->stats.raw_parse_errors;
      continue;
    }
    if (builder->num_rows() == kSidelineBatchRows) {
      CIAO_RETURN_IF_ERROR(evaluate());
    }
  }
  if (builder.has_value()) CIAO_RETURN_IF_ERROR(evaluate());
  return Status::OK();
}

}  // namespace

Result<QueryResult> QueryExecutor::Execute(const Query& query) const {
  return Execute(query, EpochView{registry_, 0});
}

Result<QueryResult> QueryExecutor::Execute(const Query& query,
                                           const EpochView& view) const {
  const PredicateRegistry* registry =
      view.registry != nullptr ? view.registry : registry_;
  const PlanDecision decision = PlanQuery(query, *registry);
  if (decision.kind == PlanKind::kSkippingScan) {
    return SkippingScan(query, decision.predicate_ids, view.epoch_id,
                        registry);
  }
  return ExecuteFullScan(query);
}

Result<QueryResult> QueryExecutor::ExecuteFullScan(const Query& query) const {
  // One combined snapshot of segments + sideline: a concurrent promotion
  // moves records between the two, and a consistent cut is what keeps the
  // count exact (either view of the move counts each record once).
  return Scan(query, {}, 0, registry_, catalog_->Snapshot());
}

Result<QueryResult> QueryExecutor::ExecuteWithSkipping(
    const Query& query, const std::vector<uint32_t>& predicate_ids,
    uint64_t epoch_id) const {
  return SkippingScan(query, predicate_ids, epoch_id, registry_);
}

Result<QueryResult> QueryExecutor::SkippingScan(
    const Query& query, const std::vector<uint32_t>& predicate_ids,
    uint64_t epoch_id, const PredicateRegistry* registry) const {
  if (predicate_ids.empty()) {
    return Status::InvalidArgument(
        "ExecuteWithSkipping: no pushed-down predicate ids");
  }
  // Raw sideline intentionally not scanned: every record satisfying a
  // pushed-down clause of this query was loaded (planner invariant —
  // upheld across re-plans because a new epoch installs only after
  // backfill promoted every sideline record matching one of its
  // predicates).
  return Scan(query, predicate_ids, epoch_id, registry,
              CatalogSnapshot{catalog_->SnapshotSegments(), nullptr});
}

Result<QueryResult> QueryExecutor::Scan(
    const Query& query, const std::vector<uint32_t>& predicate_ids,
    uint64_t epoch_id, const PredicateRegistry* registry,
    const CatalogSnapshot& snapshot) const {
  Stopwatch watch;
  QueryResult result;
  result.plan =
      predicate_ids.empty() ? PlanKind::kFullScan : PlanKind::kSkippingScan;
  const columnar::Schema& schema = catalog_->schema();
  CIAO_ASSIGN_OR_RETURN(
      const GroupEvaluator eval,
      GroupEvaluator::Make(query, schema, options_.query_eval));
  eval.projection.EnsureSize(&result.projected_hashes);
  const ScanPlan plan{
      query,
      schema,
      eval,
      predicate_ids,
      epoch_id,
      options_.use_zone_maps,
      eval.projection.WantedColumnsOnly(schema.num_fields()),
      ResolveClauses(query, predicate_ids, epoch_id, registry,
                     snapshot.segments)};
  CIAO_RETURN_IF_ERROR(ScanSegments(plan, snapshot.segments,
                                    options_.num_scan_threads, &result));
  // Records in the sideline were never loaded, and without a pushed-down
  // clause nothing proves they cannot satisfy the query. With
  // raw_prefilter the query's own clause patterns rule records out
  // before parsing (no false negatives, §IV-B).
  if (snapshot.raw != nullptr && !snapshot.raw->empty()) {
    CIAO_RETURN_IF_ERROR(ScanSideline(
        *snapshot.raw,
        options_.raw_prefilter ? RawQueryScreen(query) : RawQueryScreen(),
        schema, eval, &result));
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ciao
