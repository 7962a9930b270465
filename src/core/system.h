#ifndef CIAO_CORE_SYSTEM_H_
#define CIAO_CORE_SYSTEM_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "client/client_session.h"
#include "columnar/schema.h"
#include "common/status.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "core/plan_epoch.h"
#include "core/replan.h"
#include "core/report.h"
#include "costmodel/cost_model.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "predicate/registry.h"
#include "storage/catalog.h"
#include "storage/compactor.h"
#include "storage/jit_loader.h"
#include "storage/partial_loader.h"
#include "storage/segment_store.h"
#include "storage/transport.h"

namespace ciao {

/// The CIAO facade: wires predicate selection, the client prefilter, the
/// transport, partial loading, and the skipping query engine into one
/// pipeline (paper Fig 1). One instance = one table + one prospective
/// workload + one budget.
///
/// Typical use (see examples/quickstart.cc):
///
///   auto system = CiaoSystem::Bootstrap(schema, workload, sample,
///                                       config, CostModel::Default());
///   system->IngestRecords(records);   // client filter -> partial load
///   auto results = system->ExecuteWorkload();
///   EndToEndReport report = system->BuildReport("my-run");
///
/// With `config.adaptive.enabled` the bootstrap plan becomes *epoch 0* of
/// an adaptive runtime: every executed query is recorded, drift against
/// the planned workload periodically triggers a re-plan (with a cost
/// model recalibrated from runtime observations), already-loaded
/// segments are backfilled with annotations for the new predicate set,
/// and the new epoch is installed atomically. ExecuteQuery is then safe
/// to call from multiple threads; queries executing concurrently with a
/// re-plan keep their consistent epoch snapshot. Ingest remains a
/// single-caller phase either way.
class CiaoSystem {
 public:
  /// Optimizer-driven bootstrap: plans the pushdown under
  /// `config.budget_us` using `sample_records` for statistics. In
  /// adaptive mode the sample is retained for re-planning.
  static Result<std::unique_ptr<CiaoSystem>> Bootstrap(
      columnar::Schema schema, Workload workload,
      const std::vector<std::string>& sample_records, const CiaoConfig& config,
      const CostModel& cost_model);

  /// Micro-benchmark bootstrap: pushes exactly `push_down`.
  static Result<std::unique_ptr<CiaoSystem>> BootstrapManual(
      columnar::Schema schema, Workload workload,
      const std::vector<Clause>& push_down,
      const std::vector<std::string>& sample_records, const CiaoConfig& config,
      const CostModel& cost_model);

  CiaoSystem(const CiaoSystem&) = delete;
  CiaoSystem& operator=(const CiaoSystem&) = delete;

  /// Stops the background compactor and (storage mode) runs a final
  /// best-effort checkpoint, so a clean shutdown reopens without WAL
  /// replay. Crash-at-any-point stays safe regardless — the WAL covers
  /// every acknowledged batch since the last checkpoint.
  ~CiaoSystem();

  /// One call = the full ingest path. With the default IngestOptions
  /// (1 client / 1 loader) this is the paper's sequential pipeline:
  /// prefilter + ship `records` (chunked), then drain the transport into
  /// the partial loader. With `config.ingest` above 1/1 the phases
  /// overlap: a LoaderPool starts draining a BoundedTransport before the
  /// FleetScheduler finishes prefiltering. In adaptive mode the whole call
  /// runs against a snapshot of the current plan epoch, so a concurrent
  /// re-plan never mixes predicate-id spaces mid-stream.
  Status IngestRecords(const std::vector<std::string>& records);

  /// Executes one query through the planner (skipping scan when its
  /// clauses were pushed down, full scan otherwise). Adaptive mode:
  /// may first JIT-promote sideline records the query cannot rule out,
  /// records the query for drift tracking, and may re-plan inline when
  /// the trigger fires. Thread-safe in adaptive mode.
  Result<QueryResult> ExecuteQuery(const Query& query);

  /// Executes every workload query in order; accumulates query-phase
  /// timing into the report.
  Result<std::vector<QueryResult>> ExecuteWorkload();

  /// Snapshot of phase timings and loading counters.
  EndToEndReport BuildReport(const std::string& label) const;

  // --- Introspection ---
  /// The *bootstrap* plan/registry (epoch 0) — stable references for the
  /// paper pipeline and for pre-replan assertions. After a re-plan the
  /// live decision is `epoch()`'s.
  const PushdownPlan& plan() const { return bootstrap_epoch_->plan(); }
  const PredicateRegistry& registry() const {
    return bootstrap_epoch_->registry();
  }
  bool partial_loading_enabled() const {
    return bootstrap_epoch_->partial_loading_enabled();
  }
  /// Snapshot of the current plan epoch (== bootstrap until a re-plan
  /// installs).
  std::shared_ptr<const PlanEpoch> epoch() const { return epochs_.current(); }
  /// Re-plans installed so far (0 when adaptive mode is off).
  uint64_t replans_installed() const {
    return replan_ != nullptr ? replan_->replans_installed() : 0;
  }
  /// Segment re-layout passes published so far (0 when adaptive mode or
  /// adaptive.relayout is off).
  uint64_t relayouts_performed() const {
    return replan_ != nullptr ? replan_->relayouts_performed() : 0;
  }
  /// The adaptive controller (nullptr when adaptive mode is off). The
  /// mutable overload exposes the ops/test hooks (ForceReplan,
  /// ForceRelayout).
  const ReplanController* replan_controller() const { return replan_.get(); }
  ReplanController* replan_controller() { return replan_.get(); }
  /// Query-driven JIT promotion counters (all zero when adaptive mode or
  /// jit_promotion is off).
  QueryPromotionStats promotion_stats() const {
    std::lock_guard<std::mutex> lock(query_stats_mu_);
    return promotion_stats_;
  }

  const TableCatalog& catalog() const { return *catalog_; }
  const LoadStats& load_stats() const { return load_stats_; }

  // --- Durable storage (config.storage.enabled) ---
  /// The segment store, or nullptr when storage is off.
  const SegmentStore* segment_store() const { return store_.get(); }
  /// Makes the current catalog state durable and truncates the WAL.
  /// No-op without storage. Also fires automatically when the WAL tail
  /// passes `storage.checkpoint_wal_bytes`, on compactor ticks, and at
  /// destruction.
  Status CheckpointStorage();
  /// One compaction pass, synchronously: promotes the raw sideline into
  /// a columnar segment (off the query path) and checkpoints — what a
  /// background compactor tick runs. No-op without storage.
  Status CompactAndCheckpoint();
  /// Client-side counters, merged across every ingest call's sessions
  /// and client fleets.
  PrefilterStats prefilter_stats() const { return prefilter_stats_; }
  /// Wall-clock time spent inside IngestRecords (with a concurrent pool
  /// this is smaller than the summed prefilter + loading CPU seconds).
  double ingest_wall_seconds() const { return ingest_wall_seconds_; }
  const Workload& workload() const { return workload_; }

 private:
  CiaoSystem(columnar::Schema schema, Workload workload, CiaoConfig config,
             CostModel cost_model, PlanningOutcome outcome,
             const std::vector<std::string>& sample_records);

  /// Receives every pending transport message and loads it with `loader`
  /// under `epoch`'s plan.
  Status DrainTransport(const PartialLoader& loader, const PlanEpoch& epoch);

  /// Sequential ingest against an explicit epoch snapshot: one client,
  /// one loader.
  Status IngestRecordsSequential(const std::vector<std::string>& records,
                                 const PlanEpoch& epoch);

  /// Overlapped pipeline: loader pool drains a bounded queue while the
  /// client fleet fills it.
  Status IngestRecordsConcurrent(const std::vector<std::string>& records,
                                 const PlanEpoch& epoch);

  /// Opens the segment store, republishes the last checkpoint's segments
  /// and sideline into the catalog, re-ingests acknowledged WAL batches
  /// the checkpoint missed, and starts the background compactor. Called
  /// by Bootstrap/BootstrapManual right after construction; no-op when
  /// storage is off.
  Status OpenStorage();

  /// Checkpoint body; caller holds ingest_replan_gate_ exclusively.
  Status CheckpointStorageLocked();

  columnar::Schema schema_;
  Workload workload_;
  CiaoConfig config_;
  CostModel cost_model_;

  /// Epoch 0, kept alive for the stable introspection accessors; the
  /// live epoch is epochs_.current().
  std::shared_ptr<const PlanEpoch> bootstrap_epoch_;
  EpochManager epochs_;

  // unique_ptr members keep internal cross-pointers stable if the
  // enclosing unique_ptr<CiaoSystem> moves.
  std::unique_ptr<InMemoryTransport> transport_;
  std::unique_ptr<SegmentStore> store_;  // storage mode only
  std::unique_ptr<TableCatalog> catalog_;
  std::unique_ptr<QueryExecutor> executor_;
  std::unique_ptr<ReplanController> replan_;  // adaptive mode only

  /// Highest WAL sequence number assigned; a checkpoint's applied_seq.
  /// Atomic for safety, though ingest is a single-caller phase.
  std::atomic<uint64_t> next_ingest_seq_{0};
  /// Set while OpenStorage re-ingests WAL batches: the replayed calls
  /// must not re-log (their frames are already in the WAL).
  bool wal_replaying_ = false;

  /// Held shared by IngestRecords and exclusively by a re-plan's
  /// backfill+install, so a sideline rebuild can never race in-flight
  /// ingest appends (queries never touch it).
  std::shared_mutex ingest_replan_gate_;

  // Ingest-phase counters; single ingest caller assumed (as before).
  LoadStats load_stats_;
  PrefilterStats prefilter_stats_;
  double ingest_wall_seconds_ = 0.0;

  // Query-phase counters, guarded for concurrent ExecuteQuery callers.
  mutable std::mutex query_stats_mu_;
  double query_seconds_ = 0.0;
  size_t queries_run_ = 0;
  size_t queries_skipping_ = 0;
  uint64_t total_result_rows_ = 0;
  QueryPromotionStats promotion_stats_;

  /// Declared last so it is destroyed (and its thread joined) before any
  /// member its pass touches; ~CiaoSystem additionally stops it first.
  std::unique_ptr<BackgroundCompactor> compactor_;  // storage mode only
};

}  // namespace ciao

#endif  // CIAO_CORE_SYSTEM_H_
