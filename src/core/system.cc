#include "core/system.h"

#include "client/fleet.h"
#include "common/timer.h"
#include "engine/planner.h"

namespace ciao {

CiaoSystem::CiaoSystem(columnar::Schema schema, Workload workload,
                       CiaoConfig config, CostModel cost_model,
                       PlanningOutcome outcome,
                       const std::vector<std::string>& sample_records)
    : schema_(std::move(schema)),
      workload_(std::move(workload)),
      config_(config),
      cost_model_(std::move(cost_model)),
      bootstrap_epoch_(PlanEpoch::Make(0, std::move(outcome))),
      epochs_(bootstrap_epoch_) {
  transport_ = std::make_unique<InMemoryTransport>();
  catalog_ = std::make_unique<TableCatalog>(schema_);
  ExecutorOptions executor_options;
  executor_options.num_scan_threads = config_.query_scan_threads;
  executor_options.query_eval = config_.query_eval;
  executor_options.raw_prefilter =
      config_.adaptive.enabled && config_.adaptive.jit_promotion;
  executor_ = std::make_unique<QueryExecutor>(catalog_.get(),
                                              &bootstrap_epoch_->registry(),
                                              executor_options);
  if (config_.adaptive.enabled) {
    replan_ = std::make_unique<ReplanController>(
        config_, cost_model_, sample_records, catalog_.get(), &epochs_,
        &ingest_replan_gate_);
  }
}

CiaoSystem::~CiaoSystem() {
  if (compactor_ != nullptr) compactor_->Stop();
  if (store_ != nullptr) {
    // Best-effort final checkpoint: a clean shutdown reopens with an
    // empty WAL. Failure is fine — the WAL still covers everything.
    const Status st = CheckpointStorage();
    (void)st;
  }
}

Result<std::unique_ptr<CiaoSystem>> CiaoSystem::Bootstrap(
    columnar::Schema schema, Workload workload,
    const std::vector<std::string>& sample_records, const CiaoConfig& config,
    const CostModel& cost_model) {
  CIAO_ASSIGN_OR_RETURN(
      PlanningOutcome outcome,
      PlanPushdown(workload, sample_records, config, cost_model));
  auto system = std::unique_ptr<CiaoSystem>(
      new CiaoSystem(std::move(schema), std::move(workload), config,
                     cost_model, std::move(outcome), sample_records));
  CIAO_RETURN_IF_ERROR(system->OpenStorage());
  return system;
}

Result<std::unique_ptr<CiaoSystem>> CiaoSystem::BootstrapManual(
    columnar::Schema schema, Workload workload,
    const std::vector<Clause>& push_down,
    const std::vector<std::string>& sample_records, const CiaoConfig& config,
    const CostModel& cost_model) {
  CIAO_ASSIGN_OR_RETURN(
      PlanningOutcome outcome,
      PlanManualPushdown(push_down, workload, sample_records, config,
                         cost_model));
  auto system = std::unique_ptr<CiaoSystem>(
      new CiaoSystem(std::move(schema), std::move(workload), config,
                     cost_model, std::move(outcome), sample_records));
  CIAO_RETURN_IF_ERROR(system->OpenStorage());
  return system;
}

Status CiaoSystem::OpenStorage() {
  if (!config_.storage.enabled) return Status::OK();
  SegmentStore::Options options;
  options.dir = config_.storage.dir;
  options.memory_budget_bytes = config_.storage.memory_budget_bytes;
  options.wal_sync = config_.storage.wal_sync ? WalSyncMode::kAlways
                                              : WalSyncMode::kNever;
  CIAO_ASSIGN_OR_RETURN(store_, SegmentStore::Open(options));
  catalog_->AttachStore(store_.get());

  SegmentStore::Recovered recovered = store_->TakeRecovered();

  // Trust rule for recovered annotation bitvectors: the bits index a
  // predicate-id space, and only the manifest's registry fingerprint
  // proves it is the SAME space this process planned. Matching segments
  // are adopted into the bootstrap epoch (0); everything else gets the
  // foreign epoch, which routes every scan through the stale-annotations
  // full-verify path — pessimistic but always sound.
  const uint64_t fingerprint =
      RegistryFingerprint(bootstrap_epoch_->registry());
  for (ColumnarSegment& segment : recovered.segments) {
    const bool trusted =
        recovered.registry_fingerprint == fingerprint &&
        segment.annotation_epoch == recovered.checkpoint_epoch_id;
    if (trusted) {
      segment.annotation_epoch = 0;
    } else {
      segment.annotation_epoch = kForeignAnnotationEpoch;
      segment.annotations_exact = false;
    }
    // The disk handle is already attached, so the catalog re-publishes
    // without copying or re-spilling a single byte. It indexes the file
    // from one verified mapping: a damaged checkpointed file fails here.
    CIAO_RETURN_IF_ERROR(catalog_->AddSegment(std::move(segment))
                             .WithContext("storage recovery"));
  }
  if (!recovered.sideline.empty()) {
    std::vector<std::string_view> views;
    views.reserve(recovered.sideline.size());
    for (const std::string& record : recovered.sideline) {
      views.emplace_back(record);
    }
    catalog_->AppendRawBatch(views);
  }

  // Re-ingest acknowledged batches the last checkpoint missed, through
  // the normal pipeline (so they are prefiltered, annotated, and spilled
  // exactly as the original call would have) but without re-logging.
  next_ingest_seq_.store(recovered.applied_seq, std::memory_order_relaxed);
  wal_replaying_ = true;
  for (const WalBatch& batch : recovered.wal_batches) {
    const Status st = IngestRecords(batch.records);
    if (!st.ok()) {
      wal_replaying_ = false;
      return st.WithContext("storage recovery: WAL replay");
    }
    if (batch.seq > next_ingest_seq_.load(std::memory_order_relaxed)) {
      next_ingest_seq_.store(batch.seq, std::memory_order_relaxed);
    }
  }
  wal_replaying_ = false;

  // Checkpoint the recovered state: the WAL empties and any orphan from
  // the previous run is collected, so recovery cost is paid once.
  CIAO_RETURN_IF_ERROR(
      CheckpointStorage().WithContext("storage recovery: checkpoint"));

  if (config_.storage.compaction_interval_ms > 0) {
    compactor_ = std::make_unique<BackgroundCompactor>(
        [this] {
          const Status st = CompactAndCheckpoint();
          (void)st;  // best-effort; the next tick retries
        },
        std::chrono::milliseconds(config_.storage.compaction_interval_ms));
    compactor_->Start();
  }
  return Status::OK();
}

Status CiaoSystem::CheckpointStorage() {
  if (store_ == nullptr) return Status::OK();
  // Exclusive side of the ingest gate: ingest and re-plans quiesce, so
  // the snapshot below is the complete acknowledged state. Queries never
  // take this gate — checkpoints stay off the query path.
  std::unique_lock<std::shared_mutex> gate(ingest_replan_gate_);
  return CheckpointStorageLocked();
}

Status CiaoSystem::CheckpointStorageLocked() {
  if (store_ == nullptr) return Status::OK();
  CIAO_RETURN_IF_ERROR(catalog_->EnsureAllPersisted());
  const CatalogSnapshot snapshot = catalog_->Snapshot();
  const std::shared_ptr<const PlanEpoch> epoch = epochs_.current();
  return store_->Checkpoint(snapshot.segments, *snapshot.raw,
                            next_ingest_seq_.load(std::memory_order_relaxed),
                            RegistryFingerprint(epoch->registry()),
                            epoch->id);
}

Status CiaoSystem::CompactAndCheckpoint() {
  if (store_ == nullptr) return Status::OK();
  std::unique_lock<std::shared_mutex> gate(ingest_replan_gate_);
  if (catalog_->raw_rows() >= config_.storage.compaction_min_raw_rows &&
      catalog_->raw_rows() > 0) {
    // Merge the sideline into a columnar segment with the re-evaluating
    // promotion: annotations are recomputed for the live epoch, so
    // skipping scans keep their benefit on the promoted rows.
    const std::shared_ptr<const PlanEpoch> epoch = epochs_.current();
    JitStats jit;
    CIAO_RETURN_IF_ERROR(PromoteRawToColumnar(
        catalog_.get(), epoch->registry(), epoch->id, &jit));
  }
  return CheckpointStorageLocked();
}

Status CiaoSystem::IngestRecords(const std::vector<std::string>& records) {
  Stopwatch watch;
  // Shared side of the ingest/re-plan gate: a re-plan's backfill waits
  // for this call (and vice versa), so sideline appends can never race a
  // sideline rebuild. Taken before the epoch snapshot, so the plan also
  // cannot flip mid-call.
  std::shared_lock<std::shared_mutex> gate(ingest_replan_gate_);
  // WAL-first: the batch is durable (per storage.wal_sync) before any
  // pipeline work. Whatever happens after this point — crash included —
  // recovery re-ingests the batch, so an OK return really is an
  // acknowledgement. Replayed batches skip this (their frames are the
  // WAL being replayed).
  if (store_ != nullptr && !wal_replaying_) {
    const uint64_t seq =
        next_ingest_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    CIAO_RETURN_IF_ERROR(store_->LogBatch(seq, records));
  }
  const std::shared_ptr<const PlanEpoch> epoch = epochs_.current();
  const Status st = config_.ingest.concurrent()
                        ? IngestRecordsConcurrent(records, *epoch)
                        : IngestRecordsSequential(records, *epoch);
  ingest_wall_seconds_ += watch.ElapsedSeconds();
  gate.unlock();
  // Opportunistic checkpoint once the WAL tail outgrows the knob: bounds
  // replay time and reclaims superseded files. Best-effort — the batch
  // above is already acknowledged and durable either way.
  if (st.ok() && store_ != nullptr && !wal_replaying_ &&
      config_.storage.checkpoint_wal_bytes > 0 &&
      store_->wal_tail_bytes() >= config_.storage.checkpoint_wal_bytes) {
    const Status checkpoint = CheckpointStorage();
    (void)checkpoint;
  }
  return st;
}

Status CiaoSystem::IngestRecordsSequential(
    const std::vector<std::string>& records, const PlanEpoch& epoch) {
  // The paper's sequential pipeline: one session prefilters and ships,
  // then the transport is drained. The session is per call, so a re-plan
  // between ingest calls switches the prefilter to the new epoch's
  // registry; its full-registry filter shares the registry's compiled
  // program, so a call compiles nothing.
  ClientSession session(ClientFilter(&epoch.registry()), transport_.get(),
                        config_.chunk_size);
  Status st = session.SendRecords(records);
  if (st.ok()) {
    const PartialLoader loader(schema_, epoch.registry(), epoch.id,
                               config_.ingest.server_completion);
    st = DrainTransport(loader, epoch);
  }
  prefilter_stats_.MergeFrom(session.stats());
  if (replan_ != nullptr) {
    replan_->RecordIngest(session.stats().records_filtered,
                          session.stats().seconds, epoch);
  }
  return st;
}

Status CiaoSystem::IngestRecordsConcurrent(
    const std::vector<std::string>& records, const PlanEpoch& epoch) {
  BoundedTransport transport(config_.ingest.queue_capacity);
  // The fleet counts as one producer: its workers all finish inside
  // SendRecords, after which the queue can be closed for draining.
  transport.AddProducers(1);

  const PartialLoader loader(schema_, epoch.registry(), epoch.id,
                             config_.ingest.server_completion);
  LoaderPoolOptions loader_options;
  loader_options.num_loaders = config_.ingest.num_loaders;
  loader_options.partial_loading_enabled = epoch.partial_loading_enabled();
  LoaderPool loaders(&loader, &transport, catalog_.get(), loader_options);
  loaders.Start();  // loaders come up before any chunk is shipped

  // Heterogeneous fleet when configured; otherwise num_clients identical
  // full-budget clients (the homogeneous pool of the old pipeline).
  std::vector<FleetClientSpec> specs = config_.ingest.fleet;
  if (specs.empty()) {
    specs.resize(std::max<size_t>(1, config_.ingest.num_clients));
    for (size_t i = 0; i < specs.size(); ++i) {
      specs[i].name = "client-" + std::to_string(i);
    }
  }
  FleetOptions fleet_options;
  fleet_options.chunk_size = config_.chunk_size;
  fleet_options.work_stealing = config_.ingest.work_stealing;
  FleetScheduler fleet(&epoch.registry(), &transport, std::move(specs),
                       fleet_options);
  Status send_status = fleet.SendRecords(records);

  transport.ProducerDone();
  Status load_status = loaders.Join();

  prefilter_stats_.MergeFrom(fleet.stats());
  load_stats_.MergeFrom(loaders.stats());
  if (replan_ != nullptr) {
    // Cost recalibration models a full-registry scan per record, so only
    // full-assignment clients produce comparable observations; a
    // budget-limited client's records would be logged as full scans at
    // partial cost and skew the refit.
    PrefilterStats full_registry;
    for (size_t c = 0; c < fleet.num_clients(); ++c) {
      if (fleet.assigned_ids(c).size() == epoch.registry().size()) {
        full_registry.MergeFrom(fleet.client_stats(c).prefilter);
      }
    }
    replan_->RecordIngest(full_registry.records_filtered,
                          full_registry.seconds, epoch);
  }
  if (!send_status.ok()) return send_status;
  return load_status;
}

Status CiaoSystem::DrainTransport(const PartialLoader& loader,
                                  const PlanEpoch& epoch) {
  while (true) {
    CIAO_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                          transport_->Receive());
    if (!payload.has_value()) break;
    CIAO_ASSIGN_OR_RETURN(ChunkMessage msg,
                          ChunkMessage::Deserialize(*payload));
    CIAO_RETURN_IF_ERROR(loader.IngestMessage(
        msg, epoch.partial_loading_enabled(), catalog_.get(), &load_stats_));
  }
  return Status::OK();
}

Result<QueryResult> CiaoSystem::ExecuteQuery(const Query& query) {
  const std::shared_ptr<const PlanEpoch> epoch = epochs_.current();

  if (config_.adaptive.enabled && config_.adaptive.jit_promotion) {
    // Query-driven JIT loading: a full-scan query about to touch the
    // sideline first promotes the records it cannot rule out (parsed
    // once, annotated for this epoch); the rest are screened out of the
    // scan entirely.
    const PlanDecision decision = PlanQuery(query, epoch->registry());
    if (decision.kind == PlanKind::kFullScan &&
        !catalog_->SnapshotRaw()->empty()) {
      JitStats jit;
      QueryPromotionStats promotion;
      CIAO_RETURN_IF_ERROR(PromoteForQuery(catalog_.get(), query,
                                           epoch->registry(), epoch->id, &jit,
                                           &promotion));
      std::lock_guard<std::mutex> lock(query_stats_mu_);
      promotion_stats_.promoted += promotion.promoted;
      promotion_stats_.screened_out += promotion.screened_out;
      promotion_stats_.parse_failures += promotion.parse_failures;
    }
  }

  const EpochView view{&epoch->registry(), epoch->id};
  CIAO_ASSIGN_OR_RETURN(QueryResult result, executor_->Execute(query, view));
  {
    std::lock_guard<std::mutex> lock(query_stats_mu_);
    query_seconds_ += result.seconds;
    ++queries_run_;
    if (result.plan == PlanKind::kSkippingScan) ++queries_skipping_;
    total_result_rows_ += result.count;
  }
  if (replan_ != nullptr) {
    // Drift tracking; may re-plan inline on this thread while other
    // queries keep executing against their snapshots. Re-plan failures
    // are recorded by the controller, never surfaced as the query's
    // error — the query already produced its (correct) result.
    replan_->OnQueryExecuted(query, result);
  }
  return result;
}

Result<std::vector<QueryResult>> CiaoSystem::ExecuteWorkload() {
  std::vector<QueryResult> results;
  results.reserve(workload_.queries.size());
  for (const Query& query : workload_.queries) {
    CIAO_ASSIGN_OR_RETURN(QueryResult result, ExecuteQuery(query));
    results.push_back(std::move(result));
  }
  return results;
}

EndToEndReport CiaoSystem::BuildReport(const std::string& label) const {
  const std::shared_ptr<const PlanEpoch> epoch = epochs_.current();
  EndToEndReport report;
  report.label = label;
  report.budget_us = config_.budget_us;
  report.predicates_pushed = epoch->registry().size();
  report.partial_loading = epoch->partial_loading_enabled();
  report.prefilter_seconds = prefilter_stats().seconds;
  report.loading_seconds = load_stats_.total_seconds;
  report.ingest_wall_seconds = ingest_wall_seconds_;
  report.ingest_clients = config_.ingest.num_clients;
  report.ingest_loaders = config_.ingest.num_loaders;
  report.loading_ratio = load_stats_.LoadingRatio();
  report.rows_loaded = load_stats_.records_loaded;
  report.rows_sidelined = load_stats_.records_sidelined;
  {
    std::lock_guard<std::mutex> lock(query_stats_mu_);
    report.query_seconds = query_seconds_;
    report.queries_run = queries_run_;
    report.queries_skipping = queries_skipping_;
    report.total_result_rows = total_result_rows_;
    report.jit_promoted_rows = promotion_stats_.promoted;
    report.jit_screened_out = promotion_stats_.screened_out;
  }
  report.objective_value = epoch->plan().objective_value;
  report.plan_epoch = epoch->id;
  report.replans_installed = replans_installed();
  return report;
}

}  // namespace ciao
