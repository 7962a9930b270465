#include "subjects.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "client/client_filter.h"
#include "client/client_session.h"
#include "client/fleet.h"
#include "core/pipeline.h"
#include "core/plan_epoch.h"
#include "core/system.h"
#include "costmodel/autotune.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "storage/transport.h"
#include "workload/selectivity.h"

namespace ciao::perfbench {

namespace {

// ---------------------------------------------------------------------------
// Facade

class SystemSubject final : public Subject {
 public:
  explicit SystemSubject(std::unique_ptr<CiaoSystem> system)
      : system_(std::move(system)) {}

  Status Ingest(const std::vector<std::string>& batch, uint64_t) override {
    return system_->IngestRecords(batch);
  }
  Result<QueryResult> Execute(const Query& query, uint64_t) override {
    return system_->ExecuteQuery(query);
  }
  Result<bool> ForceRelayout() override {
    ReplanController* replan = system_->replan_controller();
    if (replan == nullptr) return false;
    return replan->ForceRelayout();
  }
  Status CompactAndCheckpoint() override {
    return system_->CompactAndCheckpoint();
  }
  const PushdownPlan& plan() const override { return system_->plan(); }
  size_t pushed() const override { return system_->registry().size(); }
  bool partial_loading() const override {
    return system_->partial_loading_enabled();
  }
  LoadStats load_stats() const override { return system_->load_stats(); }
  const TableCatalog& catalog() const override { return system_->catalog(); }
  const SegmentStore* store() const override {
    return system_->segment_store();
  }
  const ReplanController* replan() const override {
    return system_->replan_controller();
  }
  QueryPromotionStats promotion() const override {
    return system_->promotion_stats();
  }

 private:
  std::unique_ptr<CiaoSystem> system_;
};

// ---------------------------------------------------------------------------
// Traced replica

/// Forwards to the real transport; spans every Send (including the time a
/// bounded queue makes a producer wait) and every Receive. Sends issued
/// from fleet worker threads attach to `send_parent`.
class TracedTransport final : public Transport {
 public:
  TracedTransport(Transport* inner, Tracer* tracer, uint64_t request)
      : inner_(inner), tracer_(tracer), request_(request) {}
  void set_send_parent(uint64_t span) { send_parent_ = span; }
  Status Send(std::string payload) override {
    ScopedSpan span(tracer_, "transport.send", request_,
                    Tracer::Current() == 0 ? send_parent_ : 0);
    return inner_->Send(std::move(payload));
  }
  Result<std::optional<std::string>> Receive() override {
    ScopedSpan span(tracer_, "transport.receive", request_);
    return inner_->Receive();
  }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }

 private:
  Transport* inner_;
  Tracer* tracer_;
  uint64_t request_;
  uint64_t send_parent_ = 0;
};

uint64_t CountBits(const ChunkMessage& msg) {
  uint64_t bits = 0;
  for (size_t p = 0; p < msg.annotations.num_predicates(); ++p) {
    bits += msg.annotations.vector(p).CountOnes();
  }
  return bits;
}

class StageSubject final : public Subject {
 public:
  StageSubject(const SubjectInputs& in, Tracer* tracer)
      : schema_(*in.schema),
        config_(in.config),
        cost_model_(in.cost_model),
        tracer_(tracer) {}

  ~StageSubject() override {
    // Mirror the facade's clean shutdown: a final checkpoint.
    if (store_ != nullptr) {
      std::unique_lock<std::shared_mutex> gate(gate_);
      (void)CheckpointLocked();
    }
  }

  Status Bootstrap(const Workload& planned,
                   const std::vector<std::string>& sample) {
    if (config_.storage.enabled && config_.storage.compaction_interval_ms > 0) {
      return Status::InvalidArgument(
          "traced replica runs compaction at fixed points only");
    }
    if (!config_.ingest.concurrent() && config_.adaptive.enabled) {
      return Status::InvalidArgument(
          "traced replica: adaptive runtime needs the fleet pipeline");
    }
    PlanningOutcome outcome;
    const std::vector<Clause> distinct = planned.DistinctClauses();
    workload::SampleEstimate estimate;
    {
      ScopedSpan span(tracer_, "optimizer.stats", 0);
      CIAO_ASSIGN_OR_RETURN(
          estimate, workload::EstimateClauseStats(
                        sample, distinct, config_.sample_size, config_.seed));
    }
    outcome.mean_record_len = estimate.mean_record_len;
    {
      ScopedSpan span(tracer_, "optimizer.select", 0);
      GreedyOptions extra;
      extra.keep_zero_gain = config_.keep_zero_gain;
      CIAO_ASSIGN_OR_RETURN(
          outcome.plan,
          SelectPredicates(planned, estimate.clause_stats, cost_model_,
                           estimate.mean_record_len, config_.budget_us,
                           config_.algorithm, extra, config_.matcher));
    }
    {
      ScopedSpan span(tracer_, "optimizer.compile", 0);
      CIAO_ASSIGN_OR_RETURN(
          outcome.registry,
          BuildRegistry(outcome.plan,
                        ResolveSearchKernel(config_.kernel,
                                            ActiveHardwareProfile().get())));
    }
    outcome.partial_loading_enabled = config_.enable_partial_loading &&
                                      outcome.plan.covers_all_queries &&
                                      !outcome.registry.empty();
    outcome.planned_workload = planned;

    bootstrap_ = PlanEpoch::Make(0, std::move(outcome));
    epochs_ = std::make_unique<EpochManager>(bootstrap_);
    catalog_ = std::make_unique<TableCatalog>(schema_);
    filter_ = std::make_unique<ClientFilter>(&bootstrap_->registry());
    ExecutorOptions executor_options;
    executor_options.num_scan_threads = config_.query_scan_threads;
    executor_options.query_eval = config_.query_eval;
    executor_options.raw_prefilter =
        config_.adaptive.enabled && config_.adaptive.jit_promotion;
    executor_ = std::make_unique<QueryExecutor>(
        catalog_.get(), &bootstrap_->registry(), executor_options);
    if (config_.adaptive.enabled) {
      replan_ = std::make_unique<ReplanController>(
          config_, cost_model_, sample, catalog_.get(), epochs_.get(),
          &gate_);
    }
    if (config_.storage.enabled) {
      ScopedSpan span(tracer_, "segment_store.open", 0);
      SegmentStore::Options options;
      options.dir = config_.storage.dir;
      options.memory_budget_bytes = config_.storage.memory_budget_bytes;
      options.wal_sync = config_.storage.wal_sync ? WalSyncMode::kAlways
                                                  : WalSyncMode::kNever;
      CIAO_ASSIGN_OR_RETURN(store_, SegmentStore::Open(options));
      catalog_->AttachStore(store_.get());
      const SegmentStore::Recovered recovered = store_->TakeRecovered();
      if (!recovered.segments.empty() || !recovered.sideline.empty() ||
          !recovered.wal_batches.empty()) {
        return Status::InvalidArgument(
            "traced replica opens fresh stores only");
      }
      std::unique_lock<std::shared_mutex> gate(gate_);
      CIAO_RETURN_IF_ERROR(CheckpointLocked());
    }
    return Status::OK();
  }

  Status Ingest(const std::vector<std::string>& batch,
                uint64_t request) override {
    Status st;
    {
      std::shared_lock<std::shared_mutex> gate(gate_);
      if (store_ != nullptr) {
        const uint64_t before = store_->wal_tail_bytes();
        ScopedSpan span(tracer_, "wal.append", request);
        CIAO_RETURN_IF_ERROR(store_->LogBatch(++next_seq_, batch));
        boundary_.wal_bytes += store_->wal_tail_bytes() - before;
        ++boundary_.wal_appends;
      }
      const std::shared_ptr<const PlanEpoch> epoch = epochs_->current();
      st = config_.ingest.concurrent() ? IngestFleet(batch, *epoch, request)
                                       : IngestSequential(batch, request);
    }
    if (st.ok() && store_ != nullptr &&
        config_.storage.checkpoint_wal_bytes > 0 &&
        store_->wal_tail_bytes() >= config_.storage.checkpoint_wal_bytes) {
      std::unique_lock<std::shared_mutex> gate(gate_);
      ScopedSpan span(tracer_, "segment_store.checkpoint", request);
      (void)CheckpointLocked();
    }
    return st;
  }

  Result<QueryResult> Execute(const Query& query, uint64_t request) override {
    const std::shared_ptr<const PlanEpoch> epoch = epochs_->current();
    if (config_.adaptive.enabled && config_.adaptive.jit_promotion) {
      const PlanDecision decision = PlanQuery(query, epoch->registry());
      if (decision.kind == PlanKind::kFullScan &&
          !catalog_->SnapshotRaw()->empty()) {
        ScopedSpan span(tracer_, "jit_loader.promote", request);
        JitStats jit;
        CIAO_RETURN_IF_ERROR(PromoteForQuery(catalog_.get(), query,
                                             epoch->registry(), epoch->id,
                                             &jit, &promotion_));
      }
    }
    QueryResult result;
    {
      ScopedSpan span(tracer_, "engine.execute", request);
      const EpochView view{&epoch->registry(), epoch->id};
      CIAO_ASSIGN_OR_RETURN(result, executor_->Execute(query, view));
    }
    if (replan_ != nullptr) {
      ScopedSpan span(tracer_, "replan.check", request);
      replan_->OnQueryExecuted(query, result);
    }
    return result;
  }

  Result<bool> ForceRelayout() override {
    if (replan_ == nullptr) return false;
    ScopedSpan span(tracer_, "relayout.force", 0);
    return replan_->ForceRelayout();
  }

  Status CompactAndCheckpoint() override {
    if (store_ == nullptr) return Status::OK();
    std::unique_lock<std::shared_mutex> gate(gate_);
    if (catalog_->raw_rows() >= config_.storage.compaction_min_raw_rows &&
        catalog_->raw_rows() > 0) {
      ScopedSpan span(tracer_, "segment_store.compact", 0);
      const std::shared_ptr<const PlanEpoch> epoch = epochs_->current();
      JitStats jit;
      CIAO_RETURN_IF_ERROR(PromoteRawToColumnar(
          catalog_.get(), epoch->registry(), epoch->id, &jit));
    }
    ScopedSpan span(tracer_, "segment_store.checkpoint", 0);
    return CheckpointLocked();
  }

  const PushdownPlan& plan() const override { return bootstrap_->plan(); }
  size_t pushed() const override { return bootstrap_->registry().size(); }
  bool partial_loading() const override {
    return bootstrap_->partial_loading_enabled();
  }
  LoadStats load_stats() const override { return load_stats_; }
  const TableCatalog& catalog() const override { return *catalog_; }
  const SegmentStore* store() const override { return store_.get(); }
  const ReplanController* replan() const override { return replan_.get(); }
  QueryPromotionStats promotion() const override { return promotion_; }
  BoundaryCounters boundary() const override { return boundary_; }

 private:
  /// The paper's sequential pipeline (ClientSession::SendRecords, then the
  /// facade's DrainTransport), one public call per span.
  Status IngestSequential(const std::vector<std::string>& batch,
                          uint64_t request) {
    const PlanEpoch& epoch = *bootstrap_;
    TracedTransport transport(&queue_, tracer_, request);
    const size_t chunk_size = std::max<size_t>(1, config_.chunk_size);
    for (size_t start = 0; start < batch.size(); start += chunk_size) {
      const size_t end = std::min(batch.size(), start + chunk_size);
      ChunkMessage msg;
      msg.chunk = ClientSession::BuildChunk(batch, start, end);
      msg.predicate_ids = filter_->evaluated_ids();
      msg.total_predicates =
          static_cast<uint32_t>(filter_->registry()->size());
      {
        ScopedSpan span(tracer_, "client.filter", request);
        msg.annotations = filter_->Evaluate(msg.chunk, &filter_stats_);
      }
      if (!msg.predicate_ids.empty()) {
        for (size_t i = start; i < end; ++i) {
          boundary_.client_bytes += batch[i].size();
        }
      }
      boundary_.bits_set += CountBits(msg);
      boundary_.bits_evaluated += msg.predicate_ids.size() * (end - start);
      std::string payload;
      {
        ScopedSpan span(tracer_, "transport.encode", request);
        msg.SerializeTo(&payload);
      }
      boundary_.payload_bytes += payload.size();
      CIAO_RETURN_IF_ERROR(transport.Send(std::move(payload)));
    }
    const PartialLoader loader(schema_, epoch.registry(), epoch.id,
                               config_.ingest.server_completion);
    while (true) {
      CIAO_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                            transport.Receive());
      if (!payload.has_value()) break;
      CIAO_RETURN_IF_ERROR(
          LoadOne(loader, *payload, epoch, request, &load_stats_));
    }
    return Status::OK();
  }

  /// The overlapped pipeline: a FleetScheduler fills a bounded queue while
  /// one loader thread per configured loader drains it.
  Status IngestFleet(const std::vector<std::string>& batch,
                     const PlanEpoch& epoch, uint64_t request) {
    const uint64_t batch_span = Tracer::Current();
    BoundedTransport queue(config_.ingest.queue_capacity);
    queue.AddProducers(1);
    TracedTransport transport(&queue, tracer_, request);
    const PartialLoader loader(schema_, epoch.registry(), epoch.id,
                               config_.ingest.server_completion);
    const size_t num_loaders = std::max<size_t>(1, config_.ingest.num_loaders);
    std::vector<LoadStats> loader_stats(num_loaders);
    std::vector<Status> loader_status(num_loaders);
    std::vector<BoundaryCounters> loader_counters(num_loaders);
    std::vector<std::thread> loaders;
    for (size_t l = 0; l < num_loaders; ++l) {
      loaders.emplace_back([&, l] {
        ScopedSpan loader_span(tracer_, "bench.loader", request, batch_span);
        while (true) {
          Result<std::optional<std::string>> payload = transport.Receive();
          if (!payload.ok()) {
            loader_status[l] = payload.status();
            break;
          }
          if (!payload->has_value()) break;
          if (!loader_status[l].ok()) continue;  // keep draining
          loader_counters[l].payload_bytes += (*payload)->size();
          loader_status[l] = LoadOne(loader, **payload, epoch, request,
                                     &loader_stats[l], &loader_counters[l]);
        }
      });
    }

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
    Status send_status;
    PrefilterStats fleet_total;
    PrefilterStats full_registry;
    uint64_t scanned_records = 0;
    {
      ScopedSpan fleet_span(tracer_, "client.fleet_send", request);
      transport.set_send_parent(fleet_span.id());
      FleetScheduler fleet(&epoch.registry(), &transport, std::move(specs),
                           fleet_options);
      send_status = fleet.SendRecords(batch);
      fleet_total = fleet.stats();
      for (size_t c = 0; c < fleet.num_clients(); ++c) {
        const PrefilterStats& client = fleet.client_stats(c).prefilter;
        if (!fleet.assigned_ids(c).empty()) {
          scanned_records += client.records_filtered;
        }
        // The facade feeds recalibration from full-registry clients only.
        if (fleet.assigned_ids(c).size() == epoch.registry().size()) {
          full_registry.MergeFrom(client);
        }
      }
    }
    queue.ProducerDone();
    for (std::thread& t : loaders) t.join();

    Status load_status;
    for (size_t l = 0; l < num_loaders; ++l) {
      load_stats_.MergeFrom(loader_stats[l]);
      boundary_.payload_bytes += loader_counters[l].payload_bytes;
      boundary_.bits_set += loader_counters[l].bits_set;
      boundary_.bits_evaluated += loader_counters[l].bits_evaluated;
      if (load_status.ok() && !loader_status[l].ok()) {
        load_status = loader_status[l];
      }
    }
    boundary_.fleet_prefilter_s += fleet_total.seconds;
    uint64_t batch_bytes = 0;
    for (const std::string& r : batch) batch_bytes += r.size();
    if (!batch.empty()) {
      boundary_.client_bytes += batch_bytes * scanned_records / batch.size();
    }
    if (replan_ != nullptr) {
      replan_->RecordIngest(full_registry.records_filtered,
                            full_registry.seconds, epoch);
    }
    if (!send_status.ok()) return send_status;
    return load_status;
  }

  /// Decode + load one payload. `counters` (fleet path) also tallies the
  /// clients' annotation bits, which the sequential path counts at the
  /// client.
  Status LoadOne(const PartialLoader& loader, std::string_view payload,
                 const PlanEpoch& epoch, uint64_t request, LoadStats* stats,
                 BoundaryCounters* counters = nullptr) {
    ChunkMessage msg;
    {
      ScopedSpan span(tracer_, "transport.decode", request);
      CIAO_ASSIGN_OR_RETURN(msg, ChunkMessage::Deserialize(payload));
    }
    if (counters != nullptr) {
      counters->bits_set += CountBits(msg);
      counters->bits_evaluated += msg.predicate_ids.size() * msg.chunk.size();
    }
    ScopedSpan span(tracer_, "partial_loader.ingest", request);
    return loader.IngestMessage(msg, epoch.partial_loading_enabled(),
                                catalog_.get(), stats);
  }

  /// CiaoSystem::CheckpointStorageLocked; caller holds gate_ exclusively.
  Status CheckpointLocked() {
    CIAO_RETURN_IF_ERROR(catalog_->EnsureAllPersisted());
    const CatalogSnapshot snapshot = catalog_->Snapshot();
    const std::shared_ptr<const PlanEpoch> epoch = epochs_->current();
    return store_->Checkpoint(snapshot.segments, *snapshot.raw, next_seq_,
                              RegistryFingerprint(epoch->registry()),
                              epoch->id);
  }

  const columnar::Schema schema_;
  const CiaoConfig config_;
  const CostModel cost_model_;
  Tracer* tracer_;

  std::shared_ptr<const PlanEpoch> bootstrap_;
  std::unique_ptr<EpochManager> epochs_;
  std::unique_ptr<SegmentStore> store_;
  std::unique_ptr<TableCatalog> catalog_;
  std::unique_ptr<ClientFilter> filter_;
  std::unique_ptr<QueryExecutor> executor_;
  std::shared_mutex gate_;
  std::unique_ptr<ReplanController> replan_;  // after what it points at

  InMemoryTransport queue_;
  uint64_t next_seq_ = 0;
  LoadStats load_stats_;
  PrefilterStats filter_stats_;
  QueryPromotionStats promotion_;
  BoundaryCounters boundary_;
};

}  // namespace

Result<std::unique_ptr<Subject>> MakeSystemSubject(const SubjectInputs& in) {
  CIAO_ASSIGN_OR_RETURN(
      std::unique_ptr<CiaoSystem> system,
      CiaoSystem::Bootstrap(*in.schema, *in.planned, *in.sample, in.config,
                            in.cost_model));
  return std::unique_ptr<Subject>(new SystemSubject(std::move(system)));
}

Result<std::unique_ptr<Subject>> MakeStageSubject(const SubjectInputs& in,
                                                  Tracer* tracer) {
  auto subject = std::make_unique<StageSubject>(in, tracer);
  CIAO_RETURN_IF_ERROR(subject->Bootstrap(*in.planned, *in.sample));
  return std::unique_ptr<Subject>(std::move(subject));
}

}  // namespace ciao::perfbench
