#include "core/replan.h"

#include <algorithm>
#include <utility>

#include "core/pipeline.h"
#include "costmodel/autotune.h"
#include "storage/column_grouping.h"

namespace ciao {

namespace {

/// Significance floor when deriving the prospective workload from the
/// log: queries whose decayed share fell below this fraction are dropped
/// from re-planning and re-layout (they would otherwise pin their
/// predicates in the pushdown set forever under a loose budget).
constexpr double kMinQueryShare = 0.005;

/// Seconds of estimated decode waste that must accumulate since the last
/// re-layout before its trigger is even evaluated (avoids reorganizing a
/// cold or tiny catalog on noise).
constexpr double kMinWasteSeconds = 0.005;

/// Hot predicates considered for clustering, hottest first by decayed
/// workload share. Each contributes one bit of the per-row cluster
/// signature; 16 bits covers any realistic skew.
constexpr size_t kMaxClusterPredicates = 16;

/// Assumed rewrite throughput (rows/second) used to estimate the cost of
/// a re-layout before any has run, when the host profile measured none.
/// Deliberately conservative (unoptimized builds rewrite at well under
/// 1M rows/s): a low seed only delays the first pass, while an
/// optimistic one would let that pass overshoot the regret budget
/// before measurement exists.
constexpr double kSeedRewriteRowsPerSecond = 2.5e5;

void MergeBackfill(BackfillStats* into, const BackfillStats& from) {
  into->segments_rebuilt += from.segments_rebuilt;
  into->groups_rebuilt += from.groups_rebuilt;
  into->rows_reannotated += from.rows_reannotated;
  into->raw_promoted += from.raw_promoted;
  into->raw_kept += from.raw_kept;
  into->seconds += from.seconds;
}

void MergeRelayout(RelayoutStats* into, const RelayoutStats& from) {
  into->segments_read += from.segments_read;
  into->segments_written += from.segments_written;
  into->groups_written += from.groups_written;
  into->rows_moved += from.rows_moved;
  into->seconds += from.seconds;
  // Not additive: the vertical layout of the most recent published pass.
  if (from.column_groups > 0) into->column_groups = from.column_groups;
}

}  // namespace

ReplanController::ReplanController(const CiaoConfig& config,
                                   CostModel initial_model,
                                   std::vector<std::string> sample_records,
                                   TableCatalog* catalog, EpochManager* epochs,
                                   std::shared_mutex* ingest_gate)
    : config_(config),
      initial_model_(std::move(initial_model)),
      sample_records_(std::move(sample_records)),
      catalog_(catalog),
      epochs_(epochs),
      ingest_gate_(ingest_gate),
      log_(config.adaptive.history_half_life) {}

void ReplanController::RecordIngest(uint64_t records, double seconds,
                                    const PlanEpoch& epoch) {
  const PredicateRegistry& registry = epoch.registry();
  if (registry.empty()) return;
  double total_pattern_len = 0.0;
  double selectivity_sum = 0.0;
  for (const RegisteredPredicate& p : registry.predicates()) {
    total_pattern_len += static_cast<double>(p.program.TotalPatternLength());
    selectivity_sum += p.selectivity;
  }
  // Batched prefilters spend one shared scan per record, so the whole
  // pass is logged as one observation at the full per-record cost; the
  // per-pattern path keeps the divided per-search accounting.
  if (registry.matcher_mode() == ClientMatcherMode::kBatched) {
    observations_.AddBatchedPrefilterAggregate(
        records, seconds, registry.size(), total_pattern_len,
        selectivity_sum / static_cast<double>(registry.size()),
        epoch.outcome.mean_record_len);
  } else {
    observations_.AddPrefilterAggregate(
        records, seconds, registry.size(), total_pattern_len,
        selectivity_sum / static_cast<double>(registry.size()),
        epoch.outcome.mean_record_len);
  }
}

bool ReplanController::ShouldReplanLocked() {
  if (queries_since_check_ < config_.adaptive.replan_interval) return false;
  if (log_.total_recorded() < config_.adaptive.min_queries) return false;
  queries_since_check_ = 0;
  return true;
}

void ReplanController::AccrueWasteLocked(const QueryResult& result) {
  if (result.seconds <= 0.0) return;
  // Row-skip waste: the fraction of decoded rows the query then
  // discarded, charged at the query's wall-clock rate. A selective query
  // that decodes everything wastes nearly its whole runtime; once
  // re-layout lets skipping drop non-matching groups before decode,
  // decoded ≈ matched and the accrual self-limits.
  const double decoded = static_cast<double>(result.stats.rows_decoded);
  double row_fraction = 0.0;
  if (decoded > 0.0) {
    const double useful =
        std::min(static_cast<double>(result.count), decoded);
    row_fraction = (decoded - useful) / decoded;
  }
  // Column waste: the fraction of decoded bytes spent on columns the
  // query never asked for (decode-to-skip inside partially-wanted group
  // chunks). Zero on the legacy per-column body; once a grouped layout
  // exists, a drifted workload cutting across its groups accrues here
  // and pays for the re-grouping pass the same way row waste pays for
  // re-clustering.
  double column_fraction = 0.0;
  if (result.stats.bytes_decoded > 0) {
    column_fraction = static_cast<double>(result.stats.bytes_decode_waste) /
                      static_cast<double>(result.stats.bytes_decoded);
  }
  const double row_waste = result.seconds * row_fraction;
  const double column_waste = result.seconds * column_fraction;
  // The two overlap (a wasted row's bytes can also be wasted columns);
  // cap the combined accrual at the query's actual runtime so the ledger
  // never credits more waste than time spent.
  const double waste =
      std::min(result.seconds, row_waste + column_waste);
  if (waste <= 0.0) return;
  waste_credit_ += waste;
  waste_total_ += waste;
  row_waste_total_ += row_waste;
  column_waste_total_ += column_waste;
}

bool ReplanController::OnQueryExecuted(const Query& query,
                                       const QueryResult& result) {
  bool check_replan = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_.Record(query);
    ++queries_since_check_;
    if (config_.adaptive.relayout.enabled) AccrueWasteLocked(result);
    check_replan = ShouldReplanLocked();
  }

  bool installed = false;
  if (check_replan) {
    // Divergence gate, outside mu_ (the epoch snapshot and the
    // distribution diff don't need the log lock).
    const std::shared_ptr<const PlanEpoch> epoch = epochs_->current();
    Workload derived;
    {
      std::lock_guard<std::mutex> lock(mu_);
      derived = log_.DeriveWorkload(kMinQueryShare);
    }
    const double divergence =
        workload::WorkloadDivergence(derived, epoch->planned_workload());
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_divergence_ = divergence;
    }
    const bool diverged = config_.adaptive.divergence_threshold <= 0.0 ||
                          divergence >= config_.adaptive.divergence_threshold;
    // Single-flight: if another query's thread is already re-planning,
    // this one just keeps executing under its snapshot.
    if (diverged && replan_mu_.try_lock()) {
      std::lock_guard<std::mutex> flight(replan_mu_, std::adopt_lock);
      // Re-planning is best-effort: a failure keeps the previous epoch
      // serving and must not turn the (successful) query into an error.
      Result<bool> outcome = ReplanNow();
      if (!outcome.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        last_replan_error_ = outcome.status();
      } else {
        installed = *outcome;
      }
    }
  }

  // Physical layout rides the same control loop: whenever accumulated
  // decode waste has paid for a rewrite cost_multiplier times over,
  // re-cluster the catalog around the hot predicates.
  MaybeRelayout();
  return installed;
}

void ReplanController::MaybeRelayout() {
  const RelayoutOptions& opt = config_.adaptive.relayout;
  if (!opt.enabled) return;
  double credit = 0.0;
  double waste_total = 0.0;
  double spent = 0.0;
  double measured_rps = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    credit = waste_credit_;
    waste_total = waste_total_;
    spent = spent_seconds_;
    measured_rps = measured_rewrite_rps_;
  }
  // Fresh waste must exist since the last pass — a just-clustered
  // catalog shouldn't immediately re-cluster on surplus from before.
  if (credit < kMinWasteSeconds) return;
  // The benefit side is realized waste; the cost side is the prospective
  // rewrite, estimated from catalog size and the last measured (or
  // seeded) rewrite throughput. The gate is on the *global* ledger:
  //
  //   waste_total >= (spent + estimated_cost) * cost_multiplier
  //
  // so cumulative spend stays within ~1/multiplier of the waste queries
  // actually paid (the worst-case regret guarantee), and a pass that
  // overshot its estimate leaves a debt the next pass must first cover
  // with additional realized waste — estimation error self-corrects
  // instead of compounding.
  // Pre-measurement seed priority: the host profile's measured rewrite
  // throughput (calibration pass) beats the hand-guessed config constant;
  // a real measured pass on THIS catalog beats both.
  const double rps =
      measured_rps > 0.0
          ? measured_rps
          : ResolveRewriteSeedRps(kSeedRewriteRowsPerSecond,
                                  ActiveHardwareProfile().get());
  const double estimated_cost =
      static_cast<double>(catalog_->loaded_rows()) / rps;
  const double required = (spent + estimated_cost) * opt.cost_multiplier;
  if (waste_total < required) return;
  if (!replan_mu_.try_lock()) return;
  std::lock_guard<std::mutex> flight(replan_mu_, std::adopt_lock);
  {
    // Re-check under the flight lock: a pass that published between the
    // gate check and here already consumed this budget.
    std::lock_guard<std::mutex> lock(mu_);
    if (waste_credit_ < kMinWasteSeconds ||
        waste_total_ < (spent_seconds_ + estimated_cost) *
                           opt.cost_multiplier) {
      return;
    }
  }
  Result<bool> outcome = RelayoutNow();
  if (!outcome.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    last_relayout_error_ = outcome.status();
  }
}

Result<bool> ReplanController::ForceReplan() {
  std::lock_guard<std::mutex> flight(replan_mu_);
  return ReplanNow();
}

Result<bool> ReplanController::ForceRelayout() {
  std::lock_guard<std::mutex> flight(replan_mu_);
  return RelayoutNow();
}

Result<bool> ReplanController::RelayoutNow() {
  const RelayoutOptions& opt = config_.adaptive.relayout;
  const std::shared_ptr<const PlanEpoch> epoch = epochs_->current();
  const PredicateRegistry& registry = epoch->registry();
  if (registry.empty()) return false;
  Workload derived;
  {
    std::lock_guard<std::mutex> lock(mu_);
    derived = log_.DeriveWorkload(kMinQueryShare);
  }
  if (derived.queries.empty()) return false;
  const std::vector<HotPredicate> hot =
      RankHotPredicates(derived, registry, kMaxClusterPredicates);

  // Mine the vertical layout from the same decayed workload the row
  // clustering uses, so one rewrite pass applies both. Per-column byte
  // weights come from a decoded catalog sample; the chunk-access
  // overhead from the host's measured decode throughput.
  columnar::ColumnGroupLayout layout;
  if (opt.column_grouping.enabled || opt.column_grouping.force_single_group) {
    const Result<std::vector<double>> column_bytes =
        EstimateColumnBytes(*catalog_);
    if (column_bytes.ok()) {
      ColumnGroupingOptions mine_opt = opt.column_grouping;
      if (mine_opt.chunk_overhead_bytes <= 0.0) {
        mine_opt.chunk_overhead_bytes =
            DefaultChunkOverheadBytes(ActiveHardwareProfile().get());
      }
      const size_t rows_per_group = opt.rows_per_group == 0
                                        ? kDefaultRewriteRowsPerGroup
                                        : opt.rows_per_group;
      const ColumnGroupingPlan mined = MineColumnGrouping(
          ColumnAccessProfile::FromWorkload(derived, catalog_->schema()),
          *column_bytes, rows_per_group, mine_opt);
      if (!mined.trivial) layout = mined.layout;
    }
  }
  if (hot.empty() && layout.empty()) return false;

  // Exclude in-flight ingest for the duration: appends racing the pass
  // would only produce extra non-participating segments (correct but
  // immediately-stale work), and holding the gate keeps re-layout and
  // re-planning from interleaving with sideline restructuring. The
  // all-or-nothing publish inside RelayoutSegments is the correctness
  // backstop either way. Queries never hold the gate.
  std::unique_lock<std::shared_mutex> gate;
  if (ingest_gate_ != nullptr) {
    gate = std::unique_lock<std::shared_mutex>(*ingest_gate_);
  }
  RelayoutStats pass;
  bool relaid = false;
  const Status status =
      RelayoutSegments(catalog_, registry, hot, epoch->id, opt,
                       layout.empty() ? nullptr : &layout, &pass, &relaid);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Every second of rewrite work counts against the regret ledger,
    // including failed or aborted passes — the bound is on cost paid,
    // not on cost that happened to pay off.
    spent_seconds_ += pass.seconds;
    MergeRelayout(&relayout_total_, pass);
    if (relaid) {
      ++relayouts_;
      waste_credit_ = 0.0;
      if (pass.rows_moved > 0 && pass.seconds > 0.0) {
        measured_rewrite_rps_ =
            static_cast<double>(pass.rows_moved) / pass.seconds;
      }
    }
  }
  CIAO_RETURN_IF_ERROR(status);
  return relaid;
}

CostModel ReplanController::ModelForReplan(const PlanEpoch& epoch) {
  std::vector<CostObservation> observations = observations_.Snapshot();
  // Replan-time sweep: time the *current* registry's patterns (plus a few
  // probes for selectivity/length spread) over the retained sample —
  // per-predicate observations on this host, right now.
  if (!sample_records_.empty()) {
    std::vector<std::string> patterns;
    for (const RegisteredPredicate& p : epoch.registry().predicates()) {
      for (const std::string& s : p.pattern_strings) patterns.push_back(s);
    }
    const std::vector<std::string> probes =
        BuildProbePatterns(sample_records_, 8, config_.seed);
    patterns.insert(patterns.end(), probes.begin(), probes.end());
    if (patterns.size() >= kMinCalibrationObservations) {
      Result<CalibrationResult> sweep = CalibrateWallClock(
          sample_records_, patterns,
          ResolveSearchKernel(config_.kernel, ActiveHardwareProfile().get()),
          /*repeats=*/1);
      if (sweep.ok()) {
        observations.insert(observations.end(), sweep->observations.begin(),
                            sweep->observations.end());
      }
    }
  }
  if (observations.size() >= kMinCalibrationObservations) {
    Result<CalibrationResult> fitted = CalibrateFromRuntime(observations);
    if (fitted.ok()) return fitted->model;
  }
  // Too few runtime observations to refit: the host-calibrated surface
  // (when a profile is installed) still beats the bootstrap constants.
  return ProfiledCostModel(initial_model_);
}

Result<bool> ReplanController::ReplanNow() {
  const std::shared_ptr<const PlanEpoch> epoch = epochs_->current();
  Workload derived;
  {
    std::lock_guard<std::mutex> lock(mu_);
    derived = log_.DeriveWorkload(kMinQueryShare);
  }
  if (derived.queries.empty()) return false;

  const CostModel model = config_.adaptive.recalibrate
                              ? ModelForReplan(*epoch)
                              : initial_model_;
  CIAO_ASSIGN_OR_RETURN(PlanningOutcome outcome,
                        PlanPushdown(derived, sample_records_, config_, model));

  // Guard against cost-model refit artifacts: a single load-inflated
  // ingest observation can blow the recalibrated batched base-scan cost
  // past the budget, making selection come back empty. Replacing a
  // working pushdown set with *nothing* on one noisy timing is never an
  // improvement — keep serving the current epoch instead.
  if (outcome.plan.selected.empty() && !epoch->registry().empty()) {
    return false;
  }

  // An identical selection would re-install the same decision under a new
  // id numbering and force a pointless backfill sweep — keep the epoch.
  if (outcome.plan.SelectedKeys() == epoch->plan().SelectedKeys()) {
    return false;
  }

  const uint64_t new_id = epoch->id + 1;
  // Exclude in-flight ingest across backfill + install: an append racing
  // the sideline rebuild would be lost, and a chunk sidelined under the
  // old plan after the promotion pass could hide rows from the new
  // epoch's skipping scans. Queries are unaffected — they never hold the
  // gate.
  std::unique_lock<std::shared_mutex> gate;
  if (ingest_gate_ != nullptr) {
    gate = std::unique_lock<std::shared_mutex>(*ingest_gate_);
  }
  // Backfill BEFORE install: once queries can plan against the new
  // registry, every segment must already carry bits in its id space and
  // the sideline must hold no record matching a new predicate.
  BackfillStats backfill;
  CIAO_RETURN_IF_ERROR(BackfillEpochAnnotations(catalog_, outcome.registry,
                                                new_id, &backfill));
  const bool installed =
      epochs_->Install(PlanEpoch::Make(new_id, std::move(outcome)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (installed) ++replans_installed_;
    MergeBackfill(&backfill_total_, backfill);
  }
  return installed;
}

uint64_t ReplanController::replans_installed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replans_installed_;
}

uint64_t ReplanController::queries_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.total_recorded();
}

double ReplanController::last_divergence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_divergence_;
}

BackfillStats ReplanController::backfill_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backfill_total_;
}

Status ReplanController::last_replan_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_replan_error_;
}

uint64_t ReplanController::relayouts_performed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return relayouts_;
}

RelayoutStats ReplanController::relayout_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return relayout_total_;
}

double ReplanController::relayout_waste_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waste_total_;
}

double ReplanController::relayout_row_waste_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return row_waste_total_;
}

double ReplanController::relayout_column_waste_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return column_waste_total_;
}

double ReplanController::relayout_spent_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spent_seconds_;
}

Status ReplanController::last_relayout_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_relayout_error_;
}

}  // namespace ciao
