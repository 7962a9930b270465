#ifndef CIAO_CLIENT_FLEET_H_
#define CIAO_CLIENT_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "client/client_session.h"
#include "common/status.h"
#include "core/config.h"
#include "predicate/registry.h"
#include "storage/transport.h"

namespace ciao {

/// What the budget allocator decided for one client.
struct BudgetAllocation {
  /// Assigned predicate ids, ascending.
  std::vector<uint32_t> ids;
  /// Expected per-record cost of evaluating them: Σ cost(p), plus the
  /// shared scan base charged once in batched mode when non-empty.
  double cost_us = 0.0;
  /// Σ (1 − selectivity) over the assignment — the expected number of
  /// per-predicate exact "no" verdicts per record, the allocator's
  /// marginal-gain currency.
  double value = 0.0;
};

/// Budget-constrained predicate assignment for one client: greedy by
/// marginal gain per marginal cost over the registry, where gain(p) =
/// 1 − sel(p) (the filtering power the server gets exactly instead of
/// conservatively) and cost uses the batched decomposition — the shared
/// scan base is charged once, on the first predicate taken, and each
/// predicate then costs only its marginal verify µs. Unaffordable
/// predicates are skipped, later cheaper ones still taken, so two budgets
/// can end up with disjoint (non-prefix) sets. Per-pattern registries
/// have base 0 and purely additive costs — the paper's model.
///
/// `profile` (optional): the client's calibrated hardware profile. When
/// present every predicate — and the shared scan base — is re-priced
/// with the client's *measured* cost surface (term selectivities are
/// approximated by the clause-level estimate) before fitting the budget,
/// so heterogeneous hardware yields genuinely different subsets for the
/// same budget_us. Null or uncalibrated profiles price with the
/// registry's planned costs, byte-identical to the pre-profile behavior.
BudgetAllocation AllocateForBudget(const PredicateRegistry& registry,
                                   double budget_us,
                                   const HardwareProfile* profile = nullptr);

/// Per-client fleet counters (stable after SendRecords returns).
struct FleetClientStats {
  uint64_t chunks_processed = 0;
  /// Chunks this client took from another client's share.
  uint64_t chunks_stolen = 0;
  PrefilterStats prefilter;
  /// Simulated straggler delay injected (speed_factor knob).
  double simulated_delay_seconds = 0.0;
  /// True once fail_after_chunks triggered.
  bool failed = false;
};

/// Scheduling knobs of a FleetScheduler.
struct FleetOptions {
  size_t chunk_size = 1000;
  /// Work stealing on (shared dynamic queue) or off (static round-robin
  /// partition, the ablation baseline).
  bool work_stealing = true;
};

/// The heterogeneous client fleet (unifies the former budget-prefix
/// MultiClientCoordinator and the homogeneous round-robin ClientPool):
///
///  1. a per-client *budget-aware allocator* assigns each client the best
///     predicate subset its budget_us affords (marginal gain / marginal
///     cost, batched base+verify decomposition — AllocateForBudget);
///  2. a *work-stealing chunk scheduler* seeds the chunk stream
///     round-robin across the clients, cheapest allocation first, but
///     lets fast clients steal from slow or failed ones, so one
///     straggler no longer gates ingest;
///  3. every shipped chunk carries its *evaluated-predicate mask*
///     (ChunkMessage ids + total), so the server knows exactly which
///     bits are trustworthy per chunk — and can complete the rest.
///
/// Chunk contents are byte-identical to the single-client pipeline's,
/// and chunks reach the transport in the same (chunk-index) order; only
/// the (client, chunk) assignment is dynamic. Speed and failure
/// simulation knobs live in each FleetClientSpec.
class FleetScheduler {
 public:
  /// `registry` and `transport` must outlive the scheduler; `transport`
  /// must be safe for concurrent Send when more than one client is
  /// specified (e.g. BoundedTransport). An empty `specs` falls back to
  /// one full-budget client.
  FleetScheduler(const PredicateRegistry* registry, Transport* transport,
                 std::vector<FleetClientSpec> specs, FleetOptions options = {});

  /// Chunks `records`, runs the fleet (one thread per client), and blocks
  /// until every chunk is prefiltered and shipped. Chunks are sent in
  /// index order: a chunk finished early waits, serialized, until every
  /// chunk before it has been sent. Returns the first client error; fails
  /// if every client died with chunks outstanding.
  Status SendRecords(const std::vector<std::string>& records);

  size_t num_clients() const { return specs_.size(); }
  const FleetClientSpec& spec(size_t i) const { return specs_[i]; }
  /// The allocator's predicate assignment for client `i`.
  const std::vector<uint32_t>& assigned_ids(size_t i) const {
    return allocations_[i].ids;
  }
  const BudgetAllocation& allocation(size_t i) const {
    return allocations_[i];
  }
  /// Registry ids no client in the fleet could afford; with server
  /// completion off these predicates degrade to all-ones on every chunk.
  const std::vector<uint32_t>& uncovered_ids() const { return uncovered_; }

  /// Merged client counters across all SendRecords calls so far.
  const PrefilterStats& stats() const { return merged_stats_; }
  /// Per-client counters of the most recent SendRecords call.
  const FleetClientStats& client_stats(size_t i) const {
    return client_stats_[i];
  }
  /// Chunks handed out via a steal in the most recent SendRecords call.
  uint64_t steals() const { return steals_; }

 private:
  const PredicateRegistry* registry_;
  Transport* transport_;
  FleetOptions options_;
  std::vector<FleetClientSpec> specs_;
  std::vector<BudgetAllocation> allocations_;
  /// One compiled prefilter per client (allocations_[i].ids), built once
  /// at construction; workers copy it per SendRecords call (cheap: the
  /// compiled programs are shared immutably).
  std::vector<ClientFilter> filters_;
  std::vector<uint32_t> uncovered_;
  std::vector<FleetClientStats> client_stats_;
  PrefilterStats merged_stats_;
  uint64_t steals_ = 0;
};

}  // namespace ciao

#endif  // CIAO_CLIENT_FLEET_H_
