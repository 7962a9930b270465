#include "client/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "client/chunk_scheduler.h"
#include "costmodel/cost_model.h"
#include "costmodel/hardware_profile.h"

namespace ciao {

namespace {

/// Hands serialized chunks to the transport in chunk-index order, in
/// whatever order the clients finish them, so a single loader publishes
/// segments (and sideline records) in the same order on every run. A
/// worker parks its payload; whoever finds the next expected index
/// parked sends the consecutive run, outside the lock. No worker waits
/// for another: a chunk still being prefiltered, or handed back by a
/// failed client, only holds back the payloads behind it until its new
/// owner delivers it.
class InOrderSender {
 public:
  explicit InOrderSender(Transport* transport) : transport_(transport) {}

  Status Submit(uint64_t index, std::string payload) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!error_.ok()) return error_;
    parked_.emplace(index, std::move(payload));
    if (sending_) return Status::OK();  // the active sender picks it up
    sending_ = true;
    while (error_.ok() && !parked_.empty() &&
           parked_.begin()->first == next_) {
      std::string payload_out = std::move(parked_.begin()->second);
      parked_.erase(parked_.begin());
      ++next_;
      lock.unlock();
      Status sent = transport_->Send(std::move(payload_out));
      lock.lock();
      if (!sent.ok()) error_ = std::move(sent);
    }
    sending_ = false;
    return error_;
  }

 private:
  Transport* transport_;
  std::mutex mu_;
  std::map<uint64_t, std::string> parked_;
  uint64_t next_ = 0;
  bool sending_ = false;
  Status error_;
};

}  // namespace

BudgetAllocation AllocateForBudget(const PredicateRegistry& registry,
                                   double budget_us,
                                   const HardwareProfile* profile) {
  // Unlike the optimizer's selection greedy (which stops at zero marginal
  // gain — not pushing a predicate costs nothing there), every registry
  // predicate here is already part of the plan: an affordable predicate
  // is taken even at zero *estimated* gain, because evaluating it yields
  // exact bits (estimates can be wrong) and spares the server from
  // completing it.
  BudgetAllocation out;
  const size_t n = registry.size();
  if (n == 0) return out;

  const bool batched =
      registry.matcher_mode() == ClientMatcherMode::kBatched;

  // Prices: the plan's estimated costs by default; the client's measured
  // cost surface when it brought a calibrated profile. Re-pricing uses
  // the clause-level selectivity for every term (per-term estimates are
  // not retained in the registry) — the ranking cares about relative
  // magnitudes, which the client's k-coefficients dominate. Unpriceable
  // clauses keep their planned cost.
  double base = batched ? registry.base_cost_us() : 0.0;
  std::vector<double> price(n);
  for (size_t i = 0; i < n; ++i) price[i] = registry.Get(i).cost_us;
  if (profile != nullptr && profile->calibrated) {
    const CostModel client_model(profile->true_coeffs,
                                 profile->fit_r_squared);
    const double len_t = registry.mean_record_len();
    if (batched) base = client_model.BatchedScanBaseUs(len_t);
    for (size_t i = 0; i < n; ++i) {
      const RegisteredPredicate& p = registry.Get(static_cast<uint32_t>(i));
      const std::vector<double> term_sels(p.clause.terms.size(),
                                          p.selectivity);
      const Result<double> repriced =
          batched ? client_model.BatchedClauseCostUs(p.clause, term_sels,
                                                     len_t)
                  : client_model.ClauseCostUs(p.clause, term_sels, len_t);
      if (repriced.ok()) price[i] = *repriced;
    }
  }

  // Rank candidates by marginal gain per marginal µs. The shared batched
  // scan base is the same for every candidate (charged once, below), so
  // it does not affect the ordering — only feasibility.
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  const auto gain = [&](uint32_t id) {
    return std::max(0.0, 1.0 - registry.Get(id).selectivity);
  };
  const auto ratio = [&](uint32_t id) {
    // Free predicates sort first among equals; tiny floor avoids 0/0.
    return gain(id) / std::max(price[id], 1e-9);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return ratio(a) > ratio(b); });

  double cost = 0.0;
  for (const uint32_t id : order) {
    const double marginal = price[id];
    // First pick also pays the shared scan base (batched decomposition).
    const double next = (out.ids.empty() ? base : 0.0) + cost + marginal;
    if (next > budget_us + 1e-12) continue;  // skip; later ones may fit
    cost = next;
    out.ids.push_back(id);
    out.value += gain(id);
  }
  std::sort(out.ids.begin(), out.ids.end());
  out.cost_us = cost;
  return out;
}

FleetScheduler::FleetScheduler(const PredicateRegistry* registry,
                               Transport* transport,
                               std::vector<FleetClientSpec> specs,
                               FleetOptions options)
    : registry_(registry),
      transport_(transport),
      options_(options),
      specs_(std::move(specs)) {
  if (specs_.empty()) {
    FleetClientSpec fallback;
    fallback.name = "client-0";
    specs_.push_back(std::move(fallback));
  }
  if (options_.chunk_size == 0) options_.chunk_size = 1;
  allocations_.reserve(specs_.size());
  filters_.reserve(specs_.size());
  std::vector<bool> covered(registry_->size(), false);
  for (const FleetClientSpec& spec : specs_) {
    allocations_.push_back(
        AllocateForBudget(*registry_, spec.budget_us, spec.profile.get()));
    for (const uint32_t id : allocations_.back().ids) covered[id] = true;
    // Compiled once here; SendRecords workers copy (programs and batched
    // sub-programs are shared immutably), so repeated ingest calls never
    // recompile a subset client's matcher.
    filters_.emplace_back(registry_, allocations_.back().ids);
  }
  for (uint32_t id = 0; id < covered.size(); ++id) {
    if (!covered[id]) uncovered_.push_back(id);
  }
  client_stats_.resize(specs_.size());
}

Status FleetScheduler::SendRecords(const std::vector<std::string>& records) {
  const size_t chunk_size = options_.chunk_size;
  const size_t num_chunks = (records.size() + chunk_size - 1) / chunk_size;
  const size_t workers = specs_.size();

  client_stats_.assign(workers, FleetClientStats{});
  steals_ = 0;
  if (num_chunks == 0) return Status::OK();
  ChunkScheduler scheduler(workers, options_.work_stealing);
  // Seed round-robin, cheapest predicate set first: chunk c belongs to
  // the (c % workers)-th client in ascending allocation cost. Chunks
  // reach the transport in index order, so the first chunk of each round
  // gates the loader; giving it to the client that prefilters fastest
  // lets loading start while the dearer clients are still filtering.
  // Stealing (or failover) redistributes from here.
  std::vector<size_t> by_cost(workers);
  std::iota(by_cost.begin(), by_cost.end(), size_t{0});
  std::stable_sort(by_cost.begin(), by_cost.end(), [&](size_t a, size_t b) {
    return allocations_[a].cost_us < allocations_[b].cost_us;
  });
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t start = c * chunk_size;
    scheduler.Push(by_cost[c % workers],
                   ChunkTask{c, start, std::min(records.size(),
                                                start + chunk_size)});
  }

  InOrderSender sender(transport_);
  std::vector<Status> statuses(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const FleetClientSpec& spec = specs_[w];
      FleetClientStats& cs = client_stats_[w];
      ClientSession session(filters_[w], transport_, chunk_size);
      while (true) {
        bool stolen = false;
        std::optional<ChunkTask> task = scheduler.Next(w, &stolen);
        if (!task.has_value()) break;
        if (cs.chunks_processed >= spec.fail_after_chunks) {
          // Injected crash: hand the chunk back and disappear; the rest
          // of the fleet absorbs this client's remaining share.
          scheduler.Requeue(w, *task);
          scheduler.MarkFailed(w);
          cs.failed = true;
          break;
        }
        const double prefilter_before = session.stats().seconds;
        Status st = sender.Submit(
            task->index, session.PrepareChunk(ClientSession::BuildChunk(
                             records, task->start, task->end)));
        if (!st.ok()) {
          // A broken transport cannot be drained by anyone: abort the
          // whole fleet rather than spin the chunk between clients.
          statuses[w] = std::move(st);
          scheduler.TaskDone();
          scheduler.Close();
          break;
        }
        scheduler.TaskDone();
        ++cs.chunks_processed;
        if (stolen) ++cs.chunks_stolen;
        if (spec.speed_factor > 0.0 && spec.speed_factor < 1.0) {
          // Straggler simulation: pad the chunk to 1/speed of the
          // client's own prefilter compute (sleep, not spin — models a
          // slow device, not a busy CPU). Deliberately excludes time
          // blocked on transport backpressure: a loader-bound queue wait
          // is not client compute and must not be multiplied.
          const double delay = (session.stats().seconds - prefilter_before) *
                               (1.0 / spec.speed_factor - 1.0);
          std::this_thread::sleep_for(std::chrono::duration<double>(delay));
          cs.simulated_delay_seconds += delay;
        }
      }
      cs.prefilter = session.stats();
    });
  }
  for (std::thread& t : threads) t.join();

  steals_ = scheduler.steals();
  Status first_error;
  for (size_t w = 0; w < workers; ++w) {
    merged_stats_.MergeFrom(client_stats_[w].prefilter);
    if (first_error.ok() && !statuses[w].ok()) first_error = statuses[w];
  }
  if (!first_error.ok()) return first_error;
  if (scheduler.pending() > 0) {
    return Status::Internal(
        "FleetScheduler: every client failed with chunks outstanding");
  }
  return Status::OK();
}

}  // namespace ciao
