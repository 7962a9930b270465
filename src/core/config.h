#ifndef CIAO_CORE_CONFIG_H_
#define CIAO_CORE_CONFIG_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/plan.h"
#include "matcher/kernels.h"
#include "matcher/multi_pattern.h"
#include "optimizer/selection.h"

namespace ciao {

struct HardwareProfile;

/// One client of a heterogeneous ingest fleet: its prefilter budget (the
/// paper's per-client B — "setting different budgets for different
/// clients", abstract + §I) plus simulation knobs for benchmarking and
/// fault-injection testing of the fleet scheduler.
struct FleetClientSpec {
  std::string name;

  /// µs of prefilter compute per record this client affords. The fleet
  /// allocator assigns it the best predicate subset that fits (batched
  /// decomposition: shared scan base + marginal verify costs). Infinity
  /// (default) = evaluate the full registry.
  double budget_us = std::numeric_limits<double>::infinity();

  /// Relative processing speed, simulated: 1.0 = full speed, 0.1 = a 10x
  /// straggler (each chunk is padded with sleep to 1/speed_factor of the
  /// client's measured prefilter compute for it; time blocked on
  /// transport backpressure is not multiplied). Values >= 1 or <= 0 add
  /// no delay.
  double speed_factor = 1.0;

  /// Failure injection: the client dies after prefiltering this many
  /// chunks, handing its in-flight chunk back to the fleet queue.
  /// UINT64_MAX (default) = never fails.
  uint64_t fail_after_chunks = std::numeric_limits<uint64_t>::max();

  /// This client's calibrated hardware profile (costmodel/autotune), or
  /// null. When set, AllocateForBudget re-prices every predicate with the
  /// client's *measured* cost surface before fitting its budget — a slow
  /// phone and a fast desktop with the same budget_us get genuinely
  /// different predicate subsets.
  std::shared_ptr<const HardwareProfile> profile;
};

/// Concurrency knobs of the ingest pipeline. Defaults reproduce the
/// paper's sequential pipeline (one client, one loader, unbounded
/// in-memory queue); anything above 1/1 — or a non-empty heterogeneous
/// fleet — switches IngestRecords to the overlapped pipeline: a
/// FleetScheduler prefilters and ships chunks while a LoaderPool drains
/// a BoundedTransport into the sharded catalog.
struct IngestOptions {
  /// Concurrent client prefilter workers (paper Step 1). Ignored when
  /// `fleet` is non-empty.
  size_t num_clients = 1;
  /// Concurrent partial-loader workers (paper Step 2).
  size_t num_loaders = 1;
  /// BoundedTransport capacity in chunk messages; caps the memory held
  /// in flight and applies backpressure to fast clients.
  size_t queue_capacity = 64;

  /// Heterogeneous fleet description. Empty (default) = `num_clients`
  /// identical full-budget clients.
  std::vector<FleetClientSpec> fleet;

  /// Chunk scheduling across the fleet: true = shared work queue with
  /// work stealing (fast clients absorb stragglers); false = the static
  /// round-robin partition (kept as the ablation baseline; failed
  /// clients' chunks are still failed over either way).
  bool work_stealing = true;

  /// Server-side annotation completion: predicates a chunk's client did
  /// not evaluate are evaluated by the loader (exact bits per chunk)
  /// instead of being treated as conservative all-ones. Keeps the loaded
  /// row set identical to a full-budget client's regardless of fleet
  /// composition, at bounded server CPU cost. No effect when every
  /// client affords the whole registry.
  bool server_completion = true;

  bool concurrent() const {
    return num_clients > 1 || num_loaders > 1 || !fleet.empty();
  }
};

/// Knobs of workload-driven column grouping — the *vertical* half of
/// adaptive physical layout. During a re-layout pass the runtime mines a
/// column co-access profile from the decayed query log (predicate columns
/// + projected columns, weighted by workload mass), greedily clusters
/// columns that are accessed together into groups, and rewrites segments
/// with a grouped (v4) body whose chunks decode and checksum
/// independently — so a query touching 3 of 30 columns feeds only its
/// groups through the decoder.
struct ColumnGroupingOptions {
  /// Mine and apply a column grouping when re-layout fires. Off = rewrite
  /// keeps the legacy per-column body (row clustering only).
  bool enabled = true;

  /// Upper bound on mined groups. The greedy partitioner merges past the
  /// gain optimum if needed to respect it (more groups = more per-chunk
  /// framing and directory overhead).
  size_t max_groups = 8;

  /// Minimum estimated decoded-bytes saving — as a fraction of the
  /// whole-row baseline decode volume — for the mined layout to be worth
  /// installing. Below it the rewrite keeps the legacy body: chunk
  /// framing would cost more than the pruning saves.
  double min_saving_fraction = 0.02;

  /// Per-chunk access overhead in byte-equivalents (decode dispatch,
  /// framing, CRC domain) charged by the mining objective for every group
  /// a query touches. 0 = derive from the active HardwareProfile's
  /// measured columnar-decode throughput (~2 µs per chunk access,
  /// floor 512 bytes).
  double chunk_overhead_bytes = 0.0;

  /// Ablation: skip mining and force the single-group (whole-row) v4
  /// layout. This is the "ungrouped" baseline of bench_column_grouping —
  /// physically the same body format, zero vertical pruning.
  bool force_single_group = false;
};

/// Knobs of the online segment re-layout pass (adaptive *physical*
/// layout). When the adaptive runtime detects that queries keep decoding
/// rows they then discard — hot-predicate matches smeared across every
/// row group, so neither bitvector skipping nor zone maps prune — it can
/// rewrite sealed segments, clustering rows by which hot predicates they
/// satisfy and ordering each cluster by the hottest numeric column, so
/// whole groups become skippable. The rewrite is charged against realized
/// query waste and only fires when accumulated waste exceeds the rewrite
/// cost by `cost_multiplier` — the classic online-reorganization regret
/// bound: cumulative reorganization cost <= (1/cost_multiplier) x the
/// decode waste queries actually paid.
struct RelayoutOptions {
  /// Master switch. Requires `adaptive.enabled`; off = plans adapt but
  /// data never moves (the PR 3 behavior).
  bool enabled = false;

  /// A re-layout may fire only when total accumulated query waste covers
  /// (total rewrite seconds already spent + the estimated cost of the
  /// prospective pass) x this factor. 2.0 = never spend more than half
  /// of what queries already wasted. The gate is on the global ledger,
  /// so a pass that overshoots its estimate leaves a debt the next pass
  /// must first cover with additional realized waste.
  double cost_multiplier = 2.0;

  /// Seconds of estimated decode waste that must accumulate before the
  /// trigger is even evaluated (avoids reorganizing a cold or tiny
  /// catalog on noise).
  double min_waste_seconds = 0.005;

  /// Hot predicates considered for clustering, hottest first by decayed
  /// workload share. Each contributes one bit of the per-row cluster
  /// signature, so keep this small; 16 bits covers any realistic skew.
  size_t max_cluster_predicates = 16;

  /// Rows per rewritten row group. Smaller groups give finer skipping at
  /// more header overhead. 0 = 4096 (kDefaultRewriteRowsPerGroup).
  size_t rows_per_group = 0;

  /// Assumed rewrite throughput (rows/second) used to estimate the cost
  /// of a prospective re-layout before any has run; after the first run
  /// the measured throughput replaces it. Deliberately conservative
  /// (unoptimized builds rewrite at well under 1M rows/s): a low seed
  /// only delays the first pass, while an optimistic one would let that
  /// pass overshoot the regret budget before measurement exists.
  double seed_rewrite_rows_per_second = 2.5e5;

  /// Workload-driven column grouping applied by the same rewrite pass
  /// (one decode+re-encode applies row clustering and the vertical
  /// re-partitioning together).
  ColumnGroupingOptions column_grouping;
};

/// Knobs of the adaptive re-optimization runtime (epoch-versioned plans).
/// Disabled by default: the sequential paper pipeline plans once, offline,
/// and never revisits the decision. With `enabled` the system records
/// every executed query into a decayed QueryLog, periodically diffs the
/// live mix against the workload the current epoch was planned for, and —
/// when they diverge — re-runs predicate selection on the derived
/// workload (optionally with a cost model recalibrated from observed
/// runtime timings), backfills annotations over already-loaded segments
/// and the raw sideline, and atomically installs the new plan epoch.
/// Concurrent queries keep executing against their snapshot throughout.
struct AdaptiveOptions {
  /// Master switch. Off = the static paper pipeline, byte-identical.
  bool enabled = false;

  /// Check the re-plan trigger every this many recorded queries.
  uint64_t replan_interval = 64;

  /// Total-variation distance between the live workload's signature
  /// distribution and the planned one above which a re-plan fires
  /// (0 = re-plan unconditionally at every interval). Range [0, 1]:
  /// 0.25 means a quarter of the query mass moved to different queries.
  double divergence_threshold = 0.25;

  /// Queries that must be recorded before the first re-plan can fire
  /// (avoids thrashing on a cold log).
  uint64_t min_queries = 16;

  /// QueryLog decay half-life in recorded queries (0 = never decay).
  uint64_t history_half_life = 512;

  /// Significance floor when deriving the prospective workload from the
  /// log: queries whose decayed share fell below this fraction are
  /// dropped from re-planning (they would otherwise pin their predicates
  /// in the pushdown set forever under a loose budget). 0 = keep all.
  double min_query_share = 0.005;

  /// Refit the cost model from runtime observations (prefilter timings,
  /// replan-time predicate sweeps) before re-running selection; with too
  /// few observations the bootstrap model is kept.
  bool recalibrate = true;

  /// Query-driven JIT promotion: before a full-scan query touches the
  /// raw sideline, promote the records its residual predicate cannot
  /// rule out (parsed once, annotated for the current epoch) and screen
  /// out the rest without parsing.
  bool jit_promotion = true;

  /// Online segment re-layout (adaptive physical layout). Off by default.
  RelayoutOptions relayout;
};

/// Knobs of the persistent out-of-core segment store (storage/
/// segment_store.h). Off by default: the in-memory pipeline is unchanged.
/// With `enabled`, every published segment is spilled to `dir` as a
/// columnar file and queried via mmap under an LRU residency budget,
/// ingest batches are WAL-logged before acknowledgement, and reopening a
/// CiaoSystem over the same directory recovers every acknowledged batch.
struct StorageOptions {
  /// Master switch for durable, out-of-core storage.
  bool enabled = false;

  /// Store directory (created if missing). Required when enabled.
  std::string dir;

  /// LRU budget for cached segment mmaps. Bounds cached residency, not a
  /// single scan's working set: one segment larger than the whole budget
  /// still maps (and is dropped from the cache first).
  uint64_t memory_budget_bytes = 256ull << 20;

  /// fsync the WAL on every ingest batch. True (default) = a batch is
  /// durable the moment IngestRecords returns OK, surviving power loss.
  /// False = appends ride the page cache: a *process* crash still
  /// recovers them, machine loss may drop the tail. For benches that do
  /// not measure durability.
  bool wal_sync = true;

  /// Checkpoint (fsync segments, publish manifest, truncate WAL) once the
  /// WAL tail grows past this many bytes. 0 = only explicit/periodic
  /// checkpoints.
  uint64_t checkpoint_wal_bytes = 64ull << 20;

  /// Background compactor tick interval. Each tick promotes the raw
  /// sideline into a columnar segment (off the query path) and
  /// checkpoints. 0 = no background thread (checkpoints still fire on
  /// the WAL-size trigger and at shutdown).
  uint64_t compaction_interval_ms = 0;

  /// Sideline rows that must accumulate before a compaction tick bothers
  /// promoting (a checkpoint still runs either way).
  uint64_t compaction_min_raw_rows = 1;
};

/// Tuning knobs of a CIAO deployment. The one the administrator actually
/// sets is `budget_us` — "the average amount of computation cost of
/// evaluating predicates for each new tuple" (paper §III). Budget 0 is
/// the paper's baseline: nothing pushed down, full loading, no skipping.
struct CiaoConfig {
  /// Client computation budget B, µs per record.
  double budget_us = 0.0;

  /// Records per client chunk (paper §III: "e.g. 1k objects per chunk").
  size_t chunk_size = 1000;

  /// Substring-search kernel used by the client filter.
  SearchKernel kernel = SearchKernel::kStdFind;

  /// Client matcher strategy (`client.matcher`). `batched` (default)
  /// compiles all pushed clauses' pattern strings into one multi-pattern
  /// matcher (Teddy SIMD buckets / Aho–Corasick) that scans each record
  /// exactly once, making prefilter cost nearly independent of predicate
  /// count — the optimizer then costs predicates as base-scan +
  /// marginal-verify instead of additively. `per_pattern` is the paper's
  /// loop (one scan per pushed clause), kept as the differential oracle;
  /// both produce byte-identical annotation bitvectors.
  ClientMatcherMode matcher = ClientMatcherMode::kBatched;

  /// Records sampled for selectivity estimation.
  size_t sample_size = 2000;

  /// Selection algorithm (default: the paper's 0.316-approximation).
  SelectionAlgorithm algorithm = SelectionAlgorithm::kBestOfBoth;

  /// Paper-faithful mode: keep adding zero-gain predicates while budget
  /// remains (see GreedyOptions::keep_zero_gain).
  bool keep_zero_gain = false;

  /// Master switch for partial loading. Even when true, the pipeline
  /// auto-disables it if the selected predicates do not cover every
  /// prospective query (otherwise uncovered queries would have to scan
  /// raw JSON at query time — the paper's servers only "employ partial
  /// loading" for covered workloads, §VII-D/E).
  bool enable_partial_loading = true;

  /// Concurrency of the ingest pipeline (clients, loaders, queue).
  IngestOptions ingest;

  /// Adaptive re-optimization runtime (drift-triggered re-planning,
  /// annotation backfill, query-driven JIT promotion). Default off:
  /// the plan chosen at bootstrap is frozen, as in the paper.
  AdaptiveOptions adaptive;

  /// Persistent out-of-core segment store + crash-recoverable ingest.
  /// Default off: everything stays in RAM, as in the paper pipeline.
  StorageOptions storage;

  /// Worker threads for the executor's segment scan; 1 = sequential,
  /// 0 = one per hardware thread.
  size_t query_scan_threads = 1;

  /// Row-verification strategy of the query executor. `vectorized`
  /// (default) evaluates whole RecordBatches with typed SIMD/SWAR column
  /// kernels feeding packed bitvectors; `rowwise` is the paper-faithful
  /// tuple-at-a-time loop, kept as the differential oracle. Counts are
  /// byte-identical under both.
  QueryEvalMode query_eval = QueryEvalMode::kVectorized;

  /// Seed for sampling.
  uint64_t seed = 42;
};

}  // namespace ciao

#endif  // CIAO_CORE_CONFIG_H_
