// CIAO benchmark: three closed-loop workloads against CiaoSystem,
// every answer checked against an in-RAM reference, every end-to-end
// metric printed by name with its unit, and a traced mode that reports
// per-layer self times from spans around the calls into each layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is non-zero when any answer or exact count is wrong.
//
// Steadiness rules (see README.md): a run repeats whole rounds
// (bootstrap -> ingest -> queries [-> rewrite -> recovery]) until
// --seconds has passed, so every metric pools samples spread over the
// whole run; nothing timer-driven runs inside a round; tails stop at p90.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <sched.h>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/system.h"
#include "storage/segment_store.h"
#include "subjects.h"
#include "tracer.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"
#include "workload/templates.h"

namespace ciao::perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadDef {
  const char* name;
  workload::DatasetKind kind;
  size_t records;        // ingested per round
  size_t batch_records;  // records per IngestRecords call
  double budget_us;      // client budget B (us/record)
  bool durable;          // fleet + store + adaptive + drift + recovery
};

constexpr double kPushdownBudgetUs = 25.0;  // the fig5 budget
constexpr size_t kQueriesPerMix = 200;      // a Table III workload
constexpr uint64_t kMixSeed = 42;           // WorkloadA's preset seed
constexpr uint64_t kDriftMixSeed = 7;
constexpr uint64_t kSampleSeed = 42;
// winlog_durable fixed points (recorded in README.md).
constexpr size_t kCompactEveryBatches = 4;
constexpr size_t kForcedRelayoutQuery = 350;
constexpr double kThinClientBudgetUs = 0.5;
constexpr uint64_t kMappingBudgetDivisor = 16;
// Each run cycles its rounds through this many datasets drawn from its
// seed, so a size-dependent step in one dataset (a buffer that doubles
// or not) moves a run's figures by an eighth of it, not all of it.
constexpr uint64_t kDatasetsPerRun = 8;

const WorkloadDef kWorkloads[] = {
    {"ycsb_pushdown", workload::DatasetKind::kYcsb, 10000, 500,
     kPushdownBudgetUs, false},
    {"ycsb_fullload", workload::DatasetKind::kYcsb, 10000, 500, 0.0, false},
    {"winlog_durable", workload::DatasetKind::kWinLog, 20000, 2000,
     kPushdownBudgetUs, true},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Answer {
  uint64_t count = 0;
  std::vector<uint64_t> hashes;
  bool operator==(const Answer& o) const {
    return count == o.count && hashes == o.hashes;
  }
};

struct Inputs {
  workload::Dataset ds;
  // Planning sample: the same records for every seed (see MakeInputs).
  std::shared_ptr<const std::vector<std::string>> sample;
  std::vector<std::vector<std::string>> batches;
  Workload planned;            // what bootstrap plans for (mix 1)
  std::vector<Query> stream;   // the query client's closed-loop stream
  std::vector<Answer> expected;  // reference answer per stream index
  std::vector<size_t> distinct;  // stream indexes of distinct queries
  uint64_t input_bytes = 0;
  uint64_t reference_columnar_bytes = 0;
};

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Adds one projected column per query, chosen from the query's text so
/// repeated queries project the same column (answers carry its hash).
void AddProjections(std::vector<Query>* queries,
                    const columnar::Schema& schema) {
  const size_t pool = std::min<size_t>(6, schema.num_fields());
  for (Query& q : *queries) {
    q.projected = {
        schema.field(HashString(q.ToSql()) % pool).name};
  }
}

Inputs MakeInputs(const WorkloadDef& def, uint64_t dataset_seed,
                  std::shared_ptr<const std::vector<std::string>> sample) {
  Inputs in;
  workload::GeneratorOptions gen;
  gen.num_records = def.records;
  gen.seed = dataset_seed;
  in.ds = workload::GenerateDataset(def.kind, gen);
  in.sample = std::move(sample);
  in.input_bytes = in.ds.TotalBytes();
  for (size_t start = 0; start < in.ds.records.size();
       start += def.batch_records) {
    const size_t end = std::min(in.ds.records.size(),
                                start + def.batch_records);
    in.batches.emplace_back(
        std::make_move_iterator(in.ds.records.begin() + start),
        std::make_move_iterator(in.ds.records.begin() + end));
  }
  in.ds.records.clear();  // the batches own the records now

  // The seed draws the records only. The query mixes are fixed Table III
  // presets: drawing them from the seed too would change which predicates
  // are hot, and with them the pushed set, the loaded share and every
  // cost, so runs with different seeds would measure different workloads.
  const auto pool = workload::TemplatesFor(def.kind).AllCandidates();
  in.planned = workload::WorkloadA(pool, kMixSeed);
  in.planned.queries.resize(std::min(in.planned.queries.size(),
                                     kQueriesPerMix));
  AddProjections(&in.planned.queries, in.ds.schema);
  in.stream = in.planned.queries;
  if (def.durable) {
    // Drift: the same skewed preset with other predicate ranks, so
    // different predicates are hot.
    Workload drift = workload::WorkloadA(pool, kDriftMixSeed);
    drift.queries.resize(std::min(drift.queries.size(), kQueriesPerMix));
    AddProjections(&drift.queries, in.ds.schema);
    in.stream.insert(in.stream.end(), drift.queries.begin(),
                     drift.queries.end());
  }
  return in;
}

// ---------------------------------------------------------------------------
// Configuration

CiaoConfig MakeConfig(const WorkloadDef& def, uint64_t mapping_budget,
                      const std::string& store_dir) {
  CiaoConfig config;  // everything not set here stays at the defaults
  config.budget_us = def.budget_us;
  if (!def.durable) return config;
  FleetClientSpec full;
  full.name = "full";  // evaluates the whole registry
  FleetClientSpec thin;
  thin.name = "thin";
  thin.budget_us = kThinClientBudgetUs;  // the loader completes the rest
  config.ingest.fleet = {full, thin};
  config.ingest.num_loaders = 1;
  // Static round-robin chunks: with stealing, which client prefilters a
  // chunk (and so whether the loader completes its bits) is a race.
  config.ingest.work_stealing = false;
  config.storage.enabled = true;
  config.storage.dir = store_dir;
  config.storage.wal_sync = false;  // page-cache flush policy, stated
  config.storage.compaction_interval_ms = 0;  // compaction at fixed points
  config.storage.memory_budget_bytes = mapping_budget;
  config.adaptive.enabled = true;  // organic re-plan; re-layout stays off
  return config;
}

/// The reference: budget 0, everything in RAM, static plan — every record
/// parsed and loaded, every query a full scan.
Status BuildReference(Inputs* in) {
  CiaoConfig config;
  config.budget_us = 0.0;
  CIAO_ASSIGN_OR_RETURN(
      std::unique_ptr<CiaoSystem> ref,
      CiaoSystem::Bootstrap(in->ds.schema, in->planned, *in->sample, config,
                            CostModel::Default()));
  for (const std::vector<std::string>& batch : in->batches) {
    CIAO_RETURN_IF_ERROR(ref->IngestRecords(batch));
  }
  in->reference_columnar_bytes = ref->catalog().columnar_bytes();
  std::map<std::string, Answer> by_sql;
  in->expected.resize(in->stream.size());
  for (size_t i = 0; i < in->stream.size(); ++i) {
    const std::string key =
        in->stream[i].ToSql() + "|" + in->stream[i].projected[0];
    auto it = by_sql.find(key);
    if (it == by_sql.end()) {
      CIAO_ASSIGN_OR_RETURN(QueryResult r, ref->ExecuteQuery(in->stream[i]));
      it = by_sql.emplace(key, Answer{r.count, r.projected_hashes}).first;
      in->distinct.push_back(i);
    }
    in->expected[i] = it->second;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One round

/// Memory the process holds: heap bytes in use plus segment bytes mapped
/// by a store's cache. Process RSS would also count freed pages the
/// allocator has not yet returned, which varies between identical runs.
uint64_t HeldBytes(const Subject* subject) {
  const struct mallinfo2 info = ::mallinfo2();
  uint64_t held = info.uordblks + info.hblkhd;
  if (subject != nullptr && subject->store() != nullptr) {
    held += subject->store()->cache()->cached_bytes();
  }
  return held;
}

/// CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Binds the calling thread to `cpu` (threads it starts inherit this).
void BindToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// Counts that must repeat exactly across rounds, runs of one seed, and
/// the traced replica.
struct ExactCounts {
  uint64_t rows_loaded = 0;
  uint64_t rows_sidelined = 0;
  std::string pushed_keys;
  bool partial_loading = false;
  uint64_t replans = 0;
  uint64_t relayouts = 0;
  uint64_t segments_spilled = 0;
  uint64_t mappings_created = 0;
  uint64_t wal_records_replayed = 0;

  bool operator==(const ExactCounts&) const = default;
  std::string Summary() const {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "rows_loaded=%llu rows_sidelined=%llu pushed_keys=%016llx "
                  "partial_loading=%d replans=%llu relayouts=%llu "
                  "segments_spilled=%llu mappings_created=%llu "
                  "wal_records_replayed=%llu",
                  (unsigned long long)rows_loaded,
                  (unsigned long long)rows_sidelined,
                  (unsigned long long)HashString(pushed_keys),
                  partial_loading ? 1 : 0, (unsigned long long)replans,
                  (unsigned long long)relayouts,
                  (unsigned long long)segments_spilled,
                  (unsigned long long)mappings_created,
                  (unsigned long long)wal_records_replayed);
    return buf;
  }
};

/// Counters gathered per round for the per-layer metrics.
struct LayerCounters {
  PushdownPlan plan;
  size_t pushed = 0;
  LoadStats load;
  BoundaryCounters boundary;
  ScanStats scan;
  uint64_t result_rows = 0;
  uint64_t pins = 0;
  uint64_t checkpoints = 0;
  uint64_t disk_bytes = 0;
  BackfillStats backfill;
  RelayoutStats relayout;
  QueryPromotionStats promotion;
  uint64_t recovered_wal_batches = 0;
};

struct RoundResult {
  double setup_s = 0.0;
  double ingest_s = 0.0;
  double query_s = 0.0;
  double rewrite_s = 0.0;
  double recovery_s = 0.0;
  std::vector<double> batch_s;
  std::vector<double> query_lat_s;
  uint64_t records = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t stored_bytes = 0;
  uint64_t input_bytes = 0;
  uint64_t base_held = 0;  // HeldBytes at the start of the round
  uint64_t peak_held = 0;  // sampled at every batch and query boundary
  ExactCounts counts;
  LayerCounters layer;
  std::vector<std::string> errors;

  double EndToEnd() const {
    return setup_s + ingest_s + query_s + rewrite_s + recovery_s;
  }
  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

struct RoundContext {
  const WorkloadDef* def = nullptr;
  const Inputs* in = nullptr;
  uint64_t mapping_budget = 0;
  std::string dir;  // scratch dir for this round's stores
  Tracer* tracer = nullptr;  // non-null = traced replica
};

uint64_t DiskResidentSegments(const TableCatalog& catalog) {
  uint64_t n = 0;
  for (size_t i = 0; i < catalog.num_segments(); ++i) {
    if (catalog.segment(i).disk != nullptr) ++n;
  }
  return n;
}

void CheckAnswer(const Result<QueryResult>& r, const Answer& want,
                 const char* phase, size_t index, RoundResult* out) {
  ++out->attempted;
  if (!r.ok()) {
    out->Fail(std::string(phase) + " query " + std::to_string(index) + ": " +
              r.status().ToString());
    return;
  }
  if (!(Answer{r->count, r->projected_hashes} == want)) {
    out->Fail(std::string(phase) + " query " + std::to_string(index) +
              ": count " + std::to_string(r->count) + " != reference " +
              std::to_string(want.count) + " (or projection hash differs)");
  }
}

RoundResult RunRound(const RoundContext& ctx) {
  const WorkloadDef& def = *ctx.def;
  const Inputs& in = *ctx.in;
  Tracer* tracer = ctx.tracer;
  RoundResult out;
  const std::string live = ctx.dir + "/live";
  const std::string crash = ctx.dir + "/crash";
  fs::remove_all(ctx.dir);
  fs::create_directories(ctx.dir);
  out.base_held = HeldBytes(nullptr);
  out.peak_held = out.base_held;

  SubjectInputs si;
  si.schema = &in.ds.schema;
  si.planned = &in.planned;
  si.sample = in.sample.get();
  si.config = MakeConfig(def, ctx.mapping_budget, live);
  out.input_bytes = in.input_bytes;

  std::unique_ptr<Subject> subject;
  std::optional<ScopedSpan> round_span;
  round_span.emplace(tracer, "bench.round", 0);
  {
    Stopwatch watch;
    auto made = tracer != nullptr ? MakeStageSubject(si, tracer)
                                  : MakeSystemSubject(si);
    out.setup_s = watch.ElapsedSeconds();
    ++out.attempted;
    if (!made.ok()) {
      out.Fail("bootstrap: " + made.status().ToString());
      return out;
    }
    subject = std::move(*made);
  }

  // Ingest phase: one producer, next batch after the previous ack.
  for (size_t b = 0; b < in.batches.size(); ++b) {
    Status st;
    {
      ScopedSpan span(tracer, "bench.batch", b);
      Stopwatch watch;
      st = subject->Ingest(in.batches[b], b);
      const double dt = watch.ElapsedSeconds();
      out.batch_s.push_back(dt);
      out.ingest_s += dt;
    }
    ++out.attempted;
    if (!st.ok()) out.Fail("ingest batch " + std::to_string(b) + ": " +
                           st.ToString());
    out.records += in.batches[b].size();
    if (def.durable && (b + 1) % kCompactEveryBatches == 0 &&
        b + 1 < in.batches.size()) {
      Stopwatch watch;
      const Status cst = subject->CompactAndCheckpoint();
      out.rewrite_s += watch.ElapsedSeconds();
      ++out.attempted;
      if (!cst.ok()) out.Fail("compact: " + cst.ToString());
    }
    out.peak_held = std::max(out.peak_held, HeldBytes(subject.get()));
  }
  out.layer.load = subject->load_stats();
  if (subject->store() != nullptr) {
    out.stored_bytes = DirectoryBytes(live);
    out.layer.disk_bytes = out.stored_bytes;
    // Process-crash image: the store exactly as the last acknowledged
    // batch left it (no shutdown checkpoint).
    std::error_code ec;
    fs::copy(live, crash, fs::copy_options::recursive, ec);
    if (ec) out.Fail("crash image copy: " + ec.message());
  } else {
    out.stored_bytes = subject->catalog().columnar_bytes() +
                       subject->catalog().SnapshotRaw()->byte_size();
  }

  // Query phase: one query client, next query after the previous answer.
  for (size_t q = 0; q < in.stream.size(); ++q) {
    if (def.durable && q == kForcedRelayoutQuery) {
      Stopwatch watch;
      const Result<bool> relaid = subject->ForceRelayout();
      out.rewrite_s += watch.ElapsedSeconds();
      ++out.attempted;
      if (!relaid.ok()) out.Fail("relayout: " + relaid.status().ToString());
    }
    const uint64_t replans_before =
        subject->replan() != nullptr ? subject->replan()->replans_installed()
                                     : 0;
    const uint64_t pins_before = DiskResidentSegments(subject->catalog());
    Result<QueryResult> r = Status::OK();
    {
      ScopedSpan span(tracer, "bench.query", q);
      Stopwatch watch;
      r = subject->Execute(in.stream[q], q);
      const double dt = watch.ElapsedSeconds();
      out.query_lat_s.push_back(dt);
      out.query_s += dt;
    }
    CheckAnswer(r, in.expected[q], "live", q, &out);
    if (r.ok()) {
      out.layer.scan.MergeFrom(r->stats);
      out.layer.result_rows += r->count;
    }
    // The executor pins every segment of its scan snapshot. JIT
    // promotion publishes before the scan, so count after the query;
    // a re-plan installs after the scan, so then count before it.
    const uint64_t replans_after =
        subject->replan() != nullptr ? subject->replan()->replans_installed()
                                     : 0;
    out.layer.pins += replans_after != replans_before
                          ? pins_before
                          : DiskResidentSegments(subject->catalog());
    out.peak_held = std::max(out.peak_held, HeldBytes(subject.get()));
  }

  // Exact counts of the live system.
  out.counts.rows_loaded = out.layer.load.records_loaded;
  out.counts.rows_sidelined = out.layer.load.records_sidelined;
  for (const std::string& k : subject->plan().SelectedKeys()) {
    out.counts.pushed_keys += k + "\n";
  }
  out.counts.partial_loading = subject->partial_loading();
  out.layer.plan = subject->plan();
  out.layer.pushed = subject->pushed();
  out.layer.boundary = subject->boundary();
  out.layer.promotion = subject->promotion();
  if (const ReplanController* replan = subject->replan()) {
    out.counts.replans = replan->replans_installed();
    out.counts.relayouts = replan->relayouts_performed();
    out.layer.backfill = replan->backfill_stats();
    out.layer.relayout = replan->relayout_stats();
  }
  if (const SegmentStore* store = subject->store()) {
    out.counts.segments_spilled = store->segments_spilled();
    out.counts.mappings_created = store->cache()->mappings_created();
    out.layer.checkpoints = store->checkpoints_completed();
  }

  // Recovery: reopen the crash image until it answers a query.
  if (def.durable) {
    if (tracer != nullptr) {
      // The store layer alone: open + WAL read of a second copy.
      const std::string probe = ctx.dir + "/crash_probe";
      std::error_code ec;
      fs::copy(crash, probe, fs::copy_options::recursive, ec);
      ScopedSpan span(tracer, "recovery.store_open", 0);
      SegmentStore::Options options;
      options.dir = probe;
      options.memory_budget_bytes = si.config.storage.memory_budget_bytes;
      options.wal_sync = WalSyncMode::kNever;
      auto store = SegmentStore::Open(options);
      if (store.ok()) {
        out.layer.recovered_wal_batches =
            (*store)->TakeRecovered().wal_batches.size();
      }
    }
    SubjectInputs ri = si;
    ri.config.storage.dir = crash;
    Stopwatch watch;
    std::unique_ptr<CiaoSystem> reopened;
    Result<QueryResult> first = Status::OK();
    {
      ScopedSpan span(tracer, "recovery.reopen", 0);
      auto opened =
          CiaoSystem::Bootstrap(*ri.schema, *ri.planned, *ri.sample,
                                ri.config, ri.cost_model);
      ++out.attempted;
      if (!opened.ok()) {
        out.Fail("reopen: " + opened.status().ToString());
      } else {
        reopened = std::move(*opened);
        first = reopened->ExecuteQuery(in.stream[0]);
      }
    }
    out.recovery_s = watch.ElapsedSeconds();
    if (reopened != nullptr) {
      CheckAnswer(first, in.expected[0], "recovered", 0, &out);
      out.counts.wal_records_replayed = reopened->load_stats().records_in;
    }
    round_span.reset();  // the checks below are not round work
    if (reopened != nullptr) {
      for (const size_t q : in.distinct) {
        CheckAnswer(reopened->ExecuteQuery(in.stream[q]), in.expected[q],
                    "recovered", q, &out);
      }
    }
  }
  round_span.reset();
  subject.reset();
  fs::remove_all(ctx.dir);
  return out;
}

// ---------------------------------------------------------------------------
// Statistics and output

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// End-to-end metrics over a run's rounds. On the VM measured in
/// README.md, speed alternates between faster and slower episodes lasting
/// seconds. A figure that picks one sample (a pooled median) jumps between
/// the two speeds with the share of time spent in each; a sum or a mean
/// of per-round figures moves in proportion to it. Hence: totals for
/// rates, means of per-round medians for the p50s, and pooled p90s, which
/// sit in the slow episodes and have the most samples beyond them.
void AddEndToEnd(const std::vector<RoundResult>& rounds,
                 std::vector<Metric>* m) {
  std::vector<double> setup, batch, query, batch_p50, query_p50, e2e, memory,
      stored;
  double ingest_s = 0, query_s = 0, records = 0, queries = 0;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    batch.insert(batch.end(), r.batch_s.begin(), r.batch_s.end());
    query.insert(query.end(), r.query_lat_s.begin(), r.query_lat_s.end());
    batch_p50.push_back(Median(r.batch_s));
    query_p50.push_back(Median(r.query_lat_s));
    e2e.push_back(r.EndToEnd());
    ingest_s += r.ingest_s;
    query_s += r.query_s;
    records += static_cast<double>(r.records);
    queries += static_cast<double>(r.query_lat_s.size());
    stored.push_back(Ratio(static_cast<double>(r.stored_bytes),
                           static_cast<double>(r.input_bytes)));
    memory.push_back(static_cast<double>(r.peak_held - r.base_held) /
                     (1024.0 * 1024.0));
  }
  // Set-up runs once per round; its median over the rounds.
  m->push_back({"setup_s", Median(setup), "s"});
  m->push_back({"ingest_records_per_s", Ratio(records, ingest_s),
                "records/s"});
  m->push_back({"ingest_batch_p50_ms", Mean(batch_p50) * 1e3, "ms"});
  m->push_back({"ingest_batch_p90_ms", Percentile(batch, 0.9) * 1e3, "ms"});
  m->push_back({"query_p50_ms", Mean(query_p50) * 1e3, "ms"});
  m->push_back({"query_p90_ms", Percentile(query, 0.9) * 1e3, "ms"});
  m->push_back({"queries_per_s", Ratio(queries, query_s), "queries/s"});
  m->push_back({"end_to_end_s", Mean(e2e), "s"});
  m->push_back({"stored_bytes_per_input_byte", Median(stored), "ratio"});
  // Each dataset's peak is exact; the mean weighs every dataset of the run
  // instead of picking one of them.
  m->push_back({"memory_mb", Mean(memory), "MB"});
}

/// Per-layer metrics of one traced round.
std::map<std::string, double> LayerMetrics(const RoundResult& r,
                                           const std::vector<Span>& spans,
                                           const CiaoConfig& config) {
  const auto totals = SelfSeconds(spans);
  const auto self = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  };
  const LayerCounters& c = r.layer;
  const double records = static_cast<double>(r.records);
  std::map<std::string, double> m;
  m["optimizer.stats_s"] = self("optimizer.stats");
  m["optimizer.select_s"] = self("optimizer.select");
  m["optimizer.compile_s"] = self("optimizer.compile");
  m["optimizer.candidates"] = static_cast<double>(c.plan.num_candidates);
  m["optimizer.pushed"] = static_cast<double>(c.pushed);
  m["optimizer.gain_evals"] = static_cast<double>(c.plan.gain_evaluations);

  const double filter_s = self("client.filter") + c.boundary.fleet_prefilter_s;
  m["client.filter_s"] = filter_s;
  m["client.us_per_record"] = Ratio(filter_s * 1e6, records);
  m["client.bytes_scanned"] = static_cast<double>(c.boundary.client_bytes);
  m["client.bits_set_ratio"] =
      Ratio(static_cast<double>(c.boundary.bits_set),
            static_cast<double>(c.boundary.bits_evaluated));

  m["transport.encode_s"] = self("transport.encode");
  m["transport.decode_s"] = self("transport.decode");
  m["transport.send_wait_s"] = self("transport.send");
  m["transport.bytes_per_record"] =
      Ratio(static_cast<double>(c.boundary.payload_bytes), records);

  m["partial_loader.ingest_s"] = self("partial_loader.ingest");
  m["partial_loader.parse_s"] = c.load.parse_seconds;
  m["partial_loader.encode_s"] = c.load.encode_seconds;
  m["partial_loader.records_parsed"] =
      static_cast<double>(c.load.records_loaded);
  m["partial_loader.load_ratio"] = c.load.LoadingRatio();
  m["partial_loader.completion_s"] = c.load.completion_seconds;

  m["wal.append_s"] = self("wal.append");
  m["wal.bytes_per_input_byte"] =
      Ratio(static_cast<double>(c.boundary.wal_bytes),
            static_cast<double>(r.input_bytes));
  // Durability barriers: appends the flush policy fsyncs, plus one
  // manifest commit per checkpoint.
  m["wal.fsyncs"] = static_cast<double>(
      (config.storage.wal_sync ? c.boundary.wal_appends : 0) + c.checkpoints);

  m["segment_store.segments_spilled"] =
      static_cast<double>(r.counts.segments_spilled);
  m["segment_store.checkpoints"] = static_cast<double>(c.checkpoints);
  m["segment_store.checkpoint_s"] = self("segment_store.checkpoint");
  m["segment_store.compact_s"] = self("segment_store.compact");
  m["segment_store.disk_bytes"] = static_cast<double>(c.disk_bytes);

  m["segment_file.pins"] = static_cast<double>(c.pins);
  m["segment_file.maps"] = static_cast<double>(c.scan.segments_mapped);
  m["segment_file.hit_ratio"] =
      c.pins == 0 ? 0.0
                  : 1.0 - Ratio(static_cast<double>(c.scan.segments_mapped),
                                static_cast<double>(c.pins));
  m["segment_file.bytes_mapped"] = static_cast<double>(c.scan.bytes_mapped);

  const ScanStats& s = c.scan;
  m["engine.execute_s"] = self("engine.execute");
  m["engine.groups_considered"] = static_cast<double>(s.groups_considered);
  m["engine.groups_skipped_ratio"] =
      Ratio(static_cast<double>(s.groups_skipped + s.groups_skipped_zonemap),
            static_cast<double>(s.groups_considered));
  m["engine.groups_counted_exact"] =
      static_cast<double>(s.groups_counted_exact);
  m["engine.rows_decoded"] = static_cast<double>(s.rows_decoded);
  m["engine.rows_matched_per_decoded"] =
      Ratio(static_cast<double>(c.result_rows),
            static_cast<double>(s.rows_decoded));
  m["engine.bytes_decoded"] = static_cast<double>(s.bytes_decoded);
  m["engine.decode_waste_ratio"] =
      Ratio(static_cast<double>(s.bytes_decode_waste),
            static_cast<double>(s.bytes_decoded));
  m["engine.raw_scanned"] = static_cast<double>(s.raw_records_scanned);
  m["engine.raw_screened_out"] =
      static_cast<double>(s.raw_records_screened_out);

  m["replan.installed"] = static_cast<double>(r.counts.replans);
  m["replan.s"] = self("replan.check");
  m["replan.backfill_rows"] =
      static_cast<double>(c.backfill.rows_reannotated);
  m["replan.backfill_s"] = c.backfill.seconds;

  m["relayout.s"] = self("relayout.force");
  m["relayout.rows_moved"] = static_cast<double>(c.relayout.rows_moved);
  m["relayout.column_groups"] =
      static_cast<double>(c.relayout.column_groups);

  m["jit_loader.promoted"] = static_cast<double>(c.promotion.promoted);
  m["jit_loader.screened_out"] =
      static_cast<double>(c.promotion.screened_out);
  m["jit_loader.s"] = self("jit_loader.promote");

  m["recovery.wal_batches"] = static_cast<double>(c.recovered_wal_batches);
  m["recovery.replay_s"] = self("recovery.store_open");

  m["rewrite.s"] = r.rewrite_s;
  m["recovery.s"] = r.recovery_s;
  m["trace.closure"] = Closure(spans);
  return m;
}

const char* UnitOf(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_s") || name == "replan.s" || name == "relayout.s" ||
      name == "rewrite.s" || name == "recovery.s" || name == "jit_loader.s") {
    return "s";
  }
  if (ends("us_per_record")) return "us/record";
  if (ends("bytes_per_record")) return "bytes/record";
  if (ends("_ratio") || ends("per_input_byte") || ends("per_decoded") ||
      name == "trace.closure" || name == "trace.overhead") {
    return "ratio";
  }
  if (ends("_bytes") || ends("bytes_scanned") || ends("bytes_mapped") ||
      ends("bytes_decoded")) {
    return "bytes";
  }
  return "count";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// main

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(o->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o->trace = val == "1";
    } else if (key == "--work-dir") {
      o->work_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty();
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  const WorkloadDef* def = FindWorkload(opt.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  // A hardware profile changes kernel dispatch and cost-model seeding, so
  // a run under one would not be comparable with a run without.
  if (const char* profile = std::getenv("CIAO_PROFILE");
      profile != nullptr && *profile != '\0') {
    std::fprintf(stderr, "refusing to run with CIAO_PROFILE set\n");
    return 2;
  }

  // The planning sample is drawn once, from a fixed seed, like an offline
  // sample of historical data: the optimizer then makes the same choice
  // for every seed instead of flipping near-ties on sampling noise.
  workload::GeneratorOptions sample_gen;
  sample_gen.num_records = CiaoConfig().sample_size;
  sample_gen.seed = kSampleSeed;
  const auto sample = std::make_shared<const std::vector<std::string>>(
      workload::GenerateDataset(def->kind, sample_gen).records);
  // The datasets and their reference answers are built before any timing
  // (which also warms the parse, load and full-scan paths).
  std::vector<Inputs> datasets;
  for (uint64_t k = 0; k < kDatasetsPerRun; ++k) {
    datasets.push_back(
        MakeInputs(*def, opt.seed * kDatasetsPerRun + k, sample));
    if (const Status st = BuildReference(&datasets.back()); !st.ok()) {
      std::fprintf(stderr, "reference failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const uint64_t mapping_budget = std::max<uint64_t>(
      datasets[0].reference_columnar_bytes / kMappingBudgetDivisor, 64 << 10);
  const std::string run_dir =
      opt.work_dir + "/" + def->name + "-" + std::to_string(opt.seed) + "-" +
      std::to_string(::getpid());
  const auto context = [&](uint64_t round, Tracer* tracer) {
    RoundContext ctx;
    ctx.def = def;
    ctx.in = &datasets[round % kDatasetsPerRun];
    ctx.mapping_budget = mapping_budget;
    ctx.dir = run_dir + "/round";
    ctx.tracer = tracer;
    return ctx;
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::optional<ExactCounts>> expected(kDatasetsPerRun);
  // Every round of one dataset, facade or replica, must repeat the exact
  // counts of the first.
  const auto account = [&](const RoundResult& r, uint64_t round,
                           const char* what) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    std::optional<ExactCounts>& want = expected[round % kDatasetsPerRun];
    if (!want.has_value()) {
      want = r.counts;
    } else if (!(r.counts == *want)) {
      ++failed;
      errors.push_back(std::string(what) + " exact counts differ: " +
                       r.counts.Summary() + " vs " + want->Summary());
    }
  };

  // On the VM measured in README.md the vCPUs ran at different speeds (up
  // to about a quarter apart), and a single-threaded process stayed on one
  // of them for a whole run, so whole runs came out fast or slow. The
  // single-threaded workloads therefore move to the next allowed CPU every
  // round, and each run samples every CPU alike. winlog_durable runs three
  // threads (bound together they would share one CPU), so it is left to
  // the scheduler.
  const std::vector<int> cpus = AllowedCpus();
  uint64_t rounds_started = 0;
  const auto next_round = [&](uint64_t round, Tracer* tracer) {
    if (!def->durable && !cpus.empty()) {
      BindToCpu(cpus[rounds_started % cpus.size()]);
    }
    ++rounds_started;
    return RunRound(context(round, tracer));
  };

  // Warm-up: one untimed round so code paths, allocator arenas and the
  // page cache are warm before the clock starts.
  account(next_round(0, nullptr), 0, "warm-up");

  std::vector<RoundResult> timed;   // facade rounds
  std::vector<RoundResult> traced;  // replica rounds (--trace 1)
  std::vector<std::vector<Span>> trace_sets;
  Stopwatch run;
  uint64_t round = 0;
  do {
    RoundResult r = next_round(round, nullptr);
    account(r, round, "round");
    timed.push_back(std::move(r));
    if (opt.trace) {
      // Same dataset as the facade round just run, so answers, counts and
      // wall time compare one to one.
      Tracer tracer;
      RoundResult t = next_round(round, &tracer);
      account(t, round, "traced round");
      trace_sets.push_back(tracer.spans());
      traced.push_back(std::move(t));
    }
    ++round;
  } while (run.ElapsedSeconds() < opt.seconds);
  std::error_code ec;
  fs::remove_all(run_dir, ec);

  const CiaoConfig config = MakeConfig(*def, mapping_budget, "");
  const Inputs& in = datasets[0];
  std::printf("workload %s seed %llu: %llu datasets of %zu records (%.1f MB "
              "raw, %zu batches of %zu), %zu queries (%zu distinct), budget "
              "%.1f us/record\n",
              def->name, (unsigned long long)opt.seed,
              (unsigned long long)kDatasetsPerRun, def->records,
              in.input_bytes / 1048576.0, in.batches.size(),
              def->batch_records, in.stream.size(), in.distinct.size(),
              def->budget_us);
  std::printf("sizes (dataset 0): raw_bytes=%llu reference_columnar_bytes=%llu "
              "mapping_cache_budget_bytes=%llu\n",
              (unsigned long long)in.input_bytes,
              (unsigned long long)in.reference_columnar_bytes,
              (unsigned long long)config.storage.memory_budget_bytes);
  std::printf("rounds: %zu timed, %zu traced, run %.1f s\n", timed.size(),
              traced.size(), run.ElapsedSeconds());
  for (uint64_t k = 0; k < kDatasetsPerRun; ++k) {
    if (expected[k].has_value()) {
      std::printf("exact counts, dataset %llu: %s\n", (unsigned long long)k,
                  expected[k]->Summary().c_str());
    }
  }
  for (const std::string& e : errors) std::printf("FAIL: %s\n", e.c_str());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    AddEndToEnd(timed, &metrics);
  } else {
    std::map<std::string, std::vector<double>> per_round;
    for (size_t i = 0; i < traced.size(); ++i) {
      for (const auto& [name, value] :
           LayerMetrics(traced[i], trace_sets[i], config)) {
        per_round[name].push_back(value);
      }
    }
    for (const auto& [name, values] : per_round) {
      metrics.push_back({name, Median(values), UnitOf(name)});
    }
    std::vector<double> traced_wall, untraced_wall;
    for (const RoundResult& r : traced) traced_wall.push_back(r.EndToEnd());
    for (const RoundResult& r : timed) untraced_wall.push_back(r.EndToEnd());
    metrics.push_back({"trace.overhead",
                       Ratio(Median(traced_wall), Median(untraced_wall)) - 1.0,
                       "ratio"});
    const std::string spans_path = opt.work_dir + "/spans-" + def->name +
                                   "-" + std::to_string(opt.seed) + ".json";
    fs::create_directories(opt.work_dir, ec);
    if (WriteChromeTrace(trace_sets, spans_path)) {
      std::printf("spans: %s\n", spans_path.c_str());
    }
    // Per-layer self time, summed over every traced round.
    std::map<std::string, double> layer_self;
    double wall = 0.0;
    for (size_t i = 0; i < trace_sets.size(); ++i) {
      for (const auto& [name, t] : SelfSeconds(trace_sets[i])) {
        layer_self[name.substr(0, name.find('.'))] += t;
      }
      wall += traced[i].EndToEnd();
    }
    std::printf("per-layer self time over %zu traced rounds:\n",
                trace_sets.size());
    for (const auto& [layer, s] : layer_self) {
      std::printf("  %-16s %10.4f s  %6.1f%%\n", layer.c_str(), s,
                  100.0 * Ratio(s, wall));
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ciao::perfbench

int main(int argc, char** argv) { return ciao::perfbench::Main(argc, argv); }
