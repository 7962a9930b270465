// The paper's core premise, measured directly: evaluating a predicate by
// substring matching on the raw record is an order of magnitude cheaper
// than parsing the record (let alone parse + convert + load). This is
// why shipping pattern strings to clients is viable where shipping a
// parser is not (§I, §IV).

#include <benchmark/benchmark.h>

#include "bench_gbench_main.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "json/parser.h"
#include "matcher/compiled_pattern.h"
#include "predicate/pattern_compiler.h"
#include "predicate/semantic_eval.h"
#include "workload/dataset.h"

namespace {

using namespace ciao;

const workload::Dataset& Data() {
  static const auto* ds = [] {
    workload::GeneratorOptions gen;
    gen.num_records = 2000;
    gen.seed = 9;
    return new workload::Dataset(workload::GenerateYelp(gen));
  }();
  return *ds;
}

const workload::Dataset& WinLogData() {
  static const auto* ds = [] {
    workload::GeneratorOptions gen;
    gen.num_records = 2000;
    gen.seed = 9;
    return new workload::Dataset(workload::GenerateWinLog(gen));
  }();
  return *ds;
}

const workload::Dataset& YcsbData() {
  static const auto* ds = [] {
    workload::GeneratorOptions gen;
    gen.num_records = 2000;
    gen.seed = 9;
    return new workload::Dataset(workload::GenerateYcsb(gen));
  }();
  return *ds;
}

// (a) Raw prefilter: one substring predicate per record.
void BM_RawPrefilter(benchmark::State& state) {
  const auto& ds = Data();
  auto program = RawClauseProgram::Compile(
      Clause::Of(SimplePredicate::Substring("text", "delicious")));
  size_t hits = 0;
  for (auto _ : state) {
    for (const std::string& r : ds.records) {
      if (program->Matches(r)) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(BM_RawPrefilter);

// (b) Full parse + semantic evaluation (what raw-format query processing
// pays per record).
void BM_ParseAndEvaluate(benchmark::State& state) {
  const auto& ds = Data();
  const SimplePredicate pred = SimplePredicate::Substring("text", "delicious");
  size_t hits = 0;
  for (auto _ : state) {
    for (const std::string& r : ds.records) {
      auto v = json::Parse(r);
      if (v.ok() && EvaluateSimple(pred, *v)) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(BM_ParseAndEvaluate);

// (c) Full load: parse + type conversion into columnar form (what the
// server pays for every loaded record), on the DOM oracle path.
void BM_ParseAndConvert(benchmark::State& state) {
  const auto& ds = Data();
  for (auto _ : state) {
    columnar::BatchBuilder builder(ds.schema);
    for (const std::string& r : ds.records) {
      const Result<json::Value> parsed = json::Parse(r);
      if (parsed.ok()) builder.AppendParsed(*parsed);
      benchmark::DoNotOptimize(parsed.ok());
    }
    benchmark::DoNotOptimize(builder.Finish());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(BM_ParseAndConvert);

// (d) Same full load on the default tape path: single-pass scan,
// schema-driven extraction, no DOM — the loader's actual cost per
// relevant record.
void BM_TapeConvert(benchmark::State& state, const workload::Dataset& ds) {
  for (auto _ : state) {
    columnar::BatchBuilder builder(ds.schema);
    for (const std::string& r : ds.records) {
      benchmark::DoNotOptimize(builder.AppendSerialized(r).ok());
    }
    benchmark::DoNotOptimize(builder.Finish());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.records.size()));
}
void BM_TapeConvert(benchmark::State& state) { BM_TapeConvert(state, Data()); }
BENCHMARK(BM_TapeConvert);
BENCHMARK_CAPTURE(BM_TapeConvert, ycsb, YcsbData());

// (e) One ingest chunk end to end on the server: parse and convert 500
// records, then encode them into a table file (the partial loader's
// per-chunk work, without the WAL and the catalog).
void BM_LoadChunk(benchmark::State& state, const workload::Dataset& ds) {
  const size_t records = 500;
  for (auto _ : state) {
    columnar::BatchBuilder builder(ds.schema);
    for (size_t i = 0; i < records; ++i) {
      benchmark::DoNotOptimize(builder.AppendSerialized(ds.records[i]).ok());
    }
    columnar::TableWriter writer(ds.schema);
    benchmark::DoNotOptimize(
        writer.AppendRowGroup(builder.Finish(), BitVectorSet()).ok());
    const std::string file = std::move(writer).Finish();
    benchmark::DoNotOptimize(file.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK_CAPTURE(BM_LoadChunk, ycsb, YcsbData());

// (f) Building the converter alone. Ingest builds one per chunk, every
// rewrite one per output and the sideline scan one per query, so the
// schema's key map must stay cheap to build.
void BM_BatchBuilderConstruct(benchmark::State& state,
                              const workload::Dataset& ds) {
  for (auto _ : state) {
    columnar::BatchBuilder builder(ds.schema);
    benchmark::DoNotOptimize(&builder);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_BatchBuilderConstruct, winlog, WinLogData());
BENCHMARK_CAPTURE(BM_BatchBuilderConstruct, ycsb, YcsbData());

}  // namespace

CIAO_BENCH_JSON_MAIN("bench_micro_parse_vs_filter")
