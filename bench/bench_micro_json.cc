// Micro: JSON parser and writer throughput on realistic records — the
// dominant cost of eager loading (paper §I: parsing/validation is the
// bottleneck CIAO avoids for irrelevant records). BM_Parse is the DOM
// oracle; BM_TapeParse is the zero-allocation tape hot path the loader
// uses, with allocations-per-record measured by a counting allocator.
// BM_ChunkMessageDecode is the server's transport decode of one ingest
// message, which frames the NDJSON payload into records.

#include <benchmark/benchmark.h>

#include <map>
#include <new>

#include "bench_gbench_main.h"
#include "json/parser.h"
#include "json/tape_parser.h"
#include "json/writer.h"
#include "storage/transport.h"
#include "workload/dataset.h"

CIAO_BENCH_DEFINE_ALLOC_COUNTER()

namespace {

using namespace ciao;

const workload::Dataset& Data(workload::DatasetKind kind) {
  static auto* cache =
      new std::map<workload::DatasetKind, workload::Dataset>();
  auto it = cache->find(kind);
  if (it == cache->end()) {
    workload::GeneratorOptions gen;
    gen.num_records = 1000;
    gen.seed = 3;
    it = cache->emplace(kind, workload::GenerateDataset(kind, gen)).first;
  }
  return it->second;
}

void BM_Parse(benchmark::State& state, workload::DatasetKind kind) {
  const auto& ds = Data(kind);
  uint64_t bytes = 0;
  for (const auto& r : ds.records) bytes += r.size();
  const uint64_t allocs_before = bench::AllocCount().load();
  for (auto _ : state) {
    for (const std::string& r : ds.records) {
      benchmark::DoNotOptimize(json::Parse(r));
    }
  }
  const uint64_t allocs = bench::AllocCount().load() - allocs_before;
  const int64_t items =
      state.iterations() * static_cast<int64_t>(ds.records.size());
  state.SetItemsProcessed(items);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["allocs_per_record"] =
      items > 0 ? static_cast<double>(allocs) / static_cast<double>(items)
                : 0.0;
}

void BM_TapeParse(benchmark::State& state, workload::DatasetKind kind) {
  const auto& ds = Data(kind);
  uint64_t bytes = 0;
  for (const auto& r : ds.records) bytes += r.size();
  json::TapeParser parser;
  json::Tape tape;
  const uint64_t allocs_before = bench::AllocCount().load();
  for (auto _ : state) {
    for (const std::string& r : ds.records) {
      benchmark::DoNotOptimize(parser.Parse(r, &tape).ok());
    }
  }
  const uint64_t allocs = bench::AllocCount().load() - allocs_before;
  const int64_t items =
      state.iterations() * static_cast<int64_t>(ds.records.size());
  state.SetItemsProcessed(items);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["allocs_per_record"] =
      items > 0 ? static_cast<double>(allocs) / static_cast<double>(items)
                : 0.0;
}

void BM_WriteRoundTrip(benchmark::State& state, workload::DatasetKind kind) {
  const auto& ds = Data(kind);
  std::vector<json::Value> parsed;
  for (const auto& r : ds.records) parsed.push_back(*json::Parse(r));
  for (auto _ : state) {
    std::string out;
    for (const json::Value& v : parsed) {
      out.clear();
      json::WriteTo(v, &out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(parsed.size()));
}

// One 500-record CMG2 message without predicates, as a budget-0 client
// sends it: the decode copies the payload and finds the record
// boundaries.
void BM_ChunkMessageDecode(benchmark::State& state,
                           workload::DatasetKind kind) {
  const auto& ds = Data(kind);
  const size_t records = 500;
  ChunkMessage msg;
  for (size_t i = 0; i < records; ++i) {
    msg.chunk.AppendSerialized(ds.records[i]);
  }
  std::string wire;
  msg.SerializeTo(&wire);
  for (auto _ : state) {
    Result<ChunkMessage> decoded = ChunkMessage::Deserialize(wire);
    benchmark::DoNotOptimize(decoded.ok());
    benchmark::DoNotOptimize(decoded->chunk.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Parse, winlog, ciao::workload::DatasetKind::kWinLog);
BENCHMARK_CAPTURE(BM_Parse, yelp, ciao::workload::DatasetKind::kYelp);
BENCHMARK_CAPTURE(BM_Parse, ycsb, ciao::workload::DatasetKind::kYcsb);
BENCHMARK_CAPTURE(BM_TapeParse, winlog, ciao::workload::DatasetKind::kWinLog);
BENCHMARK_CAPTURE(BM_TapeParse, yelp, ciao::workload::DatasetKind::kYelp);
BENCHMARK_CAPTURE(BM_TapeParse, ycsb, ciao::workload::DatasetKind::kYcsb);
BENCHMARK_CAPTURE(BM_WriteRoundTrip, yelp,
                  ciao::workload::DatasetKind::kYelp);
BENCHMARK_CAPTURE(BM_ChunkMessageDecode, ycsb,
                  ciao::workload::DatasetKind::kYcsb);

CIAO_BENCH_JSON_MAIN("bench_micro_json")
