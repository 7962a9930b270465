// Micro: columnar codec throughput — encode and decode per column type,
// plus dictionary vs plain strings (the server-side loading/scan costs) —
// and the CRC-32 that verifies every row group and mapped segment file.

#include <benchmark/benchmark.h>

#include "bench_gbench_main.h"
#include "columnar/encoding.h"
#include "common/crc32.h"
#include "common/random.h"

namespace {

using namespace ciao;
using columnar::ColumnType;
using columnar::ColumnVector;

/// `rows` random values; strings are `prefix` plus one of `distinct`
/// numbers.
ColumnVector MakeColumn(ColumnType type, size_t rows, size_t distinct,
                        std::string_view prefix = "value_") {
  Rng rng(11);
  ColumnVector col(type);
  for (size_t i = 0; i < rows; ++i) {
    switch (type) {
      case ColumnType::kInt64:
        col.AppendInt64(rng.NextInt(-1000000, 1000000));
        break;
      case ColumnType::kDouble:
        col.AppendDouble(rng.NextDouble());
        break;
      case ColumnType::kBool:
        col.AppendBool(rng.NextBool());
        break;
      case ColumnType::kString:
        col.AppendString(std::string(prefix) +
                         std::to_string(rng.NextBounded(distinct)));
        break;
    }
  }
  return col;
}

void BM_Encode(benchmark::State& state, ColumnType type, size_t distinct,
               std::string_view prefix = "value_") {
  const size_t rows = 100000;
  const ColumnVector col = MakeColumn(type, rows, distinct, prefix);
  for (auto _ : state) {
    std::string buf;
    columnar::EncodeColumn(col, &buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}

void BM_Decode(benchmark::State& state, ColumnType type, size_t distinct) {
  const size_t rows = 100000;
  const ColumnVector col = MakeColumn(type, rows, distinct);
  std::string buf;
  columnar::EncodeColumn(col, &buf);
  state.counters["encoded_bytes"] = static_cast<double>(buf.size());
  for (auto _ : state) {
    size_t offset = 0;
    benchmark::DoNotOptimize(columnar::DecodeColumn(buf, &offset));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}

/// CRC-32 over `range(0)` random bytes: 4 KiB is about one row group,
/// 128 KiB about one spilled segment file verified at map time.
void BM_Crc32(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  Rng rng(13);
  std::string buf(bytes, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Encode, int64, ColumnType::kInt64, 0);
BENCHMARK_CAPTURE(BM_Encode, double, ColumnType::kDouble, 0);
BENCHMARK_CAPTURE(BM_Encode, bool, ColumnType::kBool, 0);
BENCHMARK_CAPTURE(BM_Encode, string_dict, ColumnType::kString, 8);
BENCHMARK_CAPTURE(BM_Encode, string_plain, ColumnType::kString, 1000000);
// ~19,900 distinct values: a dictionary with 2-byte codes.
BENCHMARK_CAPTURE(BM_Encode, string_dict_wide, ColumnType::kString, 20000);
// ~51,000 distinct values behind a 45-byte shared prefix: just over half
// the rows, so plain is decided late, near row 95,000.
BENCHMARK_CAPTURE(BM_Encode, string_url, ColumnType::kString, 65000,
                  "https://www.example.com/api/v2/catalog/items/");
BENCHMARK_CAPTURE(BM_Decode, int64, ColumnType::kInt64, 0);
BENCHMARK_CAPTURE(BM_Decode, double, ColumnType::kDouble, 0);
BENCHMARK_CAPTURE(BM_Decode, bool, ColumnType::kBool, 0);
BENCHMARK_CAPTURE(BM_Decode, string_dict, ColumnType::kString, 8);
BENCHMARK_CAPTURE(BM_Decode, string_plain, ColumnType::kString, 1000000);
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(128 << 10);

CIAO_BENCH_JSON_MAIN("bench_micro_columnar")
