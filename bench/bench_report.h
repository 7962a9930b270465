#ifndef CIAO_BENCH_BENCH_REPORT_H_
#define CIAO_BENCH_BENCH_REPORT_H_

// Machine-readable bench regression harness. Every hot-path bench merges
// its results into one JSON file (default BENCH_hotpath.json beside the
// running executable, e.g. build/bench/ for the benches; overridable via
// CIAO_BENCH_JSON) keyed by "<binary>/<benchmark>", so successive PRs
// build a before/after trajectory a script — or CI — can diff without
// scraping console text. Running a bench from the repository root thus
// never rewrites the checked-in BENCH_hotpath.json; refresh that file by
// pointing CIAO_BENCH_JSON at it.
//
// File shape:
//   {
//     "schema": "ciao-bench-hotpath-v1",
//     "entries":  { "<binary>/<bench>": {"items_per_second": ..., ...} },
//     "baseline": { same shape, embedded from CIAO_BENCH_BASELINE }
//   }
//
// The optional CIAO_BENCH_BASELINE env var names a checked-in snapshot
// (bench/baselines/hotpath_baseline.json) whose "entries" are embedded
// verbatim as "baseline", putting both numbers in one artifact.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "json/parser.h"
#include "json/value.h"
#include "json/writer.h"

namespace ciao::bench {

/// Metric map of one benchmark run (name -> value).
using BenchMetrics = std::map<std::string, double>;

/// Path of the merged report file: CIAO_BENCH_JSON when set, else
/// BENCH_hotpath.json in the directory of the running executable
/// (/proc/self/exe). Where that link cannot be read, the working
/// directory.
inline std::string ReportPath() {
  const char* env = std::getenv("CIAO_BENCH_JSON");
  if (env != nullptr && *env != '\0') return env;
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec || exe.empty()) return "BENCH_hotpath.json";
  return (exe.parent_path() / "BENCH_hotpath.json").string();
}

/// Reads a whole file; empty string when missing/unreadable.
inline std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Merges `entries` into the shared report file: existing entries from
/// other bench binaries are preserved, same-key entries are overwritten,
/// and the checked-in baseline snapshot (CIAO_BENCH_BASELINE) is embedded
/// when present. A build with assertions (NDEBUG undefined) prints the
/// cells and writes nothing: its numbers are not comparable with the
/// Release cells the report holds.
inline void MergeIntoReportFile(
    const std::map<std::string, BenchMetrics>& entries) {
#ifndef NDEBUG
  for (const auto& [key, metrics] : entries) {
    std::printf("%s:", key.c_str());
    for (const auto& [name, v] : metrics) {
      std::printf(" %s=%g", name.c_str(), v);
    }
    std::printf("\n");
  }
  std::fprintf(stderr,
               "bench_report: not writing %s: assertions are enabled "
               "(NDEBUG undefined), so these numbers are not comparable "
               "with Release cells; rebuild with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               ReportPath().c_str());
  return;
#endif
  // Start from the existing report so the four hot-path benches, run as
  // separate binaries, accumulate into one file.
  std::map<std::string, BenchMetrics> merged;
  const std::string existing = ReadFileOrEmpty(ReportPath());
  if (!existing.empty()) {
    Result<json::Value> parsed = json::Parse(existing);
    if (parsed.ok() && parsed->is_object()) {
      if (const json::Value* old = parsed->Find("entries");
          old != nullptr && old->is_object()) {
        for (const auto& [key, metrics] : old->as_object()) {
          if (!metrics.is_object()) continue;
          BenchMetrics& slot = merged[key];
          for (const auto& [name, v] : metrics.as_object()) {
            if (v.is_number()) slot[name] = v.AsNumber();
          }
        }
      }
    }
  }
  for (const auto& [key, metrics] : entries) merged[key] = metrics;

  json::Value root{json::Object{}};
  root.Add("schema", json::Value("ciao-bench-hotpath-v1"));
  json::Value entries_obj{json::Object{}};
  for (const auto& [key, metrics] : merged) {
    json::Value m{json::Object{}};
    for (const auto& [name, v] : metrics) m.Add(name, json::Value(v));
    entries_obj.Add(key, std::move(m));
  }
  root.Add("entries", std::move(entries_obj));

  if (const char* baseline_path = std::getenv("CIAO_BENCH_BASELINE");
      baseline_path != nullptr && *baseline_path != '\0') {
    const std::string baseline_text = ReadFileOrEmpty(baseline_path);
    if (!baseline_text.empty()) {
      Result<json::Value> baseline = json::Parse(baseline_text);
      if (baseline.ok() && baseline->is_object()) {
        if (const json::Value* b = baseline->Find("entries");
            b != nullptr && b->is_object()) {
          root.Add("baseline", *b);
        }
      }
    }
  }

  std::ofstream out(ReportPath(), std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n",
                 ReportPath().c_str());
    return;
  }
  out << json::Write(root) << "\n";
}

/// Allocation counter shared with the replaced global operator new (see
/// CIAO_BENCH_DEFINE_ALLOC_COUNTER). Zero when not instrumented.
inline std::atomic<uint64_t>& AllocCount() {
  static std::atomic<uint64_t> count{0};
  return count;
}

}  // namespace ciao::bench

/// Replaces the global allocator of a bench binary with a counting
/// forwarder so benches can report allocations-per-record — the
/// zero-allocation claim of the tape hot path, measured rather than
/// asserted. Expand exactly once, at namespace scope, in the bench's .cc.
#define CIAO_BENCH_DEFINE_ALLOC_COUNTER()                                   \
  void* operator new(std::size_t size) {                                    \
    ciao::bench::AllocCount().fetch_add(1, std::memory_order_relaxed);      \
    if (void* p = std::malloc(size)) return p;                              \
    throw std::bad_alloc();                                                 \
  }                                                                         \
  void* operator new[](std::size_t size) {                                  \
    ciao::bench::AllocCount().fetch_add(1, std::memory_order_relaxed);      \
    if (void* p = std::malloc(size)) return p;                              \
    throw std::bad_alloc();                                                 \
  }                                                                         \
  void operator delete(void* p) noexcept { std::free(p); }                  \
  void operator delete[](void* p) noexcept { std::free(p); }                \
  void operator delete(void* p, std::size_t) noexcept { std::free(p); }     \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // CIAO_BENCH_BENCH_REPORT_H_
