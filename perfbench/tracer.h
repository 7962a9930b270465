#ifndef CIAO_PERFBENCH_TRACER_H_
#define CIAO_PERFBENCH_TRACER_H_

// In-memory span recorder for the traced mode, in the shape of sel4's
// BENCH_UTILS_START/END: a span is opened before a call into a layer and
// closed after it, nothing is written until the run ends. Each span keeps
// its name ("<layer>.<call>"), start, end, parent span and request id, so
// a layer's self time (span minus the part its children cover) can be
// derived afterwards.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ciao::perfbench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = no parent (a root)
  uint64_t request = 0;  // batch / query / phase the span serves
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;   // small per-tracer thread index

  std::string Layer() const { return name.substr(0, name.find('.')); }
};

/// Thread-safe span sink. Spans opened on one thread nest through a
/// thread-local stack; a span opened on another thread (a loader or a
/// fleet worker) names its parent explicitly.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span. `parent` 0 = the innermost span open on this thread.
  uint64_t Begin(const char* name, uint64_t request, uint64_t parent = 0);
  void End(uint64_t id);

  /// Innermost span open on the calling thread (0 if none).
  static uint64_t Current();

  std::vector<Span> spans() const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  uint32_t ThreadIndex();

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Span> open_;
  std::vector<Span> closed_;
  std::map<std::thread::id, uint32_t> threads_;
};

/// RAII span: BENCH_UTILS_START on construction, BENCH_UTILS_END on scope
/// exit. A null tracer makes it a no-op, so traced and untraced code paths
/// share one body.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint64_t parent = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Writes span sets as one Chrome trace-event JSON file (loadable in
/// chrome://tracing or Perfetto), set i as process i; ids, parents and
/// requests ride in "args".
bool WriteChromeTrace(const std::vector<std::vector<Span>>& sets,
                      const std::string& path);

/// Self seconds per span name: each span's duration minus the union of
/// its children's intervals (clipped to the span), summed over the set.
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans);

/// Share of the wall time under the benchmark's own spans (layer "bench")
/// during which at least one program-layer span was open: how much of the
/// traced wall time the layer self times account for.
double Closure(const std::vector<Span>& spans);

}  // namespace ciao::perfbench

#endif  // CIAO_PERFBENCH_TRACER_H_
