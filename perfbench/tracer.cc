#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <utility>

namespace ciao::perfbench {

namespace {

thread_local std::vector<uint64_t> t_open_stack;

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
ChildIntervals(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> out;
  for (const Span& s : spans) {
    if (s.parent != 0) out[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  return out;
}

}  // namespace

uint32_t Tracer::ThreadIndex() {
  const auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<uint32_t>(threads_.size()));
  (void)inserted;
  return it->second;
}

uint64_t Tracer::Begin(const char* name, uint64_t request, uint64_t parent) {
  if (parent == 0 && !t_open_stack.empty()) parent = t_open_stack.back();
  const int64_t now = NowNs();
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    Span& span = open_[id];
    span.name = name;
    span.id = id;
    span.parent = parent;
    span.request = request;
    span.start_ns = now;
    span.thread = ThreadIndex();
  }
  t_open_stack.push_back(id);
  return id;
}

void Tracer::End(uint64_t id) {
  const int64_t now = NowNs();
  if (!t_open_stack.empty() && t_open_stack.back() == id) {
    t_open_stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end_ns = now;
  closed_.push_back(std::move(it->second));
  open_.erase(it);
}

uint64_t Tracer::Current() {
  return t_open_stack.empty() ? 0 : t_open_stack.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

bool WriteChromeTrace(const std::vector<std::vector<Span>>& sets,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  const char* sep = "";
  for (size_t set = 0; set < sets.size(); ++set) {
    for (const Span& s : sets[set]) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":%zu,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu}}",
                   sep, s.name.c_str(), s.Layer().c_str(), set, s.thread,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans) {
  const auto children = ChildIntervals(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = CoveredNs(it->second, s.start_ns, s.end_ns);
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return out;
}

double Closure(const std::vector<Span>& spans) {
  std::vector<std::pair<int64_t, int64_t>> roots;
  std::vector<std::pair<int64_t, int64_t>> layers;
  for (const Span& s : spans) {
    if (s.Layer() != "bench") {
      layers.emplace_back(s.start_ns, s.end_ns);
    } else if (s.parent == 0) {
      roots.emplace_back(s.start_ns, s.end_ns);
    }
  }
  int64_t wall = 0;
  int64_t covered = 0;
  for (const auto& [start, end] : roots) {
    wall += end - start;
    covered += CoveredNs(layers, start, end);
  }
  return wall > 0 ? static_cast<double>(covered) / static_cast<double>(wall)
                  : 0.0;
}

}  // namespace ciao::perfbench
