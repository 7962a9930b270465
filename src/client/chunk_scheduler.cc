#include "client/chunk_scheduler.h"

namespace ciao {

ChunkScheduler::ChunkScheduler(size_t num_workers, bool work_stealing)
    : work_stealing_(work_stealing),
      deques_(num_workers == 0 ? 1 : num_workers),
      failed_(deques_.size(), false) {}

void ChunkScheduler::Push(size_t worker, const ChunkTask& task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    deques_[worker].push_back(task);
    ++pending_;
  }
  // Any worker might be able to take it (steal), so wake them all.
  work_cv_.notify_all();
}

void ChunkScheduler::AddProducers(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  producers_ += n;
}

void ChunkScheduler::ProducerDone() {
  bool released = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (producers_ > 0) --producers_;
    released = producers_ == 0;
  }
  if (released) work_cv_.notify_all();
}

void ChunkScheduler::Requeue(size_t worker, const ChunkTask& task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Pending already counts this task (Next does not decrement); only
    // the deque placement is restored.
    deques_[worker].push_back(task);
  }
  work_cv_.notify_all();
}

bool ChunkScheduler::AvailableFor(size_t worker) const {
  if (!failed_[worker] && !deques_[worker].empty()) return true;
  for (size_t v = 0; v < deques_.size(); ++v) {
    if (v == worker || deques_[v].empty()) continue;
    if (work_stealing_ || failed_[v]) return true;
  }
  return false;
}

std::optional<ChunkTask> ChunkScheduler::Next(size_t worker, bool* stolen) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (closed_) return std::nullopt;
    // A failed worker gets nothing — not even its own deque; its share
    // is reachable only through other workers.
    if (failed_[worker]) return std::nullopt;
    if (!deques_[worker].empty()) {
      const ChunkTask task = deques_[worker].front();
      deques_[worker].pop_front();
      if (stolen != nullptr) *stolen = false;
      return task;
    }
    // Steal from the back of the longest eligible victim deque: the back
    // holds the chunks the victim is furthest from reaching itself.
    size_t victim = deques_.size();
    size_t victim_size = 0;
    for (size_t v = 0; v < deques_.size(); ++v) {
      if (v == worker || deques_[v].empty()) continue;
      if (!work_stealing_ && !failed_[v]) continue;
      if (deques_[v].size() > victim_size) {
        victim = v;
        victim_size = deques_[v].size();
      }
    }
    if (victim < deques_.size()) {
      const ChunkTask task = deques_[victim].back();
      deques_[victim].pop_back();
      ++steals_;
      if (stolen != nullptr) *stolen = true;
      return task;
    }
    // Everything completed, and no producer can push more.
    if (pending_ == 0 && producers_ == 0) return std::nullopt;
    // Tasks are still in flight elsewhere (one may yet be re-queued: a
    // failing client hands its chunk back), or a producer is still
    // pushing, so wait rather than exit.
    work_cv_.wait(lock, [&] {
      return closed_ || (pending_ == 0 && producers_ == 0) ||
             AvailableFor(worker);
    });
  }
}

void ChunkScheduler::TaskDone() {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_ > 0) --pending_;
    drained = pending_ == 0;
  }
  if (drained) work_cv_.notify_all();
}

void ChunkScheduler::MarkFailed(size_t worker) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    failed_[worker] = true;
  }
  // The failed worker's deque just became stealable in static mode.
  work_cv_.notify_all();
}

void ChunkScheduler::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  work_cv_.notify_all();
}

bool ChunkScheduler::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

uint64_t ChunkScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

uint64_t ChunkScheduler::steals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steals_;
}

}  // namespace ciao
