#ifndef CIAO_CLIENT_CHUNK_SCHEDULER_H_
#define CIAO_CLIENT_CHUNK_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace ciao {

/// One unit of fleet work: records [start, end) of the ingest call,
/// forming chunk number `index` of the stream. Chunk boundaries are fixed
/// up front, so the chunk *contents* are identical no matter which client
/// ends up prefiltering them — only the (client, chunk) assignment is
/// dynamic.
struct ChunkTask {
  uint64_t index = 0;
  size_t start = 0;
  size_t end = 0;
};

/// Work-stealing chunk queue for a heterogeneous client fleet: every
/// worker owns a deque seeded with its static (round-robin) share; a
/// worker pops from the front of its own deque and, when empty, steals
/// from the back of the longest other deque. Fast clients therefore
/// absorb the chunks a slow or failed client never got to — the whole
/// point of the fleet scheduler (straggler mitigation).
///
/// With stealing disabled the assignment is the static round-robin
/// partition (the pre-fleet ClientPool behaviour), except that deques of
/// workers marked *failed* remain stealable by everyone — otherwise a
/// failure-injected static fleet would simply lose data.
///
/// Termination: tasks are tracked from Push until TaskDone, so Next can
/// distinguish "nothing for me right now" (another worker may still
/// requeue its in-flight task — block) from "all work finished" (return
/// nullopt). A producer that pushes while workers run holds the queue
/// open (AddProducers / ProducerDone, as on BoundedTransport): until it
/// is done, an empty queue means "wait", not "finished". Close()
/// abandons the remaining tasks and releases every blocked worker — the
/// abort path when the transport breaks.
class ChunkScheduler {
 public:
  explicit ChunkScheduler(size_t num_workers, bool work_stealing = true);

  ChunkScheduler(const ChunkScheduler&) = delete;
  ChunkScheduler& operator=(const ChunkScheduler&) = delete;

  /// Enqueues a NEW task onto `worker`'s deque (the initial round-robin
  /// seeding, or a producer feeding chunks while workers already run);
  /// safe to call concurrently with Next/TaskDone.
  void Push(size_t worker, const ChunkTask& task);

  /// Registers `n` producers that push while workers run; each calls
  /// ProducerDone when it has pushed its last task. Seeding every task
  /// before the workers start needs no hold.
  void AddProducers(size_t n);

  /// Marks one producer finished; the last one lets Next report
  /// "all work finished" once every task is done.
  void ProducerDone();

  /// Hands a task obtained from Next back to the queue (the in-flight
  /// chunk of a failing client). The task stays pending — it was never
  /// completed — so this must NOT be paired with a later TaskDone by the
  /// same worker; whoever picks it up completes it.
  void Requeue(size_t worker, const ChunkTask& task);

  /// Next task for `worker`: its own deque first, else a steal (see class
  /// comment), else blocks until work appears, every task completed with
  /// no producer open, or the scheduler closes. nullopt = no work will
  /// ever come — exit.
  /// `stolen`, when non-null, reports whether the task came from another
  /// worker's deque.
  std::optional<ChunkTask> Next(size_t worker, bool* stolen = nullptr);

  /// Marks one previously returned task finished. Every task obtained
  /// from Next must be either completed (TaskDone) or handed back
  /// (Requeue) — the balance is what lets Next detect termination.
  void TaskDone();

  /// Marks `worker` failed: it will take no further tasks and — crucially
  /// — its remaining deque becomes stealable even with work stealing off.
  void MarkFailed(size_t worker);

  /// Abandons all queued tasks and wakes every blocked worker (Next then
  /// returns nullopt). Used when the fleet must abort mid-ingest.
  void Close();

  bool closed() const;
  /// Tasks pushed but not yet TaskDone'd (queued + in flight). After all
  /// workers exited, non-zero means work was abandoned (Close, or every
  /// client failed).
  uint64_t pending() const;
  /// Total tasks handed out via a steal.
  uint64_t steals() const;

 private:
  /// True iff `worker` could obtain a task right now (lock held).
  bool AvailableFor(size_t worker) const;

  const bool work_stealing_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<std::deque<ChunkTask>> deques_;
  std::vector<bool> failed_;
  uint64_t pending_ = 0;
  /// Producers registered and not yet done.
  size_t producers_ = 0;
  uint64_t steals_ = 0;
  bool closed_ = false;
};

}  // namespace ciao

#endif  // CIAO_CLIENT_CHUNK_SCHEDULER_H_
