// The work-stealing chunk scheduler under the fleet: single-threaded
// semantics (own-deque FIFO, steal-from-longest-victim's-back, static
// mode, failover, termination accounting) plus the TSan-hunted
// concurrency suite — concurrent steal vs. push vs. drain/close — that
// the CI thread-sanitizer job runs.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "client/chunk_scheduler.h"
#include "client/fleet.h"

namespace ciao {
namespace {

ChunkTask Task(uint64_t index) { return ChunkTask{index, 0, 0}; }

// ---------- Single-threaded semantics ----------

TEST(ChunkSchedulerTest, OwnDequeIsFifo) {
  ChunkScheduler scheduler(2);
  scheduler.Push(0, Task(0));
  scheduler.Push(0, Task(1));
  scheduler.Push(0, Task(2));
  bool stolen = true;
  for (uint64_t want = 0; want < 3; ++want) {
    auto task = scheduler.Next(0, &stolen);
    ASSERT_TRUE(task.has_value());
    EXPECT_EQ(task->index, want);
    EXPECT_FALSE(stolen);
    scheduler.TaskDone();
  }
  EXPECT_FALSE(scheduler.Next(0).has_value());  // all done -> terminate
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(ChunkSchedulerTest, StealsFromBackOfLongestVictim) {
  ChunkScheduler scheduler(3);
  scheduler.Push(0, Task(0));
  scheduler.Push(1, Task(1));
  scheduler.Push(1, Task(2));
  scheduler.Push(1, Task(3));
  // Worker 2 owns nothing: it must steal the BACK of worker 1's deque
  // (the longest), i.e. task 3 — the chunk its owner is furthest from.
  bool stolen = false;
  auto task = scheduler.Next(2, &stolen);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->index, 3u);
  EXPECT_TRUE(stolen);
  EXPECT_EQ(scheduler.steals(), 1u);
  scheduler.TaskDone();
}

TEST(ChunkSchedulerTest, StaticModeNeverStealsFromHealthyWorkers) {
  ChunkScheduler scheduler(2, /*work_stealing=*/false);
  scheduler.Push(0, Task(0));
  scheduler.Push(1, Task(1));
  // Worker 0 drains its own deque, then must WAIT for worker 1's task
  // rather than steal it — so we finish 1's task from here and observe
  // worker 0's Next unblocking into termination.
  ASSERT_TRUE(scheduler.Next(0).has_value());
  scheduler.TaskDone();
  std::thread waiter([&] { EXPECT_FALSE(scheduler.Next(0).has_value()); });
  ASSERT_TRUE(scheduler.Next(1).has_value());
  scheduler.TaskDone();  // pending hits 0 -> waiter terminates
  waiter.join();
}

TEST(ChunkSchedulerTest, StaticModeStealsFromFailedWorkers) {
  ChunkScheduler scheduler(2, /*work_stealing=*/false);
  scheduler.Push(1, Task(7));
  scheduler.MarkFailed(1);
  bool stolen = false;
  auto task = scheduler.Next(0, &stolen);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->index, 7u);
  EXPECT_TRUE(stolen);
  scheduler.TaskDone();
}

TEST(ChunkSchedulerTest, RequeueKeepsTaskPendingUntilCompleted) {
  ChunkScheduler scheduler(2);
  scheduler.Push(0, Task(0));
  auto task = scheduler.Next(0);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(scheduler.pending(), 1u);  // in flight, not done
  scheduler.Requeue(0, *task);         // failing client hands it back
  scheduler.MarkFailed(0);
  EXPECT_EQ(scheduler.pending(), 1u);  // still exactly one task
  auto again = scheduler.Next(1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->index, 0u);
  scheduler.TaskDone();
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_FALSE(scheduler.Next(1).has_value());
}

TEST(ChunkSchedulerTest, FailedWorkerOwnDequeIgnoredByItself) {
  ChunkScheduler scheduler(2);
  scheduler.Push(0, Task(0));
  scheduler.MarkFailed(0);
  // A failed worker no longer takes work — not even its own; its task is
  // only reachable via another worker.
  EXPECT_FALSE(scheduler.Next(0).has_value());
  auto task = scheduler.Next(1);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->index, 0u);
  scheduler.TaskDone();
}

TEST(ChunkSchedulerTest, CloseAbandonsQueuedWork) {
  ChunkScheduler scheduler(1);
  scheduler.Push(0, Task(0));
  scheduler.Push(0, Task(1));
  scheduler.Close();
  EXPECT_FALSE(scheduler.Next(0).has_value());
  EXPECT_TRUE(scheduler.closed());
  EXPECT_EQ(scheduler.pending(), 2u);  // abandoned, visible post-mortem
}

// ---------- Concurrency (run under TSan in CI) ----------

// Workers drain while a producer keeps pushing: every task must be
// delivered exactly once, across own-pops and steals.
TEST(ChunkSchedulerConcurrencyTest, ConcurrentPushAndStealDeliverExactlyOnce) {
  constexpr size_t kWorkers = 4;
  constexpr uint64_t kTasks = 2000;
  ChunkScheduler scheduler(kWorkers);
  std::vector<std::atomic<uint32_t>> delivered(kTasks);

  // Seed half up front; push the rest concurrently with the drain, all
  // onto worker 0's deque so the others can only make progress stealing.
  // The producer holds the queue open until its last push, so a worker
  // that drains the seeded half first waits instead of exiting.
  for (uint64_t t = 0; t < kTasks / 2; ++t) {
    scheduler.Push(t % kWorkers, Task(t));
  }
  scheduler.AddProducers(1);
  std::thread producer([&] {
    for (uint64_t t = kTasks / 2; t < kTasks; ++t) {
      scheduler.Push(0, Task(t));
    }
    scheduler.ProducerDone();
  });

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (true) {
        auto task = scheduler.Next(w);
        if (!task.has_value()) break;
        delivered[task->index].fetch_add(1, std::memory_order_relaxed);
        scheduler.TaskDone();
      }
    });
  }
  producer.join();
  for (std::thread& t : workers) t.join();

  for (uint64_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(delivered[t].load(), 1u) << "task " << t;
  }
  EXPECT_EQ(scheduler.pending(), 0u);
}

// Workers that fail mid-drain requeue their in-flight task; survivors
// must still deliver every task exactly once.
TEST(ChunkSchedulerConcurrencyTest, ConcurrentFailoverLosesNothing) {
  constexpr size_t kWorkers = 4;
  constexpr uint64_t kTasks = 1000;
  ChunkScheduler scheduler(kWorkers);
  std::vector<std::atomic<uint32_t>> delivered(kTasks);
  for (uint64_t t = 0; t < kTasks; ++t) {
    scheduler.Push(t % kWorkers, Task(t));
  }

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      uint64_t processed = 0;
      while (true) {
        auto task = scheduler.Next(w);
        if (!task.has_value()) break;
        // Workers 1..3 crash after 10 tasks; worker 0 survives.
        if (w != 0 && processed >= 10) {
          scheduler.Requeue(w, *task);
          scheduler.MarkFailed(w);
          break;
        }
        delivered[task->index].fetch_add(1, std::memory_order_relaxed);
        ++processed;
        scheduler.TaskDone();
      }
    });
  }
  for (std::thread& t : workers) t.join();

  for (uint64_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(delivered[t].load(), 1u) << "task " << t;
  }
  EXPECT_EQ(scheduler.pending(), 0u);
}

// Close racing a concurrent drain + push: workers must all exit, each
// task is delivered at most once, and nothing deadlocks.
TEST(ChunkSchedulerConcurrencyTest, CloseRacesDrainWithoutDeadlock) {
  for (int round = 0; round < 20; ++round) {
    constexpr size_t kWorkers = 3;
    constexpr uint64_t kTasks = 300;
    ChunkScheduler scheduler(kWorkers);
    std::vector<std::atomic<uint32_t>> delivered(kTasks);
    for (uint64_t t = 0; t < kTasks / 2; ++t) {
      scheduler.Push(t % kWorkers, Task(t));
    }

    std::vector<std::thread> workers;
    for (size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        while (true) {
          auto task = scheduler.Next(w);
          if (!task.has_value()) break;
          delivered[task->index].fetch_add(1, std::memory_order_relaxed);
          scheduler.TaskDone();
        }
      });
    }
    std::thread pusher([&] {
      for (uint64_t t = kTasks / 2; t < kTasks; ++t) {
        scheduler.Push(1, Task(t));
      }
    });
    std::thread closer([&] { scheduler.Close(); });
    pusher.join();
    closer.join();
    for (std::thread& t : workers) t.join();

    for (uint64_t t = 0; t < kTasks; ++t) {
      EXPECT_LE(delivered[t].load(), 1u) << "task " << t;
    }
  }
}

}  // namespace
}  // namespace ciao
