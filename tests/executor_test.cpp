// The persistent work-stealing executor (docs/executor.md): lazy
// start, task handles, helping joins, run_lanes
// coverage, telemetry accounting, and an 8-thread steal storm for the
// TSan lane. Fresh Executor instances throughout -- the global() pool
// is shared process-wide and other suites may have warmed it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "jfm/support/executor.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::support::executor {
namespace {

namespace telemetry = support::telemetry;

std::uint64_t counter_value(const char* name) {
  auto snapshot = telemetry::Registry::global().snapshot();
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(ExecutorTest, StartsLazilyOnFirstSubmit) {
  Executor exec(2);
  EXPECT_EQ(exec.workers(), 2u);
  EXPECT_FALSE(exec.started());  // construction spawns nothing
  std::atomic<bool> ran{false};
  auto h = exec.submit([&]() { ran.store(true); });
  EXPECT_TRUE(exec.started());
  exec.help_until(h);
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(h.done());
}

TEST(ExecutorTest, DefaultHandleIsInvalid) {
  TaskHandle h;
  EXPECT_FALSE(h.valid());
}

TEST(ExecutorTest, GlobalIsASingleton) {
  EXPECT_EQ(&Executor::global(), &Executor::global());
  EXPECT_GE(Executor::global().workers(), 1u);
}

TEST(ExecutorTest, DefaultWorkerCountHonorsEnvOverride) {
  ::setenv("JFM_WORKERS", "3", 1);
  EXPECT_EQ(Executor::default_worker_count(), 3u);
  ::setenv("JFM_WORKERS", "0", 1);  // out of range -> ignored
  EXPECT_GE(Executor::default_worker_count(), 8u);
  ::setenv("JFM_WORKERS", "9999", 1);  // clamped down
  EXPECT_EQ(Executor::default_worker_count(), 64u);
  ::unsetenv("JFM_WORKERS");
  EXPECT_GE(Executor::default_worker_count(), 8u);
}

TEST(ExecutorTest, WaitBlocksUntilDone) {
  Executor exec(2);
  std::atomic<int> ran{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(exec.submit([&]() { ran.fetch_add(1); }));
  }
  for (auto& h : handles) h.wait();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ExecutorTest, HelpUntilDrainsOwnSubmissionsOnASaturatedPool) {
  // One worker, and its only queued task blocks until the MAIN thread
  // has finished helping a second task through: if help_until merely
  // slept, this would deadlock.
  Executor exec(1);
  std::atomic<bool> helped{false};
  auto gate = exec.submit([&]() {
    while (!helped.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  auto h = exec.submit([&]() { helped.store(true, std::memory_order_release); });
  exec.help_until(h);  // must execute the task itself
  EXPECT_TRUE(h.done());
  exec.help_until(gate);
  EXPECT_TRUE(gate.done());
}

TEST(ExecutorTest, RunLanesInlineWhenSingleLane) {
  Executor exec(4);
  int calls = 0;
  exec.run_lanes(1, [&]() { ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(exec.started());  // lanes<=1 never touches the pool
}

TEST(ExecutorTest, RunLanesRunsBodyOncePerLane) {
  Executor exec(4);
  std::atomic<int> calls{0};
  std::set<std::thread::id> tids;
  std::mutex mu;
  exec.run_lanes(6, [&]() {
    calls.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    tids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(calls.load(), 6);
  // the calling thread ran one of the lanes itself
  EXPECT_TRUE(tids.count(std::this_thread::get_id()) == 1);
}

TEST(ExecutorTest, UsableCpusIsAtLeastOneAndAtMostTheMachine) {
  // The affinity mask can only shrink the machine, never grow it.
  const std::size_t cpus = Executor::usable_cpus();
  EXPECT_GE(cpus, 1u);
  if (std::thread::hardware_concurrency() > 0) {
    EXPECT_LE(cpus, std::thread::hardware_concurrency());
  }
}

TEST(ExecutorTest, TelemetryCountsSubmittedEqualsCompleted) {
  const std::uint64_t submitted_before = counter_value("executor.task.submitted.count");
  const std::uint64_t completed_before = counter_value("executor.task.completed.count");
  {
    Executor exec(3);
    std::atomic<int> ran{0};
    std::vector<TaskHandle> handles;
    for (int i = 0; i < 40; ++i) handles.push_back(exec.submit([&]() { ran.fetch_add(1); }));
    for (auto& h : handles) exec.help_until(h);
    EXPECT_EQ(ran.load(), 40);
  }  // destructor drains; nothing may be lost
  const std::uint64_t submitted = counter_value("executor.task.submitted.count");
  const std::uint64_t completed = counter_value("executor.task.completed.count");
  EXPECT_GE(submitted - submitted_before, 40u);
  EXPECT_EQ(submitted - submitted_before, completed - completed_before);
}

TEST(ExecutorTest, DestructorRunsEveryTaskSubmittedBeforeStop) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    Executor exec(4);
    for (int i = 0; i < kTasks; ++i) (void)exec.submit([&]() { ran.fetch_add(1); });
  }  // ~Executor joins workers and drains leftovers on this thread
  EXPECT_EQ(ran.load(), kTasks);
}

// The TSan centerpiece: 8 external threads hammer one 8-worker pool
// with interleaved submits, helping joins and nested run_lanes,
// forcing cross-lane steals the whole way.
TEST(ExecutorTest, StealStormIsRaceFreeAndLosesNothing) {
  Executor exec(8);
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  constexpr int kTasksPerRound = 16;
  std::atomic<std::uint64_t> sum{0};

  auto storm = [&](int id) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<TaskHandle> handles;
      for (int t = 0; t < kTasksPerRound; ++t) {
        const std::uint64_t value =
            static_cast<std::uint64_t>(id) * 1000003u + static_cast<std::uint64_t>(t);
        handles.push_back(exec.submit([&sum, value]() {
          sum.fetch_add(value, std::memory_order_relaxed);
        }));
      }
      // odd rounds help (stealing whatever is queued), even rounds
      // sleep-wait: both join paths must be clean under contention
      for (auto& h : handles) {
        if (round % 2 == 1) {
          exec.help_until(h);
        } else {
          h.wait();
        }
      }
      // 4 lanes self-schedule indices 0..7 off one cursor
      std::atomic<std::uint64_t> next{0};
      exec.run_lanes(4, [&]() {
        for (std::uint64_t i = next.fetch_add(1); i < 8; i = next.fetch_add(1)) {
          sum.fetch_add(i, std::memory_order_relaxed);
        }
      });
    }
  };

  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) threads.emplace_back(storm, id);
  for (auto& t : threads) t.join();

  std::uint64_t expected = 0;
  for (int id = 0; id < kThreads; ++id) {
    for (int round = 0; round < kRounds; ++round) {
      for (int t = 0; t < kTasksPerRound; ++t) {
        expected += static_cast<std::uint64_t>(id) * 1000003u + static_cast<std::uint64_t>(t);
      }
      expected += 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace jfm::support::executor
