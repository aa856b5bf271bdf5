#pragma once
// jfm::support::executor: the process-wide persistent worker pool.
//
// Before this subsystem existed, every TransferEngine::export_batch and
// HybridFramework::checkout_hierarchy call spawned (and joined) a fresh
// set of std::threads -- thousands of clone/exit pairs per benchmark
// run, all to execute loops that finish in microseconds once the warm
// path stops hashing payloads. The executor replaces those per-call
// pools with ONE lazily-started pool of persistent workers:
//
//   * per-worker WORK-STEALING deques -- a worker pops its own deque
//     LIFO (cache-warm, newest first) and steals from other lanes FIFO
//     (oldest first, the classic Chase-Lev discipline, here guarded by
//     a per-lane mutex because tasks are coarse: whole batch lanes, not
//     individual items);
//   * TASK HANDLES a submitter can wait on, where waiting HELPS: a
//     blocked caller executes queued tasks itself instead of sleeping,
//     so a saturated pool can never deadlock a caller that is owed
//     work (the caller alone can drain everything it submitted);
//   * TELEMETRY lanes: executor.task.submitted.count /
//     executor.task.completed.count / executor.steal.count counters, an
//     executor.queue.depth gauge and an executor.workers gauge, all in
//     the global telemetry registry (see docs/observability.md);
//   * LAZY start: no threads exist until the first submit(), so
//     processes that never go parallel (unit tests, the desktop REPL
//     driving sequential commands) pay nothing.
//
// Sizing: JFM_WORKERS=<n> pins the pool size; otherwise
// max(hardware_concurrency, 8) so benches keep 8 genuine lanes even on
// small CI hosts. Callers that need an ablation-stable lane count
// (TransferEngine's `workers` knob) pass their own lane count to
// run_lanes(); the pool size only caps real parallelism, never the
// number of logical lanes.
//
// Determinism contract: the executor distributes INDICES, not results.
// Callers that must be bit-identical across worker counts (checkout,
// export_batch) already make every per-item operation commutative and
// every fault-injection decision interleaving-invariant (see
// docs/fault-injection.md), so running on stolen lanes changes nothing
// observable. Tasks must not throw: this codebase reports errors
// through Result<T>, and an exception escaping a task would terminate.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "jfm/support/telemetry.hpp"

namespace jfm::support::executor {

/// Internal completion record shared between a queued task and the
/// handle(s) waiting on it. Public only so TaskHandle can be copied by
/// value; never touch it directly.
struct TaskState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::function<void()> fn;
};

/// Future-like handle to one submitted task. Copyable; all copies refer
/// to the same task. Wait via Executor::help_until (which executes
/// other queued work while waiting) or, when you know the pool is not
/// saturated with your own dependencies, via wait().
class TaskHandle {
 public:
  TaskHandle() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  bool done() const;
  /// Block until the task ran. Does NOT help; prefer
  /// Executor::help_until from code that submitted the task.
  void wait() const;

 private:
  friend class Executor;
  explicit TaskHandle(std::shared_ptr<TaskState> state) : state_(std::move(state)) {}
  std::shared_ptr<TaskState> state_;
};

class Executor {
 public:
  /// `workers` == 0 means default_worker_count(). Fresh instances are
  /// for tests; production code shares global().
  explicit Executor(std::size_t workers = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool every subsystem shares.
  static Executor& global();

  /// JFM_WORKERS env override (clamped to [1, 64]), else
  /// max(hardware_concurrency, 8).
  static std::size_t default_worker_count();

  /// CPUs this process may run on: the size of its affinity mask where
  /// the platform has one (taskset and cpuset limits shrink it), else
  /// hardware_concurrency; at least 1. Lanes beyond this count only
  /// time-slice, so callers sizing lanes for throughput cap at it.
  static std::size_t usable_cpus();

  std::size_t workers() const noexcept { return lanes_.size(); }
  /// Whether worker threads have been spawned yet (they start on the
  /// first submit, never at construction).
  bool started() const noexcept { return started_.load(std::memory_order_acquire); }

  /// Enqueue one task. Worker threads enqueue onto their own lane
  /// (LIFO pop keeps the working set hot); external threads
  /// round-robin across lanes.
  TaskHandle submit(std::function<void()> fn);

  /// Wait for `h`, executing other queued tasks while it is pending.
  /// This is the deadlock-free join: a caller whose submissions
  /// saturated the pool makes progress by running them itself.
  void help_until(const TaskHandle& h);

  /// Run `body` on `lanes` logical lanes: lanes-1 submitted to the
  /// pool, one executed on the calling thread, then help_until() each
  /// handle. lanes <= 1 runs body inline with no pool interaction --
  /// the determinism anchor for workers=1 ablations.
  void run_lanes(std::size_t lanes, const std::function<void()>& body);

 private:
  struct Lane {
    std::mutex mu;
    std::deque<std::shared_ptr<TaskState>> q;
  };

  void ensure_started();
  void worker_loop(std::size_t home);
  /// Pop own deque back (LIFO), else steal another lane's front (FIFO).
  bool try_run_one(std::size_t home);
  void run_task(TaskState& task);

  std::vector<Lane> lanes_;  // fixed size after construction
  std::vector<std::thread> threads_;
  std::once_flag start_once_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> rr_{0};      // round-robin cursor for external submits
  std::atomic<std::size_t> queued_{0};  // tasks sitting in deques
  std::mutex wake_mu_;                  // queued_ transitions 0->1 happen under this
  std::condition_variable wake_cv_;

  telemetry::Counter& submitted_;
  telemetry::Counter& completed_;
  telemetry::Counter& stolen_;
  telemetry::Gauge& depth_;
  telemetry::Gauge& workers_gauge_;
};

}  // namespace jfm::support::executor
