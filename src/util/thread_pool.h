// Fixed-size thread pool and ParallelFor, used by the batch pre-processor
// (Section III: all speeches are generated in one batch operation; problems
// are independent), by index builds (one dimension per task) and by the
// serving router.
#ifndef VQ_UTIL_THREAD_POOL_H_
#define VQ_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace vq {

/// \brief Fixed-size thread pool over one shared FIFO queue.
class ThreadPool {
 public:
  /// `num_threads` == 0 picks hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks must not throw.
  void Submit(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result. Unlike
  /// Submit(), the callable may throw: the exception is captured in the
  /// future. Used by the serving layer to hand per-request results back to
  /// callers without a side channel.
  template <typename F>
  auto SubmitTask(F&& callable) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(callable));
    std::future<R> future = task->get_future();
    Submit([task] { (*task)(); });
    return future;
  }

  /// Blocks until all submitted tasks have finished.
  void Wait();

  size_t NumThreads() const { return workers_.size(); }

  /// Tasks submitted but not yet finished (queued + running). Snapshot only:
  /// the value may change before the caller uses it.
  size_t PendingTasks() const;

  /// Tasks waiting in the queue (not yet picked up by a worker). Snapshot
  /// only; PendingTasks() - QueuedTasks() approximates the number of tasks
  /// currently executing. Exported as a gauge so shedding decisions are
  /// observable.
  size_t QueuedTasks() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  CondVar work_available_;
  CondVar all_done_;
  size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool shutting_down_ GUARDED_BY(mutex_) = false;
};

/// Runs `body(i)` for every i in [0, count) on the calling thread and up to
/// pool->NumThreads() tasks of `pool` (none when `pool` is nullptr),
/// returning once every index is done. The indices are taken from `order`
/// -- a permutation of [0, count), or 0, 1, ..., count - 1 when empty --
/// the caller from its front, the tasks from its back: a caller that
/// orders its heaviest work first keeps that work on its own thread. The
/// caller waits only for indices a task has started, never for queued
/// tasks, so it neither waits on other work the pool is running nor
/// deadlocks when it runs on a worker of `pool` itself (it then does every
/// index the busy workers do not take). Bodies must be independent.
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body,
                 std::vector<size_t> order = {});

/// The process-wide pool: hardware_concurrency() - 1 workers, since every
/// ParallelFor caller works too; nullptr on a single core (ParallelFor then
/// runs on the caller alone). Index builds and DatasetRegistry::AddDataset's
/// pre-processing run on it. Lazily created, never destroyed: a task may
/// still run on it while static destructors do.
ThreadPool* SharedPool();

}  // namespace vq

#endif  // VQ_UTIL_THREAD_POOL_H_
