// Fixed-size thread pool used by the batch pre-processor (Section III: all
// speeches are generated in one batch operation; problems are independent)
// and, since the sharded-storage refactor, by the parallel shard scans.
#ifndef VQ_UTIL_THREAD_POOL_H_
#define VQ_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
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

/// \brief Fixed-size thread pool: a shared FIFO queue plus one small hinted
/// queue per worker.
///
/// Submit() is the historical any-worker path. SubmitHinted(hint, ...) asks
/// for the task to run on worker `hint % NumThreads()` -- the scan planner
/// uses it to re-run a shard on the worker that scanned it last, keeping the
/// shard's pages hot in that worker's cache. The hint is a preference, not a
/// guarantee: idle workers steal hinted tasks rather than sleep, so a busy
/// hinted worker can never strand work.
class ThreadPool {
 public:
  /// `num_threads` == 0 picks hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks must not throw.
  void Submit(std::function<void()> task);

  /// Enqueues a task preferring worker `hint % NumThreads()` (see class
  /// comment). Tasks must not throw.
  void SubmitHinted(size_t hint, std::function<void()> task);

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

  /// Tasks waiting in the shared or hinted queues (not yet picked up by a
  /// worker). Snapshot only; PendingTasks() - QueuedTasks() approximates the
  /// number of tasks currently executing. Exported as a gauge so shedding
  /// decisions are observable.
  size_t QueuedTasks() const;

  /// Sentinel for CurrentWorkerIndex() on a non-worker thread.
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);

  /// Index of the calling thread within THIS pool's workers, or kNotAWorker
  /// when the caller is not one of them. The scan planner records it as the
  /// shard->worker affinity hint for the next scan of the same shard.
  size_t CurrentWorkerIndex() const;

 private:
  void WorkerLoop(size_t index);
  /// Pops the next task for worker `index` under mutex_: own hinted queue
  /// first, then the shared queue, then steal the oldest hinted task of
  /// another worker. Returns false when nothing is queued.
  bool PopTask(size_t index, std::function<void()>* task) REQUIRES(mutex_);

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  /// Per-worker hinted tasks. hinted_total_ keeps the wait predicate O(1).
  std::vector<std::deque<std::function<void()>>> hinted_ GUARDED_BY(mutex_);
  size_t hinted_total_ GUARDED_BY(mutex_) = 0;
  CondVar work_available_;
  CondVar all_done_;
  size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool shutting_down_ GUARDED_BY(mutex_) = false;
};

/// Runs `body(i)` for every i in [0, count) on the calling thread and up to
/// pool->NumThreads() tasks of `pool`, returning once every index is done.
/// The indices are taken from `order` -- a permutation of [0, count), or
/// 0, 1, ..., count - 1 when empty -- the caller from its front, the tasks
/// from its back: a caller that orders its heaviest work first keeps that
/// work on its own thread. The caller waits only for indices a task has
/// started, never for queued tasks, so it neither waits on other work the
/// pool is running nor deadlocks when it runs on a worker of `pool` itself
/// (it then does every index the busy workers do not take). Bodies must be
/// independent.
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body,
                 std::vector<size_t> order = {});

/// Process-wide pool for data-parallel storage/scan work: sharded index
/// builds and the scan planner's per-shard filter fan-out. Lazily created
/// with hardware concurrency, never destroyed. Deliberately
/// separate from the serving solve pools: FilterRows runs ON solve-pool
/// workers, and fanning shard tasks into the pool the caller blocks on
/// would deadlock once every worker is a blocked caller.
ThreadPool& ScanPool();

}  // namespace vq

#endif  // VQ_UTIL_THREAD_POOL_H_
