#include "util/thread_pool.h"

#include <algorithm>
#include <numeric>

namespace vq {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

size_t ThreadPool::PendingTasks() const {
  MutexLock lock(mutex_);
  return in_flight_;
}

size_t ThreadPool::QueuedTasks() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.Wait(mutex_);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mutex_);
      if (queue_.empty()) return;  // shutting down with nothing left
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

ThreadPool* SharedPool() {
  static ThreadPool* pool = []() -> ThreadPool* {
    unsigned cores = std::thread::hardware_concurrency();
    return cores > 1 ? new ThreadPool(cores - 1) : nullptr;
  }();
  return pool;
}

namespace {

/// The shared state of one ParallelFor call: its order, consumed from both
/// ends. Held by shared_ptr from every task: a task the pool starts after
/// ParallelFor returned (its workers were busy) finds the queue empty and
/// never touches `body`, which lives on the caller's stack.
struct TwoEndedQueue {
  TwoEndedQueue(std::vector<size_t> order_in, const std::function<void(size_t)>* body_in)
      : order(std::move(order_in)), body(body_in), back(order.size()) {}

  /// Pool task: runs indices from the back until the queue is empty.
  void RunBack() {
    while (true) {
      size_t index;
      {
        MutexLock lock(mutex);
        if (front == back) return;
        index = order[--back];
        ++active;
      }
      (*body)(index);
      MutexLock lock(mutex);
      if (--active == 0 && front == back) idle.NotifyAll();
    }
  }

  /// The caller's share: runs indices from the front until the queue is
  /// empty, then waits for the indices tasks have taken.
  void RunFront() {
    while (true) {
      size_t index;
      {
        MutexLock lock(mutex);
        if (front == back) break;
        index = order[front++];
      }
      (*body)(index);
    }
    MutexLock lock(mutex);
    while (active != 0) idle.Wait(mutex);
  }

  const std::vector<size_t> order;
  const std::function<void(size_t)>* const body;
  Mutex mutex;
  CondVar idle;
  /// order[front, back) is still queued.
  size_t front GUARDED_BY(mutex) = 0;
  size_t back GUARDED_BY(mutex);
  /// Indices pool tasks are running right now.
  size_t active GUARDED_BY(mutex) = 0;
};

}  // namespace

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body,
                 std::vector<size_t> order) {
  if (count == 0) return;
  if (order.empty()) {
    order.resize(count);
    std::iota(order.begin(), order.end(), size_t{0});
  }
  auto queue = std::make_shared<TwoEndedQueue>(std::move(order), &body);
  // The caller takes at least the first index, so one task fewer than
  // indices suffices.
  size_t tasks = pool == nullptr ? 0 : std::min(pool->NumThreads(), count - 1);
  for (size_t t = 0; t < tasks; ++t) pool->Submit([queue] { queue->RunBack(); });
  queue->RunFront();
}

}  // namespace vq
