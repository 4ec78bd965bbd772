#include "util/thread_pool.h"

#include <algorithm>
#include <numeric>

namespace vq {

namespace {

/// Which pool (if any) the calling thread belongs to, and its index there.
/// Written once per worker at startup; CurrentWorkerIndex() compares the
/// pool pointer so nested pools cannot alias each other's indices.
thread_local const ThreadPool* tl_worker_pool = nullptr;
thread_local size_t tl_worker_index = ThreadPool::kNotAWorker;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  hinted_.resize(num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
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

void ThreadPool::SubmitHinted(size_t hint, std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    hinted_[hint % hinted_.size()].push_back(std::move(task));
    ++hinted_total_;
    ++in_flight_;
  }
  // One wake suffices even if it lands on the "wrong" worker: any woken
  // worker that finds its own queues empty steals hinted work (PopTask), so
  // the task cannot strand while a worker sleeps.
  work_available_.NotifyOne();
}

size_t ThreadPool::PendingTasks() const {
  MutexLock lock(mutex_);
  return in_flight_;
}

size_t ThreadPool::QueuedTasks() const {
  MutexLock lock(mutex_);
  return queue_.size() + hinted_total_;
}

size_t ThreadPool::CurrentWorkerIndex() const {
  return tl_worker_pool == this ? tl_worker_index : kNotAWorker;
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.Wait(mutex_);
}

bool ThreadPool::PopTask(size_t index, std::function<void()>* task) {
  // Own hinted tasks first (the affinity contract), then the shared FIFO,
  // then steal the oldest hinted task of the nearest busy neighbor so a
  // saturated hinted worker never serializes the pool.
  std::deque<std::function<void()>>& own = hinted_[index];
  if (!own.empty()) {
    *task = std::move(own.front());
    own.pop_front();
    --hinted_total_;
    return true;
  }
  if (!queue_.empty()) {
    *task = std::move(queue_.front());
    queue_.pop();
    return true;
  }
  if (hinted_total_ > 0) {
    for (size_t step = 1; step < hinted_.size(); ++step) {
      std::deque<std::function<void()>>& other =
          hinted_[(index + step) % hinted_.size()];
      if (!other.empty()) {
        *task = std::move(other.front());
        other.pop_front();
        --hinted_total_;
        return true;
      }
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t index) {
  tl_worker_pool = this;
  tl_worker_index = index;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty() && hinted_total_ == 0) {
        work_available_.Wait(mutex_);
      }
      if (!PopTask(index, &task)) {
        if (shutting_down_) return;
        continue;
      }
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

ThreadPool& ScanPool() {
  // Never destroyed: scan tasks may still be draining when static
  // destructors run (the serving pools are leaked for the same reason).
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
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
  size_t tasks = std::min(pool->NumThreads(), count - 1);
  for (size_t t = 0; t < tasks; ++t) pool->Submit([queue] { queue->RunBack(); });
  queue->RunFront();
}

}  // namespace vq
