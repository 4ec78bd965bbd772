#include "util/thread_pool.h"

#include <algorithm>

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

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body) {
  if (count == 0) return;
  size_t num_threads = pool->NumThreads();
  size_t num_chunks = std::min(count, num_threads * 4);
  size_t chunk = (count + num_chunks - 1) / num_chunks;
  std::atomic<size_t> next{0};
  // Waits for this call's own chunks only: pool->Wait() would also block on
  // unrelated tasks (an index build on ScanPool() behind serving scans, which
  // under sustained traffic may never drain). The last chunk notifies while
  // holding the mutex, so the waiter cannot destroy it before that chunk
  // lets go.
  struct Completion {
    explicit Completion(size_t chunks) : remaining(chunks) {}
    Mutex mutex;
    CondVar done;
    size_t remaining GUARDED_BY(mutex);
  } completion(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    pool->Submit([&next, count, chunk, &body, &completion] {
      while (true) {
        size_t begin = next.fetch_add(chunk);
        if (begin >= count) break;
        size_t end = std::min(begin + chunk, count);
        for (size_t i = begin; i < end; ++i) body(i);
      }
      MutexLock lock(completion.mutex);
      if (--completion.remaining == 0) completion.done.NotifyAll();
    });
  }
  MutexLock lock(completion.mutex);
  while (completion.remaining != 0) completion.done.Wait(completion.mutex);
}

}  // namespace vq
