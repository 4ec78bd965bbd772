// Synchronization primitives with Clang thread-safety annotations: the ONE
// place in the tree that may name std::mutex (tools/check_sync_lint.py
// enforces this).
//
// Every mutex in the serving stack is a vq::Mutex, every guarded field is
// declared GUARDED_BY(its mutex), and every private helper that expects a
// lock already held is declared REQUIRES(it). Under Clang the `static`
// CMake preset turns these declarations into compile errors for any
// unguarded access (-Wthread-safety -Werror=thread-safety); under GCC the
// macros expand to nothing, so the annotated tree builds exactly as before.
// That split is deliberate: the annotations are machine-checked proofs when
// a Clang toolchain is available and free documentation when it is not --
// the runtime tsan lane keeps guarding the interleavings either way.
//
// Annotation conventions used across the tree:
//
//  - Fields:    `T field_ GUARDED_BY(mutex_);` -- reads and writes require
//               mutex_ held. Pointer members whose *pointee* is guarded use
//               PT_GUARDED_BY.
//  - Helpers:   `void Helper() REQUIRES(mutex_);` -- caller must hold
//               mutex_ (the analysis checks call sites AND the body).
//  - Public:    methods that take a lock internally are annotated
//               EXCLUDES(mutex_) when calling them with the lock held would
//               deadlock (self-deadlock documentation).
//  - Ordering:  `Mutex a_ ACQUIRED_BEFORE(b_);` declares the only legal
//               nesting. The cross-class serving order is documented here
//               because ACQUIRED_BEFORE can only name mutexes visible in
//               one class:
//
//      router sync_mutex_            (host-set rebuild / retirement sweeps)
//        -> host learned_mutex_      (drain of a retired host's speeches)
//          -> registry save_mutex_   (learned-file read-merge-write)
//        -> cache Shard::mutex       (fingerprint purge, one shard at a time)
//      cache owners_mutex_ and Shard::mutex are never held together (the
//      owner account is resolved before Put takes its shard lock), and no
//      two Shard::mutex instances ever nest.
//      host gate / perf mutexes: leaves, never nested.
//
//  - Escapes:   NO_THREAD_SAFETY_ANALYSIS is allowed ONLY with a written
//               invariant comment explaining why the analysis cannot see
//               the guarantee (e.g. handoff protocols). Zero such escapes
//               exist today; keep it that way.
//
// vq::CondVar pairs with vq::Mutex the way abseil's CondVar pairs with its
// Mutex: Wait(mu) REQUIRES(mu) -- the analysis treats the wait as a region
// where the lock is held throughout, which is sound for the caller because
// the lock IS held again when Wait returns. Use explicit `while (!pred)`
// loops around Wait rather than predicate lambdas: the analysis checks the
// loop body against the held lock, whereas a lambda would need its own
// annotation.
#ifndef VQ_UTIL_SYNC_H_
#define VQ_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------- attributes
// Thread-safety analysis attributes (Clang only; no-ops elsewhere). The
// spelling follows the Clang documentation's canonical macro set.
#if defined(__clang__)
#define VQ_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define VQ_THREAD_ANNOTATION_(x)  // GCC and others: annotations compile away.
#endif

#define CAPABILITY(x) VQ_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY VQ_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) VQ_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) VQ_THREAD_ANNOTATION_(pt_guarded_by(x))
#define REQUIRES(...) VQ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  VQ_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) VQ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define RELEASE(...) VQ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  VQ_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) VQ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define ACQUIRED_BEFORE(...) VQ_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) VQ_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define RETURN_CAPABILITY(x) VQ_THREAD_ANNOTATION_(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS VQ_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace vq {

/// \brief std::mutex wearing the `mutex` capability.
///
/// Prefer MutexLock for scoped sections; call Lock()/Unlock() directly only
/// for protocols RAII cannot express (and annotate the surrounding
/// functions ACQUIRE/RELEASE so the analysis still tracks them).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief Scoped lock of one vq::Mutex (the lock_guard replacement).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable paired with vq::Mutex.
///
/// Waits adopt the Mutex's underlying std::mutex for the duration of the
/// block, so the fast std::condition_variable (not _any) does the parking.
/// All waits REQUIRE the mutex held; write explicit `while (!pred)` loops
/// (see file comment).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before return.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Bounded wait: returns false when `seconds` elapsed without a notify
  /// (the mutex is reacquired either way). Non-positive budgets poll once.
  bool WaitFor(Mutex& mu, double seconds) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status =
        cv_.wait_for(lock, std::chrono::duration<double>(seconds));
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace vq

#endif  // VQ_UTIL_SYNC_H_
