// Deterministic fault injection for robustness and chaos testing.
//
// A fault *point* is a named site in production code (e.g. "snapshot.load")
// that asks the process-wide injector whether to misbehave. Disarmed points
// cost one relaxed atomic load, so the hooks stay compiled into release
// builds. Armed points can fail (the caller maps that to its natural error
// path), delay (simulating a slow dependency, which exercises deadline
// expiry), or both; all randomness comes from a seeded xoshiro stream so a
// chaos run is reproducible from its seed.
//
// Configuration is programmatic (Arm/Disarm/Reset, used by tests) or via the
// VQ_FAULTS environment variable, parsed once on first use:
//
//   VQ_FAULTS="snapshot.load:fail=1;solve.batch:delay_ms=50,fail=0.25"
//   VQ_FAULTS_SEED=42
//
// Spec grammar: `point:key=value[,key=value...][;point:...]` with keys
//   fail=P       fail each hit with probability P in [0,1]
//   delay_ms=D   sleep D milliseconds on every hit before deciding
//   max=N        stop failing after N failures (0 = unlimited)
#ifndef VQ_UTIL_FAULT_H_
#define VQ_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace vq {
namespace fault {

/// Fault points installed in the serving stack. Callers may also use ad-hoc
/// names; these constants exist so tests and docs agree on spelling.
inline constexpr const char* kSnapshotLoad = "snapshot.load";
inline constexpr const char* kAtomicWrite = "file.atomic_write";
inline constexpr const char* kPoolSubmit = "pool.submit";
/// Hit once per on-demand solve, after its solve slot is taken; a failure
/// sends the request to its store fallback. The name predates the removal
/// of batched solves and is kept so existing VQ_FAULTS specs still apply.
inline constexpr const char* kSolveBatch = "solve.batch";

/// What an armed point does on each hit.
struct FaultAction {
  double fail_probability = 0.0;  ///< Bernoulli per hit, seeded stream.
  double delay_seconds = 0.0;     ///< Sleep applied on every hit.
  uint64_t max_failures = 0;      ///< Stop failing after N failures; 0 = off.
};

/// Hit/failure counts for one point (reads are monotonic, not atomic
/// snapshots of each other).
struct FaultPointStats {
  uint64_t hits = 0;
  uint64_t failures = 0;
};

class FaultInjector {
 public:
  /// Process-wide injector. First call parses VQ_FAULTS / VQ_FAULTS_SEED.
  static FaultInjector& Global();

  FaultInjector() = default;
  /// Frees the lazily created state. Destroying an injector while another
  /// thread still calls into it is a caller bug (the Global() instance is
  /// deliberately never destroyed, so production code never races this).
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `point` with `action` (replacing any previous action; counters for
  /// the point are kept).
  void Arm(const std::string& point, FaultAction action);

  void Disarm(const std::string& point);

  /// Disarms every point and zeroes all counters. Tests call this between
  /// cases; the seed is kept.
  void Reset();

  /// Reseeds the per-point Bernoulli streams (takes effect for points armed
  /// after the call).
  void Seed(uint64_t seed);

  /// Parses a VQ_FAULTS-style spec and arms every point in it.
  Status Configure(const std::string& spec);

  /// The production hook: applies the point's delay (if armed), rolls the
  /// failure decision, and bumps counters. Disarmed (or globally empty)
  /// injectors return false without taking a lock.
  bool ShouldFail(const char* point);

  FaultPointStats PointStats(const std::string& point) const;

  bool AnyArmed() const {
    // relaxed: a fast-path probe; arming happens-before the traffic that
    // tests it, and a stale read only delays the first injection.
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

 private:
  struct Impl;
  Impl& impl();

  std::atomic<int> armed_points_{0};
  std::atomic<Impl*> impl_{nullptr};
};

/// Convenience hook for production call sites:
/// `if (fault::Injected(fault::kSnapshotLoad)) return Status::IOError(...);`
inline bool Injected(const char* point) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.AnyArmed()) return false;
  return injector.ShouldFail(point);
}

}  // namespace fault
}  // namespace vq

#endif  // VQ_UTIL_FAULT_H_
