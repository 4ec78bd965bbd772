// Shared test helper: pins simd::Active() to one kernel table for a scope.
#ifndef VQ_TESTS_TESTING_KERNEL_OVERRIDE_H_
#define VQ_TESTS_TESTING_KERNEL_OVERRIDE_H_

#include "util/simd.h"

namespace vq {
namespace testing {

/// Installs `kernels` as the table simd::Active() returns until the end of
/// the scope, then restores dispatch.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const simd::Kernels* kernels) {
    simd::SetActiveForTesting(kernels);
  }
  ~ScopedKernelOverride() { simd::SetActiveForTesting(nullptr); }
  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;
};

}  // namespace testing
}  // namespace vq

#endif  // VQ_TESTS_TESTING_KERNEL_OVERRIDE_H_
