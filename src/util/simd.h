// Portable SIMD kernel layer for the evaluator/greedy hot paths.
//
// The summarization algorithms spend nearly all their time in a handful of
// reductions over the instance's 64-row bitset blocks (the layout the
// indexed-scan refactor introduced): ORing speech scope bitsets, summing
// weighted prior deviations under a row mask, accumulating weighted
// (positive) deviation gains over CSR scope-row lists, and picking the best
// fact from a utility array. This header exposes exactly those primitives as
// a table of function pointers with three implementations:
//
//   scalar  -- straight loops, bit-identical to the seed code paths; always
//              available and the correctness oracle for the others.
//   avx2    -- x86-64 AVX2(+FMA/POPCNT) four-lane kernels, compiled with
//              per-function target attributes so the library itself still
//              builds for a generic x86-64 baseline (VQ_MARCH_NATIVE off).
//   avx512  -- x86-64 AVX-512F eight-lane kernels. Fault-suppressing masked
//              loads handle tails and bitset masks directly; of these
//              kernels only masked_single_fact, which loads its block's
//              (target, weight) pairs whole, reads past the selected lanes
//              (see the masked_sum64 padding note below).
//   neon    -- aarch64 two-lane kernels for the dense reductions (the
//              gather-shaped kernels reuse the scalar loops: NEON has no
//              gather, and the fused compute dominates only on x86).
//
// Dispatch runs ONCE, at the first call of Active(): the CPU is probed
// (__builtin_cpu_supports on x86), the environment override VQ_FORCE_SCALAR=1
// is honored, and the chosen table is latched for the process lifetime, so
// the hot paths pay one pointer indirection and no per-call feature checks.
// Building with -DVQ_FORCE_SCALAR=ON (CMake option) pins the scalar table at
// compile time; the "simd" ctest label runs the equivalence property suite
// under both configurations.
#ifndef VQ_UTIL_SIMD_H_
#define VQ_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vq {
namespace simd {

/// One implementation of the kernel set. All pointers are always non-null.
///
/// Floating-point contract: every kernel computes the same mathematical sum
/// as its scalar counterpart but may reassociate additions (lane-parallel
/// accumulators) and contract multiply-adds, so results agree with the
/// scalar table to relative 1e-12 on the magnitudes this system produces --
/// never exactly. Integer kernels (or_popcount, argmax) and the values
/// stored by min_update are bit-exact.
struct Kernels {
  const char* name;  ///< "scalar", "avx2", "avx512" or "neon"

  /// covered[w] = OR over the `num_sets` bitsets of sets[s][w], for w in
  /// [0, num_words); returns the total popcount of `covered`. `sets` may be
  /// empty, in which case `covered` is zeroed.
  uint64_t (*or_popcount)(const uint64_t* const* sets, size_t num_sets,
                          size_t num_words, uint64_t* covered);

  /// Sum of block[i] over the set bits i of `mask`. The block is one 64-row
  /// bitset block: ALL 64 doubles must be readable (the avx2 lanes load past
  /// cleared bits), so callers pad their per-row arrays to a whole number of
  /// blocks -- Evaluator does. The avx512 table's fault-suppressing masked
  /// loads touch only selected lanes and would not need the padding, but the
  /// contract keeps the stricter requirement so one caller layout serves
  /// every table.
  double (*masked_sum64)(const double* block, uint64_t mask);

  /// Single-covering-fact conflict resolution over one 64-row block under
  /// the kClosest model (Definition 4 with exactly one in-scope fact): for
  /// each set bit i, the listener picks `value` or the prior, whichever lies
  /// closer to the actual target -- so the row's weighted error is
  /// min(|value - target[i]| * weight[i], prior_dev_weighted[i]), with
  /// target[i] and weight[i] the block's interleaved pairs
  /// target_weight[2i] and target_weight[2i + 1]. Returns the sum over the
  /// set bits. Padding contract as masked_sum64 (target_weight and
  /// prior_dev_weighted are block-padded arrays; padding lanes carry 0.0).
  /// The min over weighted deviations selects the same value the scalar
  /// argmin over unweighted deviations does: weights are >= 0 and rounding
  /// is monotone, so the order of the weighted pair never flips.
  double (*masked_single_fact)(double value, const double* target_weight,
                               const double* prior_dev_weighted, uint64_t mask);

  /// Weighted absolute deviation from a constant center:
  /// sum over i of |center - values[i]| * weights[i].
  double (*weighted_abs_dev)(double center, const double* values,
                             const double* weights, size_t n);

  /// The gather kernels below walk a fact's CSR scope rows and read each
  /// row's target and weight from `target_weight`, the instance's rows as
  /// interleaved pairs: target_weight[2r] = target[r], target_weight[2r+1]
  /// = weight[r] (Evaluator::RowTargetWeights). One 16-byte pair per row
  /// keeps both values on one cache line. Every table must return the bits
  /// its former kernel over materialized per-entry |value - target| and
  /// weight columns returned (tests/util/simd_test.cc keeps those kernels
  /// as the reference).
  ///
  /// Gathered dot product: with r = rows[k], sum over k of dense[r] *
  /// weight[r].
  double (*gather_weighted_sum)(const double* dense, const uint32_t* rows,
                                const double* target_weight, size_t n);

  /// The utility-gain reduction (initialization join / greedy gain loops) of
  /// a fact with typical value `value` over its CSR scope rows: with
  /// r = rows[k], sum over k of max(0, dense[r] - |value - target[r]|) *
  /// weight[r].
  double (*gather_positive_gain)(const double* dense, const uint32_t* rows,
                                 const double* target_weight, double value,
                                 size_t n);

  /// In-place min update (GreedyState::ApplyFact): with r = rows[k] and
  /// dev = |value - target[r]|, for each k with dev < dense[r] sets
  /// dense[r] = dev; returns the weighted error reduction
  /// sum((old - dev) * weight[r]) over the lowered rows. `rows` must hold
  /// distinct indices (CSR scope lists do).
  double (*min_update)(double* dense, const uint32_t* rows,
                       const double* target_weight, double value, size_t n);

  /// Index of the maximum of values[0, n); the LOWEST index wins ties
  /// (matching the seed's strict `>` best-fact scan). Requires n > 0.
  size_t (*argmax)(const double* values, size_t n);
};

/// The dispatched kernel table: selected once at first use (see file
/// comment), constant afterwards unless a bench/test override is installed.
const Kernels& Active();

/// The scalar fallback table (always available; the correctness oracle).
const Kernels& Scalar();

/// Every table the current build + CPU can run: scalar first, then each
/// vector table the CPU supports in ascending width (avx2 before avx512).
/// Equivalence tests iterate this so one binary exercises each
/// implementation against the scalar oracle.
const std::vector<const Kernels*>& AllImplementations();

/// Lookup by name ("scalar", "avx2", "avx512", "neon"); nullptr when that
/// table is not runnable in this build/CPU.
const Kernels* ByName(const char* name);

/// True when dispatch is pinned to scalar (VQ_FORCE_SCALAR=1 in the
/// environment, or a -DVQ_FORCE_SCALAR=ON build).
bool ForcedScalar();

/// Replaces the table Active() returns (nullptr restores dispatch). For
/// benches and tests that A/B scalar vs vector end-to-end in one process;
/// install it before spawning workers -- the hot paths re-read it per call.
void SetActiveForTesting(const Kernels* kernels);

}  // namespace simd
}  // namespace vq

#endif  // VQ_UTIL_SIMD_H_
