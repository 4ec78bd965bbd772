#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

// The AVX2 section relies on GCC/Clang-only constructs (per-function
// target attributes, __builtin_cpu_supports), so MSVC x64 (_M_X64 without
// __GNUC__) deliberately falls back to scalar-only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VQ_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define VQ_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace vq {
namespace simd {

namespace {

// --------------------------------------------------------------- scalar
// Straight loops, written to visit elements in exactly the order the seed
// implementations did: the forced-scalar configuration is bit-identical to
// the retained *Reference paths, which makes it the oracle for the others.

uint64_t OrPopcountScalar(const uint64_t* const* sets, size_t num_sets,
                          size_t num_words, uint64_t* covered) {
  uint64_t total = 0;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t acc = 0;
    for (size_t s = 0; s < num_sets; ++s) acc |= sets[s][w];
    covered[w] = acc;
    total += static_cast<uint64_t>(std::popcount(acc));
  }
  return total;
}

double MaskedSum64Scalar(const double* block, uint64_t mask) {
  double sum = 0.0;
  while (mask != 0) {
    sum += block[std::countr_zero(mask)];
    mask &= mask - 1;
  }
  return sum;
}

double WeightedSumScalar(const double* values, const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += values[i] * weights[i];
  return sum;
}

double WeightedAbsDevScalar(double center, const double* values,
                            const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += std::fabs(center - values[i]) * weights[i];
  return sum;
}

double GatherWeightedSumScalar(const double* dense, const uint32_t* rows,
                               const double* target_weight, size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    size_t r = rows[k];
    sum += dense[r] * target_weight[2 * r + 1];
  }
  return sum;
}

double GatherPositiveGainScalar(const double* dense, const uint32_t* rows,
                                const double* target_weight, double value,
                                size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    size_t r = rows[k];
    double gain = dense[r] - std::fabs(value - target_weight[2 * r]);
    if (gain > 0.0) sum += gain * target_weight[2 * r + 1];
  }
  return sum;
}

double MinUpdateScalar(double* dense, const uint32_t* rows,
                       const double* target_weight, double value, size_t n) {
  double reduction = 0.0;
  for (size_t k = 0; k < n; ++k) {
    size_t r = rows[k];
    double current = dense[r];
    double dev = std::fabs(value - target_weight[2 * r]);
    if (dev < current) {
      reduction += (current - dev) * target_weight[2 * r + 1];
      dense[r] = dev;
    }
  }
  return reduction;
}

size_t ArgMaxScalar(const double* values, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

double MaskedSingleFactScalar(double value, const double* target_weight,
                              const double* prior_dev_weighted, uint64_t mask) {
  double sum = 0.0;
  while (mask != 0) {
    int i = std::countr_zero(mask);
    mask &= mask - 1;
    double fact_dev = std::fabs(value - target_weight[2 * i]) * target_weight[2 * i + 1];
    sum += fact_dev < prior_dev_weighted[i] ? fact_dev : prior_dev_weighted[i];
  }
  return sum;
}

const Kernels kScalarKernels = {
    "scalar",           OrPopcountScalar,     MaskedSum64Scalar,
    MaskedSingleFactScalar,
    WeightedSumScalar,  WeightedAbsDevScalar,
    GatherWeightedSumScalar, GatherPositiveGainScalar,
    MinUpdateScalar,    ArgMaxScalar,
};

// ----------------------------------------------------------------- AVX2
// Compiled with per-function target attributes so the translation unit (and
// the rest of the library) keeps the generic x86-64 baseline; the dispatcher
// only hands these out after __builtin_cpu_supports("avx2") says yes.
#if VQ_SIMD_X86

#define VQ_AVX2 __attribute__((target("avx2,fma,popcnt")))

VQ_AVX2 inline double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

VQ_AVX2 inline __m256d Abs(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// Gather of 4 doubles via the masked form with an explicit zero source:
/// the plain _mm256_i32gather_pd leaves its pass-through operand undefined,
/// which GCC's -Wmaybe-uninitialized flags from inside avx2intrin.h. Same
/// vgatherdpd instruction, warning-free.
VQ_AVX2 inline __m256d Gather4(const double* base, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
}

/// One row's (target, weight) pair from the interleaved column: a single
/// 16-byte load, so both values come from one cache line. The gather
/// kernels gather only the dense column and assemble target and weight
/// from these loads: on the Sapphire Rapids host bench/simd_kernels.cpp
/// was recorded on, two more gathers per vector (one for target, one for
/// weight) made the G-O solve about 1.8x slower than this.
/// Baseline SSE2, so it inlines into both the avx2 and the avx512 kernels
/// (a target attribute of its own would block inlining into the other).
inline __m128d LoadPair(const double* target_weight, uint32_t row) {
  return _mm_loadu_pd(target_weight + 2 * static_cast<size_t>(row));
}

/// The pairs of rows[0..3], split into a target and a weight vector. With
/// the pairs of rows 0 and 2 in one register and those of rows 1 and 3 in
/// the other, the in-lane unpacks already yield rows 0..3 in order.
VQ_AVX2 inline void LoadPairs4(const double* target_weight, const uint32_t* rows,
                               __m256d* target, __m256d* weight) {
  __m256d even = _mm256_set_m128d(LoadPair(target_weight, rows[2]),
                                  LoadPair(target_weight, rows[0]));
  __m256d odd = _mm256_set_m128d(LoadPair(target_weight, rows[3]),
                                 LoadPair(target_weight, rows[1]));
  *target = _mm256_unpacklo_pd(even, odd);
  *weight = _mm256_unpackhi_pd(even, odd);
}

VQ_AVX2 uint64_t OrPopcountAvx2(const uint64_t* const* sets, size_t num_sets,
                                size_t num_words, uint64_t* covered) {
  uint64_t total = 0;
  size_t w = 0;
  if (num_sets > 0) {
    for (; w + 4 <= num_words; w += 4) {
      __m256i acc = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(sets[0] + w));
      for (size_t s = 1; s < num_sets; ++s) {
        acc = _mm256_or_si256(
            acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sets[s] + w)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(covered + w), acc);
      total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w]));
      total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w + 1]));
      total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w + 2]));
      total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w + 3]));
    }
  }
  for (; w < num_words; ++w) {
    uint64_t acc = 0;
    for (size_t s = 0; s < num_sets; ++s) acc |= sets[s][w];
    covered[w] = acc;
    total += static_cast<uint64_t>(_mm_popcnt_u64(acc));
  }
  return total;
}

VQ_AVX2 double MaskedSum64Avx2(const double* block, uint64_t mask) {
  if (mask == 0) return 0.0;
  // Expand each nibble of the mask into four qword lane masks and sum the
  // selected lanes; the whole 64-double block must be readable (the loads
  // touch cleared lanes), which Evaluator guarantees by padding.
  const __m256i kBitSelect = _mm256_set_epi64x(8, 4, 2, 1);
  __m256d acc = _mm256_setzero_pd();
  for (int i = 0; i < 64; i += 4) {
    uint64_t nibble = (mask >> i) & 0xF;
    if (nibble == 0) continue;
    __m256i sel = _mm256_and_si256(
        _mm256_set1_epi64x(static_cast<long long>(nibble)), kBitSelect);
    __m256d lane_mask = _mm256_castsi256_pd(_mm256_cmpeq_epi64(sel, kBitSelect));
    acc = _mm256_add_pd(acc,
                        _mm256_and_pd(lane_mask, _mm256_loadu_pd(block + i)));
  }
  return HorizontalSum(acc);
}

VQ_AVX2 double WeightedSumAvx2(const double* values, const double* weights,
                               size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + i),
                           _mm256_loadu_pd(weights + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(values + i + 4),
                           _mm256_loadu_pd(weights + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + i),
                           _mm256_loadu_pd(weights + i), acc0);
  }
  double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += values[i] * weights[i];
  return sum;
}

VQ_AVX2 double WeightedAbsDevAvx2(double center, const double* values,
                                  const double* weights, size_t n) {
  const __m256d vcenter = _mm256_set1_pd(center);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d d0 = Abs(_mm256_sub_pd(vcenter, _mm256_loadu_pd(values + i)));
    __m256d d1 = Abs(_mm256_sub_pd(vcenter, _mm256_loadu_pd(values + i + 4)));
    acc0 = _mm256_fmadd_pd(d0, _mm256_loadu_pd(weights + i), acc0);
    acc1 = _mm256_fmadd_pd(d1, _mm256_loadu_pd(weights + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    __m256d d = Abs(_mm256_sub_pd(vcenter, _mm256_loadu_pd(values + i)));
    acc0 = _mm256_fmadd_pd(d, _mm256_loadu_pd(weights + i), acc0);
  }
  double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += std::fabs(center - values[i]) * weights[i];
  return sum;
}

VQ_AVX2 double GatherWeightedSumAvx2(const double* dense, const uint32_t* rows,
                                     const double* target_weight, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d target, weight;
    LoadPairs4(target_weight, rows + k, &target, &weight);
    acc = _mm256_fmadd_pd(Gather4(dense, idx), weight, acc);
  }
  double sum = HorizontalSum(acc);
  for (; k < n; ++k) {
    size_t r = rows[k];
    sum += dense[r] * target_weight[2 * r + 1];
  }
  return sum;
}

VQ_AVX2 double GatherPositiveGainAvx2(const double* dense, const uint32_t* rows,
                                      const double* target_weight, double value,
                                      size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vvalue = _mm256_set1_pd(value);
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d target, weight;
    LoadPairs4(target_weight, rows + k, &target, &weight);
    __m256d dev = Abs(_mm256_sub_pd(vvalue, target));
    __m256d gain = _mm256_sub_pd(Gather4(dense, idx), dev);
    gain = _mm256_max_pd(gain, zero);  // branchless max(0, gain)
    acc = _mm256_fmadd_pd(gain, weight, acc);
  }
  double sum = HorizontalSum(acc);
  for (; k < n; ++k) {
    size_t r = rows[k];
    double gain = dense[r] - std::fabs(value - target_weight[2 * r]);
    if (gain > 0.0) sum += gain * target_weight[2 * r + 1];
  }
  return sum;
}

VQ_AVX2 double MinUpdateAvx2(double* dense, const uint32_t* rows,
                             const double* target_weight, double value, size_t n) {
  const __m256d vvalue = _mm256_set1_pd(value);
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d target, weight;
    LoadPairs4(target_weight, rows + k, &target, &weight);
    __m256d current = Gather4(dense, idx);
    __m256d dv = Abs(_mm256_sub_pd(vvalue, target));
    __m256d lowered = _mm256_cmp_pd(dv, current, _CMP_LT_OQ);
    __m256d delta = _mm256_and_pd(
        lowered, _mm256_mul_pd(_mm256_sub_pd(current, dv), weight));
    acc = _mm256_add_pd(acc, delta);
    // AVX2 has no scatter: store the blended minima lane by lane. The CSR
    // row lists hold distinct indices, so the gather above never observes a
    // row this batch also writes.
    alignas(32) double updated[4];
    _mm256_store_pd(updated, _mm256_blendv_pd(current, dv, lowered));
    dense[rows[k]] = updated[0];
    dense[rows[k + 1]] = updated[1];
    dense[rows[k + 2]] = updated[2];
    dense[rows[k + 3]] = updated[3];
  }
  double reduction = HorizontalSum(acc);
  for (; k < n; ++k) {
    size_t r = rows[k];
    double current = dense[r];
    double dev = std::fabs(value - target_weight[2 * r]);
    if (dev < current) {
      reduction += (current - dev) * target_weight[2 * r + 1];
      dense[r] = dev;
    }
  }
  return reduction;
}

VQ_AVX2 double MaskedSingleFactAvx2(double value, const double* target_weight,
                                    const double* prior_dev_weighted,
                                    uint64_t mask) {
  if (mask == 0) return 0.0;
  // Same nibble expansion as MaskedSum64Avx2 (and the same whole-block
  // readability requirement); each selected lane contributes the smaller of
  // its weighted fact deviation and its precomputed weighted prior
  // deviation.
  const __m256i kBitSelect = _mm256_set_epi64x(8, 4, 2, 1);
  const __m256d vvalue = _mm256_set1_pd(value);
  __m256d acc = _mm256_setzero_pd();
  for (int i = 0; i < 64; i += 4) {
    uint64_t nibble = (mask >> i) & 0xF;
    if (nibble == 0) continue;
    __m256i sel = _mm256_and_si256(
        _mm256_set1_epi64x(static_cast<long long>(nibble)), kBitSelect);
    __m256d lane_mask = _mm256_castsi256_pd(_mm256_cmpeq_epi64(sel, kBitSelect));
    // Rows i..i+3 as pairs: the unpacks yield rows i, i+2, i+1, i+3 and the
    // permute restores row order, so each lane keeps its row.
    __m256d lo = _mm256_loadu_pd(target_weight + 2 * i);
    __m256d hi = _mm256_loadu_pd(target_weight + 2 * i + 4);
    __m256d target = _mm256_permute4x64_pd(_mm256_unpacklo_pd(lo, hi), 0xD8);
    __m256d weight = _mm256_permute4x64_pd(_mm256_unpackhi_pd(lo, hi), 0xD8);
    __m256d fact_dev = _mm256_mul_pd(Abs(_mm256_sub_pd(vvalue, target)), weight);
    __m256d contrib =
        _mm256_min_pd(fact_dev, _mm256_loadu_pd(prior_dev_weighted + i));
    acc = _mm256_add_pd(acc, _mm256_and_pd(lane_mask, contrib));
  }
  return HorizontalSum(acc);
}

VQ_AVX2 size_t ArgMaxAvx2(const double* values, size_t n) {
  if (n < 8) return ArgMaxScalar(values, n);
  __m256d best = _mm256_loadu_pd(values);
  __m256i best_idx = _mm256_set_epi64x(3, 2, 1, 0);
  size_t k = 4;
  for (; k + 4 <= n; k += 4) {
    __m256d v = _mm256_loadu_pd(values + k);
    __m256i idx = _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(k)),
                                   _mm256_set_epi64x(3, 2, 1, 0));
    // Strictly-greater keeps the earliest occurrence within each lane.
    __m256d gt = _mm256_cmp_pd(v, best, _CMP_GT_OQ);
    best = _mm256_blendv_pd(best, v, gt);
    best_idx = _mm256_blendv_epi8(best_idx, idx, _mm256_castpd_si256(gt));
  }
  alignas(32) double lane_val[4];
  alignas(32) int64_t lane_idx[4];
  _mm256_store_pd(lane_val, best);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_idx), best_idx);
  // Cross-lane reduction: greatest value wins, the smaller index on ties, so
  // the overall result is the lowest index attaining the maximum.
  double best_value = lane_val[0];
  size_t best_index = static_cast<size_t>(lane_idx[0]);
  for (int lane = 1; lane < 4; ++lane) {
    size_t index = static_cast<size_t>(lane_idx[lane]);
    if (lane_val[lane] > best_value ||
        (lane_val[lane] == best_value && index < best_index)) {
      best_value = lane_val[lane];
      best_index = index;
    }
  }
  for (; k < n; ++k) {
    if (values[k] > best_value) {
      best_value = values[k];
      best_index = k;
    }
  }
  return best_index;
}

const Kernels kAvx2Kernels = {
    "avx2",            OrPopcountAvx2,     MaskedSum64Avx2,
    MaskedSingleFactAvx2,
    WeightedSumAvx2,   WeightedAbsDevAvx2,
    GatherWeightedSumAvx2, GatherPositiveGainAvx2,
    MinUpdateAvx2,     ArgMaxAvx2,
};

#endif  // VQ_SIMD_X86

// --------------------------------------------------------------- AVX-512
// Eight-lane kernels guarded by __builtin_cpu_supports("avx512f") (plus
// popcnt); everything below sticks to the F foundation subset -- 512-bit
// floating-point AND/ANDNOT (a DQ extension) is spelled through the epi64
// forms, and no VL compactions are used. The big structural win over avx2:
// fault-suppressing masked loads (_mm512_maskz_loadu_pd) make tails and
// bitset masks first-class lane masks, so these kernels read only live data
// -- except masked_single_fact, which loads its block's (target, weight)
// pairs whole and relies on the caller's block padding.
#if VQ_SIMD_X86

// GCC's avx512fintrin.h builds even plain intrinsics (_mm512_max_pd, the
// gathers, the reduce helpers) on _mm512_undefined_pd(), which
// -W(maybe-)uninitialized flags once they inline into user code. An
// explicit zero pass-through operand cannot cover them all, so the whole
// section silences just those two warnings.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define VQ_AVX512 __attribute__((target("avx512f,popcnt")))

VQ_AVX512 inline __m512d Abs512(__m512d v) {
  // No _mm512_andnot_pd in AVX512F (that is DQ); same bit trick via epi64.
  return _mm512_castsi512_pd(_mm512_andnot_si512(
      _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ull)),
      _mm512_castpd_si512(v)));
}

/// Tail mask for the final `rem` (< 8) lanes.
VQ_AVX512 inline __mmask8 TailMask(size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1u);
}

/// The last `rem` (< 8) row indices of a row list, staged into `staged`
/// with the lanes past `rem` reading row 0: loading 8 indices when only
/// `rem` are live would read past the row list, and AVX-512F has no maskz
/// 256-bit integer load (that is VL). Row 0 exists whenever the list is
/// non-empty, so the pair loads over `staged` stay in bounds; callers mask
/// those lanes out with TailMask(rem), and gathers over it are masked.
VQ_AVX512 inline void StageTail(const uint32_t* rows, size_t rem, uint32_t staged[8]) {
  for (size_t k = 0; k < 8; ++k) staged[k] = 0;
  for (size_t k = 0; k < rem; ++k) staged[k] = rows[k];
}

/// Masked gather of base[idx[i]] for the lanes set in `m`; other lanes 0.
VQ_AVX512 inline __m512d MaskGather(const double* base, __m256i idx, __mmask8 m) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m, idx, base, 8);
}

/// The (target, weight) pairs of rows[0..7] split into a target and a
/// weight vector, as LoadPairs4: even rows' pairs in one register, odd
/// rows' in the other, so the in-lane unpacks yield rows 0..7 in order.
VQ_AVX512 inline void LoadPairs8(const double* target_weight, const uint32_t* rows,
                                 __m512d* target, __m512d* weight) {
  __m256d even_lo = _mm256_set_m128d(LoadPair(target_weight, rows[2]),
                                     LoadPair(target_weight, rows[0]));
  __m256d even_hi = _mm256_set_m128d(LoadPair(target_weight, rows[6]),
                                     LoadPair(target_weight, rows[4]));
  __m256d odd_lo = _mm256_set_m128d(LoadPair(target_weight, rows[3]),
                                    LoadPair(target_weight, rows[1]));
  __m256d odd_hi = _mm256_set_m128d(LoadPair(target_weight, rows[7]),
                                    LoadPair(target_weight, rows[5]));
  __m512d even = _mm512_insertf64x4(_mm512_castpd256_pd512(even_lo), even_hi, 1);
  __m512d odd = _mm512_insertf64x4(_mm512_castpd256_pd512(odd_lo), odd_hi, 1);
  *target = _mm512_unpacklo_pd(even, odd);
  *weight = _mm512_unpackhi_pd(even, odd);
}

VQ_AVX512 uint64_t OrPopcountAvx512(const uint64_t* const* sets, size_t num_sets,
                                    size_t num_words, uint64_t* covered) {
  uint64_t total = 0;
  size_t w = 0;
  if (num_sets > 0) {
    for (; w + 8 <= num_words; w += 8) {
      __m512i acc = _mm512_loadu_si512(sets[0] + w);
      for (size_t s = 1; s < num_sets; ++s) {
        acc = _mm512_or_si512(acc, _mm512_loadu_si512(sets[s] + w));
      }
      _mm512_storeu_si512(covered + w, acc);
      for (int i = 0; i < 8; ++i) {
        total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w + i]));
      }
    }
  }
  for (; w < num_words; ++w) {
    uint64_t acc = 0;
    for (size_t s = 0; s < num_sets; ++s) acc |= sets[s][w];
    covered[w] = acc;
    total += static_cast<uint64_t>(_mm_popcnt_u64(acc));
  }
  return total;
}

VQ_AVX512 double MaskedSum64Avx512(const double* block, uint64_t mask) {
  if (mask == 0) return 0.0;
  // Each byte of the row mask IS the lane mask of one maskz load: selected
  // lanes arrive, cleared lanes are architecturally zero and never touched.
  __m512d acc = _mm512_setzero_pd();
  for (int i = 0; i < 64; i += 8) {
    __mmask8 m = static_cast<__mmask8>((mask >> i) & 0xFF);
    if (m == 0) continue;
    acc = _mm512_add_pd(acc, _mm512_maskz_loadu_pd(m, block + i));
  }
  return _mm512_reduce_add_pd(acc);
}

VQ_AVX512 double MaskedSingleFactAvx512(double value, const double* target_weight,
                                        const double* prior_dev_weighted,
                                        uint64_t mask) {
  if (mask == 0) return 0.0;
  const __m512d vvalue = _mm512_set1_pd(value);
  const __m512i kEven = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
  const __m512i kOdd = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
  __m512d acc = _mm512_setzero_pd();
  for (int i = 0; i < 64; i += 8) {
    __mmask8 m = static_cast<__mmask8>((mask >> i) & 0xFF);
    if (m == 0) continue;
    // Rows i..i+7 as pairs, split into targets and weights in row order.
    // Whole pairs are loaded, so this kernel relies on the block padding.
    __m512d lo = _mm512_loadu_pd(target_weight + 2 * i);
    __m512d hi = _mm512_loadu_pd(target_weight + 2 * i + 8);
    __m512d fact_dev =
        _mm512_mul_pd(Abs512(_mm512_sub_pd(vvalue, _mm512_permutex2var_pd(lo, kEven, hi))),
                      _mm512_permutex2var_pd(lo, kOdd, hi));
    // maskz min: unselected lanes contribute exactly 0 whatever their
    // loaded pairs produced above.
    acc = _mm512_add_pd(
        acc, _mm512_maskz_min_pd(
                 m, fact_dev, _mm512_maskz_loadu_pd(m, prior_dev_weighted + i)));
  }
  return _mm512_reduce_add_pd(acc);
}

VQ_AVX512 double WeightedSumAvx512(const double* values, const double* weights,
                                   size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(values + i),
                           _mm512_loadu_pd(weights + i), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(values + i + 8),
                           _mm512_loadu_pd(weights + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(values + i),
                           _mm512_loadu_pd(weights + i), acc0);
  }
  if (i < n) {
    __mmask8 m = TailMask(n - i);
    acc0 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(m, values + i),
                           _mm512_maskz_loadu_pd(m, weights + i), acc0);
  }
  return _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
}

VQ_AVX512 double WeightedAbsDevAvx512(double center, const double* values,
                                      const double* weights, size_t n) {
  const __m512d vcenter = _mm512_set1_pd(center);
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512d d0 = Abs512(_mm512_sub_pd(vcenter, _mm512_loadu_pd(values + i)));
    __m512d d1 = Abs512(_mm512_sub_pd(vcenter, _mm512_loadu_pd(values + i + 8)));
    acc0 = _mm512_fmadd_pd(d0, _mm512_loadu_pd(weights + i), acc0);
    acc1 = _mm512_fmadd_pd(d1, _mm512_loadu_pd(weights + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    __m512d d = Abs512(_mm512_sub_pd(vcenter, _mm512_loadu_pd(values + i)));
    acc0 = _mm512_fmadd_pd(d, _mm512_loadu_pd(weights + i), acc0);
  }
  if (i < n) {
    __mmask8 m = TailMask(n - i);
    __m512d d = Abs512(_mm512_sub_pd(vcenter, _mm512_maskz_loadu_pd(m, values + i)));
    // The masked weight lanes are zero, so the |center - 0| garbage in the
    // unselected deviation lanes multiplies away.
    acc0 = _mm512_fmadd_pd(d, _mm512_maskz_loadu_pd(m, weights + i), acc0);
  }
  return _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
}

VQ_AVX512 double GatherWeightedSumAvx512(const double* dense,
                                         const uint32_t* rows,
                                         const double* target_weight, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  size_t k = 0;
  __m512d target, weight;
  for (; k + 8 <= n; k += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + k));
    LoadPairs8(target_weight, rows + k, &target, &weight);
    acc = _mm512_fmadd_pd(_mm512_i32gather_pd(idx, dense, 8), weight, acc);
  }
  if (k < n) {
    __mmask8 m = TailMask(n - k);
    alignas(32) uint32_t staged[8];
    StageTail(rows + k, n - k, staged);
    __m256i idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(staged));
    LoadPairs8(target_weight, staged, &target, &weight);
    acc = _mm512_fmadd_pd(MaskGather(dense, idx, m), _mm512_maskz_mov_pd(m, weight),
                          acc);
  }
  return _mm512_reduce_add_pd(acc);
}

VQ_AVX512 double GatherPositiveGainAvx512(const double* dense,
                                          const uint32_t* rows,
                                          const double* target_weight,
                                          double value, size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d vvalue = _mm512_set1_pd(value);
  __m512d acc = _mm512_setzero_pd();
  size_t k = 0;
  __m512d target, weight;
  for (; k + 8 <= n; k += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + k));
    LoadPairs8(target_weight, rows + k, &target, &weight);
    __m512d dev = Abs512(_mm512_sub_pd(vvalue, target));
    __m512d gain =
        _mm512_max_pd(_mm512_sub_pd(_mm512_i32gather_pd(idx, dense, 8), dev), zero);
    acc = _mm512_fmadd_pd(gain, weight, acc);
  }
  if (k < n) {
    __mmask8 m = TailMask(n - k);
    alignas(32) uint32_t staged[8];
    StageTail(rows + k, n - k, staged);
    __m256i idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(staged));
    LoadPairs8(target_weight, staged, &target, &weight);
    // Unselected lanes get a gain of 0 and a weight of 0, so they add
    // exactly +0.
    __m512d dev = Abs512(_mm512_sub_pd(vvalue, target));
    __m512d gain =
        _mm512_maskz_max_pd(m, _mm512_sub_pd(MaskGather(dense, idx, m), dev), zero);
    acc = _mm512_fmadd_pd(gain, _mm512_maskz_mov_pd(m, weight), acc);
  }
  return _mm512_reduce_add_pd(acc);
}

VQ_AVX512 double MinUpdateAvx512(double* dense, const uint32_t* rows,
                                 const double* target_weight, double value,
                                 size_t n) {
  const __m512d vvalue = _mm512_set1_pd(value);
  __m512d acc = _mm512_setzero_pd();
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + k));
    __m512d target, weight;
    LoadPairs8(target_weight, rows + k, &target, &weight);
    __m512d current = _mm512_i32gather_pd(idx, dense, 8);
    __m512d dv = Abs512(_mm512_sub_pd(vvalue, target));
    __mmask8 lowered = _mm512_cmp_pd_mask(dv, current, _CMP_LT_OQ);
    acc = _mm512_add_pd(
        acc, _mm512_maskz_mul_pd(lowered, _mm512_sub_pd(current, dv), weight));
    // Real scatter (unlike avx2's lane-by-lane stores), masked to the
    // lowered rows. Distinct CSR indices: the gather above never observes a
    // row this batch also writes.
    _mm512_mask_i32scatter_pd(dense, lowered, idx, dv, 8);
  }
  double reduction = _mm512_reduce_add_pd(acc);
  for (; k < n; ++k) {
    size_t r = rows[k];
    double current = dense[r];
    double dev = std::fabs(value - target_weight[2 * r]);
    if (dev < current) {
      reduction += (current - dev) * target_weight[2 * r + 1];
      dense[r] = dev;
    }
  }
  return reduction;
}

VQ_AVX512 size_t ArgMaxAvx512(const double* values, size_t n) {
  if (n < 16) return ArgMaxScalar(values, n);
  __m512d best = _mm512_loadu_pd(values);
  __m512i best_idx = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i kLane = best_idx;
  size_t k = 8;
  for (; k + 8 <= n; k += 8) {
    __m512d v = _mm512_loadu_pd(values + k);
    __m512i idx =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(k)), kLane);
    // Strictly-greater keeps the earliest occurrence within each lane.
    __mmask8 gt = _mm512_cmp_pd_mask(v, best, _CMP_GT_OQ);
    best = _mm512_mask_blend_pd(gt, best, v);
    best_idx = _mm512_mask_blend_epi64(gt, best_idx, idx);
  }
  alignas(64) double lane_val[8];
  alignas(64) int64_t lane_idx[8];
  _mm512_store_pd(lane_val, best);
  _mm512_store_si512(lane_idx, best_idx);
  // Cross-lane reduction: greatest value wins, the smaller index on ties, so
  // the overall result is the lowest index attaining the maximum.
  double best_value = lane_val[0];
  size_t best_index = static_cast<size_t>(lane_idx[0]);
  for (int lane = 1; lane < 8; ++lane) {
    size_t index = static_cast<size_t>(lane_idx[lane]);
    if (lane_val[lane] > best_value ||
        (lane_val[lane] == best_value && index < best_index)) {
      best_value = lane_val[lane];
      best_index = index;
    }
  }
  for (; k < n; ++k) {
    if (values[k] > best_value) {
      best_value = values[k];
      best_index = k;
    }
  }
  return best_index;
}

const Kernels kAvx512Kernels = {
    "avx512",            OrPopcountAvx512,     MaskedSum64Avx512,
    MaskedSingleFactAvx512,
    WeightedSumAvx512,   WeightedAbsDevAvx512,
    GatherWeightedSumAvx512, GatherPositiveGainAvx512,
    MinUpdateAvx512,     ArgMaxAvx512,
};

#pragma GCC diagnostic pop

#endif  // VQ_SIMD_X86

// ----------------------------------------------------------------- NEON
// aarch64 ships NEON in the baseline, so no target attributes or CPU probe
// are needed. Two-lane f64 kernels cover the dense reductions; the
// gather-shaped kernels keep the scalar loops (NEON has no gather, and the
// indexed loads dominate those kernels' cost).
#if VQ_SIMD_NEON

inline uint64x2_t LaneMask2(uint64_t two_bits) {
  const uint64x2_t kBitSelect = {1, 2};
  uint64x2_t sel = vandq_u64(vdupq_n_u64(two_bits), kBitSelect);
  return vceqq_u64(sel, kBitSelect);
}

uint64_t OrPopcountNeon(const uint64_t* const* sets, size_t num_sets,
                        size_t num_words, uint64_t* covered) {
  uint64_t total = 0;
  size_t w = 0;
  if (num_sets > 0) {
    for (; w + 2 <= num_words; w += 2) {
      uint64x2_t acc = vld1q_u64(sets[0] + w);
      for (size_t s = 1; s < num_sets; ++s) {
        acc = vorrq_u64(acc, vld1q_u64(sets[s] + w));
      }
      vst1q_u64(covered + w, acc);
      total += vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(acc)));
    }
  }
  for (; w < num_words; ++w) {
    uint64_t acc = 0;
    for (size_t s = 0; s < num_sets; ++s) acc |= sets[s][w];
    covered[w] = acc;
    total += static_cast<uint64_t>(std::popcount(acc));
  }
  return total;
}

double MaskedSum64Neon(const double* block, uint64_t mask) {
  if (mask == 0) return 0.0;
  float64x2_t acc = vdupq_n_f64(0.0);
  for (int i = 0; i < 64; i += 2) {
    uint64_t pair = (mask >> i) & 0x3;
    if (pair == 0) continue;
    float64x2_t lane = vreinterpretq_f64_u64(
        vandq_u64(LaneMask2(pair), vreinterpretq_u64_f64(vld1q_f64(block + i))));
    acc = vaddq_f64(acc, lane);
  }
  return vaddvq_f64(acc);
}

double WeightedSumNeon(const double* values, const double* weights, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(values + i), vld1q_f64(weights + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(values + i + 2), vld1q_f64(weights + i + 2));
  }
  double sum = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) sum += values[i] * weights[i];
  return sum;
}

double WeightedAbsDevNeon(double center, const double* values,
                          const double* weights, size_t n) {
  const float64x2_t vcenter = vdupq_n_f64(center);
  float64x2_t acc = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t dev = vabsq_f64(vsubq_f64(vcenter, vld1q_f64(values + i)));
    acc = vfmaq_f64(acc, dev, vld1q_f64(weights + i));
  }
  double sum = vaddvq_f64(acc);
  for (; i < n; ++i) sum += std::fabs(center - values[i]) * weights[i];
  return sum;
}

const Kernels kNeonKernels = {
    "neon",            OrPopcountNeon,     MaskedSum64Neon,
    MaskedSingleFactScalar,
    WeightedSumNeon,   WeightedAbsDevNeon,
    GatherWeightedSumScalar, GatherPositiveGainScalar,
    MinUpdateScalar,   ArgMaxScalar,
};

#endif  // VQ_SIMD_NEON

// -------------------------------------------------------------- dispatch

bool EnvForceScalar() {
  const char* env = std::getenv("VQ_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

#if VQ_SIMD_X86
// Probe EVERY feature a table's target attribute names: a CPU model (or
// emulation mask) can expose avx2 while hiding fma/popcnt, and handing out
// the table anyway would SIGILL on the first kernel call.
bool SupportsAvx512() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("popcnt");
}

bool SupportsAvx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("popcnt");
}
#endif

/// The best table this build + CPU can run (ignoring overrides).
const Kernels* BestSupported() {
#if VQ_SIMD_X86
  if (SupportsAvx512()) return &kAvx512Kernels;
  if (SupportsAvx2()) return &kAvx2Kernels;
#elif VQ_SIMD_NEON
  return &kNeonKernels;
#endif
  return &kScalarKernels;
}

/// One-shot selection: compile-time pin, then environment, then CPU probe.
const Kernels* Dispatch() {
#if defined(VQ_FORCE_SCALAR_BUILD)
  return &kScalarKernels;
#else
  if (EnvForceScalar()) return &kScalarKernels;
  return BestSupported();
#endif
}

std::atomic<const Kernels*> g_override{nullptr};

}  // namespace

const Kernels& Active() {
  // Latched on first use; the atomic override only serves benches/tests.
  static const Kernels* const selected = Dispatch();
  const Kernels* override_table = g_override.load(std::memory_order_acquire);
  return override_table != nullptr ? *override_table : *selected;
}

const Kernels& Scalar() { return kScalarKernels; }

const std::vector<const Kernels*>& AllImplementations() {
  static const std::vector<const Kernels*> all = [] {
    std::vector<const Kernels*> tables;
    tables.push_back(&kScalarKernels);
    // Vector tables are listed even in a VQ_FORCE_SCALAR build (they are
    // compiled either way) so equivalence tests always exercise them when
    // the CPU can run them; only Active()'s selection is pinned. EVERY
    // runnable table is listed, not just the dispatch winner -- on an
    // AVX-512 machine the avx2 table must stay under test too.
#if VQ_SIMD_X86
    if (SupportsAvx2()) tables.push_back(&kAvx2Kernels);
    if (SupportsAvx512()) tables.push_back(&kAvx512Kernels);
#elif VQ_SIMD_NEON
    tables.push_back(&kNeonKernels);
#endif
    return tables;
  }();
  return all;
}

const Kernels* ByName(const char* name) {
  for (const Kernels* table : AllImplementations()) {
    if (std::strcmp(table->name, name) == 0) return table;
  }
  return nullptr;
}

bool ForcedScalar() {
#if defined(VQ_FORCE_SCALAR_BUILD)
  return true;
#else
  return EnvForceScalar();
#endif
}

void SetActiveForTesting(const Kernels* kernels) {
  g_override.store(kernels, std::memory_order_release);
}

}  // namespace simd
}  // namespace vq
