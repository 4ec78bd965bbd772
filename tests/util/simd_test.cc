// Property tests for the SIMD kernel layer: every implementation the build +
// CPU can run must agree with the scalar fallback -- bit-exactly for the
// integer kernels (or_popcount, argmax, the values min_update stores) and to
// relative 1e-12 for the floating reductions (vector lanes reassociate) --
// and the evaluator/greedy consumers must agree with their *Reference paths
// under EVERY implementation. The gather kernels are further pinned bit for
// bit to each table's former kernels over materialized deviation and weight
// columns (the SimdLeanKernelsTest section at the end). The "simd-scalar"
// preset reruns this whole binary in a VQ_FORCE_SCALAR=ON build, covering
// the pinned configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "core/greedy.h"
#include "testing/kernel_override.h"
#include "testing/random_instance.h"
#include "util/simd.h"
#include "util/small_vector.h"

namespace vq {
namespace {

constexpr double kRelTol = 1e-12;

double Tol(double reference) { return kRelTol * std::max(1.0, std::fabs(reference)); }

/// Random dense array; mixes magnitudes so reassociation actually bites.
std::vector<double> RandomArray(Rng* rng, size_t n, double scale = 100.0) {
  std::vector<double> out(n);
  for (double& v : out) v = rng->NextUniform(-scale, scale);
  return out;
}

std::vector<double> RandomWeights(Rng* rng, size_t n) {
  std::vector<double> out(n);
  for (double& v : out) v = rng->NextUniform(0.0, 8.0);
  return out;
}

/// Random strictly-ascending row indices into a dense array of `dense_size`
/// (the CSR scope-list shape the gather kernels consume).
std::vector<uint32_t> RandomRows(Rng* rng, size_t n, size_t dense_size) {
  std::vector<uint32_t> all(dense_size);
  std::iota(all.begin(), all.end(), 0);
  for (size_t i = 0; i < n; ++i) {
    size_t j = i + static_cast<size_t>(rng->NextBelow(dense_size - i));
    std::swap(all[i], all[j]);
  }
  all.resize(n);
  std::sort(all.begin(), all.end());
  return all;
}

/// The interesting size boundaries: empty, below one vector, exact vector
/// multiples, odd tails, and big enough to exercise the unrolled loops.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 63, 64, 65, 257, 1000};

TEST(SimdKernelsTest, ScalarTableIsAlwaysFirstImplementation) {
  const auto& all = simd::AllImplementations();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all[0]->name, "scalar");
  EXPECT_EQ(simd::ByName("scalar"), &simd::Scalar());
  EXPECT_EQ(simd::ByName("no-such-table"), nullptr);
}

TEST(SimdKernelsTest, OrPopcountMatchesScalarExactly) {
  Rng rng(7);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t words : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{9},
                         size_t{64}, size_t{187}}) {
      for (size_t num_sets : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
        std::vector<std::vector<uint64_t>> sets(num_sets);
        std::vector<const uint64_t*> pointers;
        for (auto& set : sets) {
          set.resize(words);
          for (uint64_t& word : set) {
            // Mix sparse, dense and zero words.
            switch (rng.NextBelow(3)) {
              case 0: word = 0; break;
              case 1: word = rng.NextU64() & rng.NextU64() & rng.NextU64(); break;
              default: word = rng.NextU64(); break;
            }
          }
          pointers.push_back(set.data());
        }
        std::vector<uint64_t> covered_impl(words, 0xDEADBEEF);
        std::vector<uint64_t> covered_scalar(words, 0xFEEDFACE);
        uint64_t total_impl = impl->or_popcount(pointers.data(), num_sets, words,
                                                covered_impl.data());
        uint64_t total_scalar = simd::Scalar().or_popcount(
            pointers.data(), num_sets, words, covered_scalar.data());
        EXPECT_EQ(total_impl, total_scalar) << impl->name << " words=" << words;
        EXPECT_EQ(covered_impl, covered_scalar) << impl->name << " words=" << words;
      }
    }
  }
}

TEST(SimdKernelsTest, MaskedSum64MatchesScalar) {
  Rng rng(11);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    std::vector<double> block = RandomArray(&rng, 64);
    const uint64_t masks[] = {0ull,
                              1ull,
                              0x8000000000000000ull,
                              0xFFFFFFFFFFFFFFFFull,
                              0x5555555555555555ull,
                              0xAAAAAAAAAAAAAAAAull,
                              rng.NextU64(),
                              rng.NextU64() & rng.NextU64(),
                              rng.NextU64() | rng.NextU64()};
    for (uint64_t mask : masks) {
      double reference = simd::Scalar().masked_sum64(block.data(), mask);
      double got = impl->masked_sum64(block.data(), mask);
      EXPECT_NEAR(got, reference, Tol(reference)) << impl->name << " mask=" << mask;
    }
  }
}

/// Per-row target and weight columns as the kernels read them:
/// interleaved pairs, target[r] at 2r and weight[r] at 2r + 1.
std::vector<double> Interleave(const std::vector<double>& target,
                               const std::vector<double>& weight) {
  std::vector<double> pairs;
  for (size_t r = 0; r < target.size(); ++r) {
    pairs.push_back(target[r]);
    pairs.push_back(weight[r]);
  }
  return pairs;
}

TEST(SimdKernelsTest, MaskedSingleFactMatchesScalar) {
  Rng rng(29);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (int round = 0; round < 4; ++round) {
      std::vector<double> targets = RandomArray(&rng, 64);
      std::vector<double> weights = RandomWeights(&rng, 64);
      std::vector<double> target_weight = Interleave(targets, weights);
      // Weighted prior deviations straddling the fact deviations, so the
      // min() picks each side often (a lane-blend bug would surface here).
      std::vector<double> prior_dev_weighted(64);
      for (size_t i = 0; i < 64; ++i) {
        prior_dev_weighted[i] =
            weights[i] * std::fabs(rng.NextUniform(-120.0, 120.0) - targets[i]);
      }
      const uint64_t masks[] = {0ull,
                                1ull,
                                0x8000000000000000ull,
                                0xFFFFFFFFFFFFFFFFull,
                                0x5555555555555555ull,
                                0x00FF00FF00FF00FFull,
                                rng.NextU64(),
                                rng.NextU64() & rng.NextU64()};
      for (uint64_t mask : masks) {
        double value = rng.NextUniform(-120.0, 120.0);
        double reference = simd::Scalar().masked_single_fact(
            value, target_weight.data(), prior_dev_weighted.data(), mask);
        double got = impl->masked_single_fact(value, target_weight.data(),
                                              prior_dev_weighted.data(), mask);
        EXPECT_NEAR(got, reference, Tol(reference))
            << impl->name << " mask=" << mask;
      }
    }
  }
}

TEST(SimdKernelsTest, WeightedAbsDevMatchesScalar) {
  Rng rng(13);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t n : kSizes) {
      std::vector<double> values = RandomArray(&rng, n);
      std::vector<double> weights = RandomWeights(&rng, n);
      double center = rng.NextUniform(-50.0, 50.0);
      double ref_dev =
          simd::Scalar().weighted_abs_dev(center, values.data(), weights.data(), n);
      EXPECT_NEAR(impl->weighted_abs_dev(center, values.data(), weights.data(), n),
                  ref_dev, Tol(ref_dev))
          << impl->name << " n=" << n;
    }
  }
}

/// Per-row target and weight columns for the gather kernels, with targets
/// placed so that |value - target[r]| lands within 1 of dense[r]: the
/// max(0, gain) and min-update branches then flip often, and a
/// branchless-vs-branchy mismatch would surface.
struct GatherColumns {
  std::vector<double> dense, target, weight;
  std::vector<double> target_weight;  ///< Interleave(target, weight)
  std::vector<uint32_t> rows;
  double value = 0.0;
};

GatherColumns RandomGatherColumns(Rng* rng, size_t n, double scale = 100.0) {
  GatherColumns c;
  size_t dense_size = std::max<size_t>(n * 3, 16);
  c.dense = RandomArray(rng, dense_size, scale);
  for (double& d : c.dense) d = std::fabs(d);  // deviations are >= 0
  c.rows = RandomRows(rng, n, dense_size);
  c.weight = RandomWeights(rng, dense_size);
  c.value = rng->NextUniform(-scale, scale);
  c.target.resize(dense_size);
  for (size_t r = 0; r < dense_size; ++r) {
    double dev = c.dense[r] + rng->NextUniform(-1.0, 1.0);
    c.target[r] = rng->NextBelow(2) == 0 ? c.value + dev : c.value - dev;
  }
  c.target_weight = Interleave(c.target, c.weight);
  return c;
}

TEST(SimdKernelsTest, GatherReductionsMatchScalar) {
  Rng rng(17);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t n : kSizes) {
      GatherColumns c = RandomGatherColumns(&rng, n);
      double ref_sum = simd::Scalar().gather_weighted_sum(
          c.dense.data(), c.rows.data(), c.target_weight.data(), n);
      EXPECT_NEAR(impl->gather_weighted_sum(c.dense.data(), c.rows.data(),
                                            c.target_weight.data(), n),
                  ref_sum, Tol(ref_sum))
          << impl->name << " n=" << n;
      double ref_gain = simd::Scalar().gather_positive_gain(
          c.dense.data(), c.rows.data(), c.target_weight.data(), c.value, n);
      EXPECT_NEAR(impl->gather_positive_gain(c.dense.data(), c.rows.data(),
                                             c.target_weight.data(), c.value, n),
                  ref_gain, Tol(ref_gain))
          << impl->name << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, MinUpdateMatchesScalarAndStoresExactMinima) {
  Rng rng(19);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t n : kSizes) {
      GatherColumns c = RandomGatherColumns(&rng, n, 10.0);
      std::vector<double> dense_impl = c.dense;
      std::vector<double> dense_scalar = c.dense;
      double reduction_impl = impl->min_update(dense_impl.data(), c.rows.data(),
                                               c.target_weight.data(), c.value, n);
      double reduction_scalar = simd::Scalar().min_update(
          dense_scalar.data(), c.rows.data(), c.target_weight.data(), c.value, n);
      EXPECT_NEAR(reduction_impl, reduction_scalar, Tol(reduction_scalar))
          << impl->name << " n=" << n;
      // The stored minima are selections, not arithmetic: bit-exact.
      EXPECT_EQ(dense_impl, dense_scalar) << impl->name << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, ArgMaxMatchesScalarIncludingTies) {
  Rng rng(23);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t n : kSizes) {
      if (n == 0) continue;  // argmax requires n > 0
      std::vector<double> values = RandomArray(&rng, n);
      EXPECT_EQ(impl->argmax(values.data(), n),
                simd::Scalar().argmax(values.data(), n))
          << impl->name << " n=" << n;
      // Force exact duplicated maxima at random positions: the LOWEST index
      // must win regardless of which vector lane saw it.
      double peak = 1e6;
      size_t copies = 1 + rng.NextBelow(std::min<size_t>(n, 5));
      for (size_t c = 0; c < copies; ++c) {
        values[rng.NextBelow(n)] = peak;
      }
      EXPECT_EQ(impl->argmax(values.data(), n),
                simd::Scalar().argmax(values.data(), n))
          << impl->name << " n=" << n << " (ties)";
      // All-equal array: must return 0.
      std::fill(values.begin(), values.end(), 3.25);
      EXPECT_EQ(impl->argmax(values.data(), n), 0u) << impl->name << " n=" << n;
    }
  }
}

TEST(SimdSmallVectorTest, StaysInlineThenSpills) {
  SmallVector<double, 4> v;
  EXPECT_TRUE(v.empty());
  const double* inline_data = v.data();
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.data(), inline_data);  // still inline at capacity
  for (int i = 4; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);  // survived the spills
  v.clear();
  EXPECT_TRUE(v.empty());
  v.resize(7);
  EXPECT_EQ(v.size(), 7u);
}

// ---- Consumer equivalence under every implementation: the evaluator and
// greedy paths must produce *Reference-equal results no matter which kernel
// table dispatch hands them.

using testing::ScopedKernelOverride;

TEST(SimdEvaluatorEquivalenceTest, ErrorMatchesReferenceUnderEveryKernelTable) {
  const ConflictModel kModels[] = {ConflictModel::kClosest, ConflictModel::kFarthest,
                                   ConflictModel::kAverageScope,
                                   ConflictModel::kAverageAll};
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    ScopedKernelOverride override_kernels(impl);
    for (uint64_t seed : {3ull, 77ull}) {
      // Randomized catalogs: varying dimensions, cardinalities and rows
      // (including >64 so multi-word cover masks occur).
      testing::RandomProblem problem =
          testing::MakeRandomProblem(seed, 3, 4, 170, 25, 2);
      Rng rng(seed * 31 + 1);
      for (int trial = 0; trial < 25; ++trial) {
        std::vector<FactId> speech;
        size_t len = 1 + rng.NextBelow(4);
        for (size_t i = 0; i < len; ++i) {
          speech.push_back(
              static_cast<FactId>(rng.NextBelow(problem.catalog->NumFacts())));
        }
        for (ConflictModel model : kModels) {
          double reference = problem.evaluator->ErrorReference(speech, model);
          double got = problem.evaluator->Error(speech, model);
          EXPECT_NEAR(got, reference, Tol(reference))
              << impl->name << " seed=" << seed << " model "
              << ConflictModelName(model);
        }
      }
      // Single-fact utilities: same values AND same counter totals.
      PerfCounters fast_counters;
      PerfCounters reference_counters;
      std::vector<double> fast =
          problem.evaluator->SingleFactUtilities(&fast_counters);
      std::vector<double> reference =
          problem.evaluator->SingleFactUtilitiesReference(&reference_counters);
      ASSERT_EQ(fast.size(), reference.size());
      for (size_t f = 0; f < fast.size(); ++f) {
        EXPECT_NEAR(fast[f], reference[f], Tol(reference[f]))
            << impl->name << " fact " << f;
      }
      EXPECT_EQ(fast_counters.join_rows, reference_counters.join_rows) << impl->name;
      EXPECT_EQ(fast_counters.groups_joined, reference_counters.groups_joined)
          << impl->name;
    }
  }
}

TEST(SimdEvaluatorEquivalenceTest, GreedySolvesIdenticallyUnderEveryKernelTable) {
  for (uint64_t seed : {5ull, 123ull}) {
    testing::RandomProblem problem =
        testing::MakeRandomProblem(seed, 3, 3, 150, 30, 2);
    // Scalar is the oracle; every other table must pick the same facts and
    // charge the same counters (selection is argmax over gains that differ
    // only in the last ulps -- the instances are integer-valued, so exact
    // ties resolve identically through the lowest-index tie-break).
    SummaryResult oracle;
    {
      ScopedKernelOverride override_kernels(&simd::Scalar());
      oracle = GreedySummary(*problem.evaluator, GreedyOptions{});
    }
    for (const simd::Kernels* impl : simd::AllImplementations()) {
      ScopedKernelOverride override_kernels(impl);
      for (FactPruning pruning : {FactPruning::kNone, FactPruning::kOptimized}) {
        GreedyOptions options;
        options.pruning = pruning;
        SummaryResult result = GreedySummary(*problem.evaluator, options);
        EXPECT_EQ(result.facts, oracle.facts) << impl->name << " seed=" << seed;
        EXPECT_NEAR(result.error, oracle.error, Tol(oracle.error)) << impl->name;
        if (pruning == FactPruning::kNone) {
          EXPECT_EQ(result.counters.join_rows, oracle.counters.join_rows)
              << impl->name;
          EXPECT_EQ(result.counters.groups_joined, oracle.counters.groups_joined)
              << impl->name;
        }
      }
    }
  }
}

TEST(SimdDispatchTest, ImplementationListMatchesCpuFeatures) {
  // Every table the CPU can run must be listed (AllImplementations is the
  // coverage contract the property tests above iterate): a machine with
  // AVX-512F must test avx512 AND avx2, not just whichever dispatch picked.
#if defined(__x86_64__) || defined(__i386__)
  bool cpu_avx2 = __builtin_cpu_supports("avx2") &&
                  __builtin_cpu_supports("fma") &&
                  __builtin_cpu_supports("popcnt");
  bool cpu_avx512 =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("popcnt");
  EXPECT_EQ(simd::ByName("avx2") != nullptr, cpu_avx2);
  EXPECT_EQ(simd::ByName("avx512") != nullptr, cpu_avx512);
#else
  EXPECT_EQ(simd::ByName("avx512"), nullptr);
#endif
}

TEST(SimdDispatchTest, ForcedScalarReflectsBuildAndEnvironment) {
#if defined(VQ_FORCE_SCALAR_BUILD)
  EXPECT_TRUE(simd::ForcedScalar());
  EXPECT_STREQ(simd::Active().name, "scalar");
#else
  // Whatever dispatch picked must be one of the runnable tables.
  const simd::Kernels& active = simd::Active();
  bool known = false;
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    if (impl == &active) known = true;
  }
  EXPECT_TRUE(known);
  if (simd::ForcedScalar()) {
    EXPECT_STREQ(active.name, "scalar");
  }
#endif
}

// ---- Lean kernels vs the materialized-column formula, bit for bit.
//
// The gain kernels used to stream two per-entry columns the catalog
// materialized for every (group, row) scope entry: |value - target[r]| and
// weight[r], in CSR order. They now load each scope row's interleaved
// (target, weight) pair and derive the deviation in-register. The kernels
// below are the former kernels of each table, verbatim up to names, fed
// with those columns materialized here exactly as FactCatalog::Build wrote
// them. The masked single-fact kernel, which read separate block-padded
// target and weight columns, is kept the same way. Each runnable table must
// match its own former kernel in every bit: same association tree, same
// per-element values.

struct MaterializedKernels {
  const char* name;
  double (*gather_weighted_sum)(const double* dense, const uint32_t* rows,
                                const double* weights, size_t n);
  double (*gather_positive_gain)(const double* dense, const uint32_t* rows,
                                 const double* devs, const double* weights, size_t n);
  double (*min_update)(double* dense, const uint32_t* rows, const double* devs,
                       const double* weights, size_t n);
  double (*masked_single_fact)(double value, const double* targets,
                               const double* weights,
                               const double* prior_dev_weighted, uint64_t mask);
};

double MaterializedMaskedSingleFactScalar(double value, const double* targets,
                                          const double* weights,
                                          const double* prior_dev_weighted,
                                          uint64_t mask) {
  double sum = 0.0;
  while (mask != 0) {
    int i = std::countr_zero(mask);
    mask &= mask - 1;
    double fact_dev = std::fabs(value - targets[i]) * weights[i];
    sum += fact_dev < prior_dev_weighted[i] ? fact_dev : prior_dev_weighted[i];
  }
  return sum;
}

double MaterializedGatherWeightedSumScalar(const double* dense, const uint32_t* rows,
                                           const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) sum += dense[rows[k]] * weights[k];
  return sum;
}

double MaterializedGatherPositiveGainScalar(const double* dense, const uint32_t* rows,
                                            const double* devs, const double* weights,
                                            size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    double gain = dense[rows[k]] - devs[k];
    if (gain > 0.0) sum += gain * weights[k];
  }
  return sum;
}

double MaterializedMinUpdateScalar(double* dense, const uint32_t* rows,
                                   const double* devs, const double* weights, size_t n) {
  double reduction = 0.0;
  for (size_t k = 0; k < n; ++k) {
    double current = dense[rows[k]];
    if (devs[k] < current) {
      reduction += (current - devs[k]) * weights[k];
      dense[rows[k]] = devs[k];
    }
  }
  return reduction;
}

const MaterializedKernels kMaterializedScalar = {
    "scalar", MaterializedGatherWeightedSumScalar,
    MaterializedGatherPositiveGainScalar, MaterializedMinUpdateScalar,
    MaterializedMaskedSingleFactScalar};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VQ_TEST_AVX2 __attribute__((target("avx2,fma,popcnt")))

VQ_TEST_AVX2 inline double MaterializedHorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

VQ_TEST_AVX2 inline __m256d MaterializedGather4(const double* base, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
}

VQ_TEST_AVX2 double MaterializedGatherWeightedSumAvx2(const double* dense,
                                                      const uint32_t* rows,
                                                      const double* weights, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d gathered = MaterializedGather4(dense, idx);
    acc = _mm256_fmadd_pd(gathered, _mm256_loadu_pd(weights + k), acc);
  }
  double sum = MaterializedHorizontalSum(acc);
  for (; k < n; ++k) sum += dense[rows[k]] * weights[k];
  return sum;
}

VQ_TEST_AVX2 double MaterializedGatherPositiveGainAvx2(const double* dense,
                                                       const uint32_t* rows,
                                                       const double* devs,
                                                       const double* weights, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d gathered = MaterializedGather4(dense, idx);
    __m256d gain = _mm256_sub_pd(gathered, _mm256_loadu_pd(devs + k));
    gain = _mm256_max_pd(gain, zero);
    acc = _mm256_fmadd_pd(gain, _mm256_loadu_pd(weights + k), acc);
  }
  double sum = MaterializedHorizontalSum(acc);
  for (; k < n; ++k) {
    double gain = dense[rows[k]] - devs[k];
    if (gain > 0.0) sum += gain * weights[k];
  }
  return sum;
}

VQ_TEST_AVX2 double MaterializedMinUpdateAvx2(double* dense, const uint32_t* rows,
                                              const double* devs, const double* weights,
                                              size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d current = MaterializedGather4(dense, idx);
    __m256d dv = _mm256_loadu_pd(devs + k);
    __m256d lowered = _mm256_cmp_pd(dv, current, _CMP_LT_OQ);
    __m256d delta = _mm256_and_pd(
        lowered, _mm256_mul_pd(_mm256_sub_pd(current, dv),
                               _mm256_loadu_pd(weights + k)));
    acc = _mm256_add_pd(acc, delta);
    alignas(32) double updated[4];
    _mm256_store_pd(updated, _mm256_blendv_pd(current, dv, lowered));
    dense[rows[k]] = updated[0];
    dense[rows[k + 1]] = updated[1];
    dense[rows[k + 2]] = updated[2];
    dense[rows[k + 3]] = updated[3];
  }
  double reduction = MaterializedHorizontalSum(acc);
  for (; k < n; ++k) {
    double current = dense[rows[k]];
    if (devs[k] < current) {
      reduction += (current - devs[k]) * weights[k];
      dense[rows[k]] = devs[k];
    }
  }
  return reduction;
}

VQ_TEST_AVX2 double MaterializedMaskedSingleFactAvx2(double value,
                                                     const double* targets,
                                                     const double* weights,
                                                     const double* prior_dev_weighted,
                                                     uint64_t mask) {
  if (mask == 0) return 0.0;
  const __m256i kBitSelect = _mm256_set_epi64x(8, 4, 2, 1);
  const __m256d vvalue = _mm256_set1_pd(value);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d acc = _mm256_setzero_pd();
  for (int i = 0; i < 64; i += 4) {
    uint64_t nibble = (mask >> i) & 0xF;
    if (nibble == 0) continue;
    __m256i sel = _mm256_and_si256(
        _mm256_set1_epi64x(static_cast<long long>(nibble)), kBitSelect);
    __m256d lane_mask = _mm256_castsi256_pd(_mm256_cmpeq_epi64(sel, kBitSelect));
    __m256d fact_dev = _mm256_mul_pd(
        _mm256_andnot_pd(sign, _mm256_sub_pd(vvalue, _mm256_loadu_pd(targets + i))),
        _mm256_loadu_pd(weights + i));
    __m256d contrib =
        _mm256_min_pd(fact_dev, _mm256_loadu_pd(prior_dev_weighted + i));
    acc = _mm256_add_pd(acc, _mm256_and_pd(lane_mask, contrib));
  }
  return MaterializedHorizontalSum(acc);
}

const MaterializedKernels kMaterializedAvx2 = {
    "avx2", MaterializedGatherWeightedSumAvx2, MaterializedGatherPositiveGainAvx2,
    MaterializedMinUpdateAvx2, MaterializedMaskedSingleFactAvx2};

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#define VQ_TEST_AVX512 __attribute__((target("avx512f,popcnt")))

VQ_TEST_AVX512 inline __mmask8 MaterializedTailMask(size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1u);
}

VQ_TEST_AVX512 inline __m512d MaterializedGatherTail(const double* base,
                                                     const uint32_t* rows, size_t rem,
                                                     __mmask8 m) {
  alignas(32) uint32_t idx[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t k = 0; k < rem; ++k) idx[k] = rows[k];
  return _mm512_mask_i32gather_pd(
      _mm512_setzero_pd(), m,
      _mm256_load_si256(reinterpret_cast<const __m256i*>(idx)), base, 8);
}

VQ_TEST_AVX512 double MaterializedGatherWeightedSumAvx512(const double* dense,
                                                          const uint32_t* rows,
                                                          const double* weights,
                                                          size_t n) {
  __m512d acc = _mm512_setzero_pd();
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + k));
    acc = _mm512_fmadd_pd(_mm512_i32gather_pd(idx, dense, 8),
                          _mm512_loadu_pd(weights + k), acc);
  }
  if (k < n) {
    __mmask8 m = MaterializedTailMask(n - k);
    acc = _mm512_fmadd_pd(MaterializedGatherTail(dense, rows + k, n - k, m),
                          _mm512_maskz_loadu_pd(m, weights + k), acc);
  }
  return _mm512_reduce_add_pd(acc);
}

VQ_TEST_AVX512 double MaterializedGatherPositiveGainAvx512(const double* dense,
                                                           const uint32_t* rows,
                                                           const double* devs,
                                                           const double* weights,
                                                           size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d acc = _mm512_setzero_pd();
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + k));
    __m512d gain = _mm512_max_pd(
        _mm512_sub_pd(_mm512_i32gather_pd(idx, dense, 8), _mm512_loadu_pd(devs + k)),
        zero);
    acc = _mm512_fmadd_pd(gain, _mm512_loadu_pd(weights + k), acc);
  }
  if (k < n) {
    __mmask8 m = MaterializedTailMask(n - k);
    __m512d gain = _mm512_max_pd(
        _mm512_sub_pd(MaterializedGatherTail(dense, rows + k, n - k, m),
                      _mm512_maskz_loadu_pd(m, devs + k)),
        zero);
    acc = _mm512_fmadd_pd(gain, _mm512_maskz_loadu_pd(m, weights + k), acc);
  }
  return _mm512_reduce_add_pd(acc);
}

VQ_TEST_AVX512 double MaterializedMinUpdateAvx512(double* dense, const uint32_t* rows,
                                                  const double* devs,
                                                  const double* weights, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + k));
    __m512d current = _mm512_i32gather_pd(idx, dense, 8);
    __m512d dv = _mm512_loadu_pd(devs + k);
    __mmask8 lowered = _mm512_cmp_pd_mask(dv, current, _CMP_LT_OQ);
    acc = _mm512_add_pd(acc, _mm512_maskz_mul_pd(lowered, _mm512_sub_pd(current, dv),
                                                 _mm512_loadu_pd(weights + k)));
    _mm512_mask_i32scatter_pd(dense, lowered, idx, dv, 8);
  }
  double reduction = _mm512_reduce_add_pd(acc);
  for (; k < n; ++k) {
    double current = dense[rows[k]];
    if (devs[k] < current) {
      reduction += (current - devs[k]) * weights[k];
      dense[rows[k]] = devs[k];
    }
  }
  return reduction;
}

VQ_TEST_AVX512 double MaterializedMaskedSingleFactAvx512(
    double value, const double* targets, const double* weights,
    const double* prior_dev_weighted, uint64_t mask) {
  if (mask == 0) return 0.0;
  const __m512d vvalue = _mm512_set1_pd(value);
  __m512d acc = _mm512_setzero_pd();
  for (int i = 0; i < 64; i += 8) {
    __mmask8 m = static_cast<__mmask8>((mask >> i) & 0xFF);
    if (m == 0) continue;
    __m512d diff = _mm512_sub_pd(vvalue, _mm512_maskz_loadu_pd(m, targets + i));
    __m512d abs = _mm512_castsi512_pd(_mm512_andnot_si512(
        _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ull)),
        _mm512_castpd_si512(diff)));
    __m512d fact_dev = _mm512_mul_pd(abs, _mm512_maskz_loadu_pd(m, weights + i));
    acc = _mm512_add_pd(
        acc, _mm512_maskz_min_pd(
                 m, fact_dev, _mm512_maskz_loadu_pd(m, prior_dev_weighted + i)));
  }
  return _mm512_reduce_add_pd(acc);
}

#pragma GCC diagnostic pop

const MaterializedKernels kMaterializedAvx512 = {
    "avx512", MaterializedGatherWeightedSumAvx512,
    MaterializedGatherPositiveGainAvx512, MaterializedMinUpdateAvx512,
    MaterializedMaskedSingleFactAvx512};
#endif

/// The former kernels of `impl`'s table. NEON's gather kernels were (and
/// are) the scalar loops.
const MaterializedKernels& MaterializedFor(const simd::Kernels& impl) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (std::string(impl.name) == "avx2") return kMaterializedAvx2;
  if (std::string(impl.name) == "avx512") return kMaterializedAvx512;
#endif
  return kMaterializedScalar;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<uint64_t> out;
  for (double x : xs) out.push_back(Bits(x));
  return out;
}

/// One fact's per-entry columns exactly as FactCatalog::Build materialized
/// them: |value - target[r]| and weight[r] for each scope row r, in order.
struct MaterializedColumns {
  std::vector<double> devs, weights;
};

MaterializedColumns Materialize(const uint32_t* rows, size_t n, const double* target,
                                const double* weight, double value) {
  MaterializedColumns m;
  for (size_t k = 0; k < n; ++k) {
    m.devs.push_back(std::fabs(value - target[rows[k]]));
    m.weights.push_back(weight[rows[k]]);
  }
  return m;
}

/// Runs the three lean kernels of `impl` (over `target_weight`, the
/// interleaved target and weight) and their former counterparts over the
/// same inputs and expects identical bits: the two sums, the min-update
/// reduction and every stored deviation.
void ExpectLeanMatchesMaterialized(const simd::Kernels& impl, const double* dense,
                                   size_t dense_size, const uint32_t* rows, size_t n,
                                   const double* target, const double* weight,
                                   const double* target_weight, double value) {
  const MaterializedKernels& former = MaterializedFor(impl);
  MaterializedColumns m = Materialize(rows, n, target, weight, value);
  EXPECT_EQ(Bits(impl.gather_weighted_sum(dense, rows, target_weight, n)),
            Bits(former.gather_weighted_sum(dense, rows, m.weights.data(), n)))
      << "gather_weighted_sum";
  EXPECT_EQ(Bits(impl.gather_positive_gain(dense, rows, target_weight, value, n)),
            Bits(former.gather_positive_gain(dense, rows, m.devs.data(),
                                             m.weights.data(), n)))
      << "gather_positive_gain";
  std::vector<double> lean(dense, dense + dense_size);
  std::vector<double> materialized = lean;
  double lean_reduction = impl.min_update(lean.data(), rows, target_weight, value, n);
  double materialized_reduction = former.min_update(
      materialized.data(), rows, m.devs.data(), m.weights.data(), n);
  EXPECT_EQ(Bits(lean_reduction), Bits(materialized_reduction)) << "min_update";
  EXPECT_EQ(Bits(lean), Bits(materialized)) << "min_update stores";
}

TEST(SimdLeanKernelsTest, MatchMaterializedColumnsBitExactlyOnRandomArrays) {
  Rng rng(41);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    SCOPED_TRACE(impl->name);
    for (size_t n : kSizes) {
      SCOPED_TRACE("n=" + std::to_string(n));
      GatherColumns c = RandomGatherColumns(&rng, n);
      ExpectLeanMatchesMaterialized(*impl, c.dense.data(), c.dense.size(),
                                    c.rows.data(), n, c.target.data(),
                                    c.weight.data(), c.target_weight.data(), c.value);
    }
  }
}

TEST(SimdLeanKernelsTest, MatchMaterializedColumnsBitExactlyOnCatalogScopes) {
  // The catalog's own scope lists, values and instance columns: every fact
  // of random problems, against the prior deviations (the initialization
  // join) and against a column greedy has already lowered.
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    SCOPED_TRACE(impl->name);
    for (uint64_t seed : {5ull, 1234ull, 20210318ull}) {
      testing::RandomProblem problem = testing::MakeRandomProblem(seed, 3, 4, 300, 30, 2);
      const FactCatalog& catalog = *problem.catalog;
      const SummaryInstance& inst = *problem.instance;
      std::span<const double> prior_dev = problem.evaluator->PriorDeviations();
      std::span<const double> pairs = problem.evaluator->RowTargetWeights();
      std::vector<double> expected_pairs = Interleave(inst.target, inst.weight);
      ASSERT_EQ(pairs.size() % 128, 0u);  // whole 64-row blocks
      expected_pairs.resize(pairs.size(), 0.0);
      ASSERT_EQ(std::vector<double>(pairs.begin(), pairs.end()), expected_pairs);
      std::vector<double> lowered(prior_dev.begin(), prior_dev.end());
      for (FactId id = 0; id < catalog.NumFacts(); id += 7) {
        std::span<const uint32_t> scope = catalog.ScopeRows(id);
        (void)simd::Scalar().min_update(lowered.data(), scope.data(), pairs.data(),
                                        catalog.fact(id).value, scope.size());
      }
      for (FactId id = 0; id < catalog.NumFacts(); ++id) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " fact " + std::to_string(id));
        std::span<const uint32_t> scope = catalog.ScopeRows(id);
        double value = catalog.fact(id).value;
        ExpectLeanMatchesMaterialized(*impl, prior_dev.data(), prior_dev.size(),
                                      scope.data(), scope.size(), inst.target.data(),
                                      inst.weight.data(), pairs.data(), value);
        ExpectLeanMatchesMaterialized(*impl, lowered.data(), lowered.size(),
                                      scope.data(), scope.size(), inst.target.data(),
                                      inst.weight.data(), pairs.data(), value);
      }
    }
  }
}

TEST(SimdLeanKernelsTest, MaskedSingleFactMatchesSeparateColumnsBitExactly) {
  // The pair-reading kernel against each table's former kernel over
  // separate target and weight columns: same lanes, same association.
  Rng rng(43);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    SCOPED_TRACE(impl->name);
    const MaterializedKernels& former = MaterializedFor(*impl);
    for (int round = 0; round < 8; ++round) {
      std::vector<double> targets = RandomArray(&rng, 64);
      std::vector<double> weights = RandomWeights(&rng, 64);
      std::vector<double> target_weight = Interleave(targets, weights);
      std::vector<double> prior_dev_weighted(64);
      for (size_t i = 0; i < 64; ++i) {
        prior_dev_weighted[i] =
            weights[i] * std::fabs(rng.NextUniform(-120.0, 120.0) - targets[i]);
      }
      const uint64_t masks[] = {0ull, 1ull, 0x8000000000000000ull, ~0ull,
                                rng.NextU64(), rng.NextU64() & rng.NextU64()};
      for (uint64_t mask : masks) {
        double value = rng.NextUniform(-120.0, 120.0);
        EXPECT_EQ(Bits(impl->masked_single_fact(value, target_weight.data(),
                                                prior_dev_weighted.data(), mask)),
                  Bits(former.masked_single_fact(value, targets.data(), weights.data(),
                                                 prior_dev_weighted.data(), mask)))
            << "mask=" << mask;
      }
    }
  }
}

TEST(SimdLeanKernelsTest, SingleFactUtilitiesMatchMaterializedGainBitExactly) {
  // The evaluator's initialization join under each table equals that
  // table's former gain kernel over the prior deviations and the columns
  // Build used to materialize.
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    SCOPED_TRACE(impl->name);
    ScopedKernelOverride override_kernels(impl);
    const MaterializedKernels& former = MaterializedFor(*impl);
    for (uint64_t seed : {5ull, 1234ull}) {
      testing::RandomProblem problem = testing::MakeRandomProblem(seed, 3, 4, 300, 30, 2);
      const FactCatalog& catalog = *problem.catalog;
      const SummaryInstance& inst = *problem.instance;
      std::span<const double> prior_dev = problem.evaluator->PriorDeviations();
      std::vector<double> got = problem.evaluator->SingleFactUtilities();
      ASSERT_EQ(got.size(), catalog.NumFacts());
      for (FactId id = 0; id < catalog.NumFacts(); ++id) {
        std::span<const uint32_t> scope = catalog.ScopeRows(id);
        MaterializedColumns m = Materialize(scope.data(), scope.size(),
                                            inst.target.data(), inst.weight.data(),
                                            catalog.fact(id).value);
        double expected = former.gather_positive_gain(
            prior_dev.data(), scope.data(), m.devs.data(), m.weights.data(), scope.size());
        EXPECT_EQ(Bits(got[id]), Bits(expected)) << "fact " << id;
      }
    }
  }
}

}  // namespace
}  // namespace vq
