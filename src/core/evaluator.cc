#include "core/evaluator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/simd.h"
#include "util/small_vector.h"

namespace vq {

namespace {
/// Inline scratch capacity for speech-sized buffers: speeches are capped at
/// m = 3 facts in every paper configuration, so 8 keeps the exact search's
/// per-leaf Error() calls allocation-free with room to spare.
constexpr size_t kInlineSpeech = 8;
/// Inline capacity for the per-word cover mask (64-row blocks): 256 words =
/// 16384 rows on the stack (2 KiB), past which the scratch spills once.
constexpr size_t kInlineWords = 256;
}  // namespace

const std::array<uint64_t PerfCounters::*, PerfCounters::kNumFields>
    PerfCounters::kFields = {
        &PerfCounters::join_rows,      &PerfCounters::bound_rows,
        &PerfCounters::groups_joined,  &PerfCounters::groups_pruned,
        &PerfCounters::leaf_evals,     &PerfCounters::nodes_expanded,
        &PerfCounters::pruned_by_bound};

const std::array<const char*, PerfCounters::kNumFields>
    PerfCounters::kFieldNames = {"join_rows",     "bound_rows",
                                 "groups_joined", "groups_pruned",
                                 "leaf_evals",    "nodes_expanded",
                                 "pruned_by_bound"};

void PerfCounters::Add(const PerfCounters& other) {
  for (auto field : kFields) this->*field += other.*field;
}

PerfCounters PerfCounters::Merged(const PerfCounters& other) const {
  PerfCounters out = *this;
  out.Add(other);
  return out;
}

Evaluator::Evaluator(const SummaryInstance* instance, const FactCatalog* catalog)
    : instance_(instance), catalog_(catalog) {
  base_error_ = instance_->BaseError();
  const SummaryInstance& inst = *instance_;
  size_t words = (inst.num_rows + 63) / 64;
  prior_dev_.resize(inst.num_rows);
  // Zero-padded to whole blocks for the masked block-sum and single-fact
  // kernels (see header).
  prior_dev_weighted_.assign(words * 64, 0.0);
  row_target_weight_.assign(2 * words * 64, 0.0);
  prior_block_weighted_.assign(words, 0.0);
  for (size_t r = 0; r < inst.num_rows; ++r) {
    row_target_weight_[2 * r] = inst.target[r];
    row_target_weight_[2 * r + 1] = inst.weight[r];
    prior_dev_[r] = std::fabs(inst.prior - inst.target[r]);
    max_prior_dev_ = std::max(max_prior_dev_, prior_dev_[r]);
    prior_dev_weighted_[r] = prior_dev_[r] * inst.weight[r];
    prior_block_weighted_[r >> 6] += prior_dev_weighted_[r];
  }
}

double Evaluator::Error(std::span<const FactId> speech, ConflictModel model) const {
  const SummaryInstance& inst = *instance_;
  if (speech.empty()) return base_error_;
  if (!catalog_->HasScopeBits()) return ErrorReference(speech, model);

  // Word-at-a-time over the speech facts' scope bitsets: one fused
  // OR+popcount kernel pass builds the cover mask, uncovered 64-row blocks
  // reduce to one precomputed sum, uncovered rows inside covered blocks
  // reduce with the masked block-sum kernel, and only covered rows resolve
  // conflicts through the same ExpectedValue as the reference path. All
  // scratch lives in stack-inline buffers: this runs once per exact-search
  // leaf and once per served speech, so it must not allocate.
  const simd::Kernels& kernels = simd::Active();
  size_t words = catalog_->ScopeWords();
  SmallVector<const uint64_t*, kInlineSpeech> bits;
  SmallVector<double, kInlineSpeech> all_values;
  for (FactId id : speech) {
    bits.push_back(catalog_->ScopeBits(id).data());
    all_values.push_back(catalog_->fact(id).value);
  }
  SmallVector<uint64_t, kInlineWords> covered(words);
  uint64_t covered_rows =
      kernels.or_popcount(bits.data(), bits.size(), words, covered.data());
  // A speech whose facts cover no row leaves every expectation at the
  // prior: the fused popcount answers that without touching a block.
  if (covered_rows == 0) return base_error_;

  SmallVector<double, kInlineSpeech> relevant;
  std::span<const double> all_span(all_values.data(), all_values.size());
  double error = 0.0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t cover = covered[w];
    if (cover == 0) {
      error += prior_block_weighted_[w];
      continue;
    }
    size_t base = w << 6;
    // Uncovered rows of a partially covered block: one masked kernel sum.
    // Bits past num_rows select only the array's zero padding.
    error += kernels.masked_sum64(prior_dev_weighted_.data() + base, ~cover);
    // Under kClosest (the optimization model, so the exact search's leaf
    // path), rows covered by exactly ONE fact need no conflict resolution:
    // the listener picks that fact's value or the prior, whichever is
    // closer, so the row contributes min(weighted fact deviation, weighted
    // prior deviation) -- one branchless masked kernel call per (fact,
    // word). The incremental OR below separates those rows from the
    // multi-fact ones, which keep the row-at-a-time ExpectedValue loop.
    if (model == ConflictModel::kClosest && bits.size() > 1) {
      uint64_t acc = 0;
      uint64_t multi = 0;
      for (size_t f = 0; f < bits.size(); ++f) {
        multi |= acc & bits[f][w];
        acc |= bits[f][w];
      }
      uint64_t single = cover & ~multi;
      for (size_t f = 0; f < bits.size() && single != 0; ++f) {
        uint64_t mine = bits[f][w] & single;
        if (mine == 0) continue;
        single &= ~mine;
        error += kernels.masked_single_fact(all_values[f],
                                            row_target_weight_.data() + 2 * base,
                                            prior_dev_weighted_.data() + base, mine);
      }
      cover = multi;
    } else if (model == ConflictModel::kClosest && bits.size() == 1) {
      // A one-fact speech: every covered row is single-covered.
      error += kernels.masked_single_fact(all_values[0],
                                          row_target_weight_.data() + 2 * base,
                                          prior_dev_weighted_.data() + base, cover);
      continue;
    }
    // Covered rows resolve conflicting facts row by row (semantic core).
    while (cover != 0) {
      size_t r = base + static_cast<size_t>(std::countr_zero(cover));
      cover &= cover - 1;
      uint64_t bit = uint64_t{1} << (r - base);
      relevant.clear();
      for (size_t f = 0; f < bits.size(); ++f) {
        if (bits[f][w] & bit) relevant.push_back(all_values[f]);
      }
      double expected =
          ExpectedValue(model, {relevant.data(), relevant.size()}, all_span,
                        inst.prior, inst.target[r]);
      error += std::fabs(expected - inst.target[r]) * inst.weight[r];
    }
  }
  return error;
}

double Evaluator::ErrorReference(std::span<const FactId> speech,
                                 ConflictModel model) const {
  const SummaryInstance& inst = *instance_;
  double error = 0.0;
  std::vector<double> relevant;
  std::vector<double> all_values;
  all_values.reserve(speech.size());
  for (FactId id : speech) all_values.push_back(catalog_->fact(id).value);
  for (size_t r = 0; r < inst.num_rows; ++r) {
    relevant.clear();
    for (FactId id : speech) {
      if (catalog_->RowInScope(r, id)) relevant.push_back(catalog_->fact(id).value);
    }
    double expected =
        ExpectedValue(model, relevant, all_values, inst.prior, inst.target[r]);
    error += std::fabs(expected - inst.target[r]) * inst.weight[r];
  }
  return error;
}

double Evaluator::Utility(std::span<const FactId> speech, ConflictModel model) const {
  return base_error_ - Error(speech, model);
}

std::vector<double> Evaluator::RowExpectationsReference(
    std::span<const FactId> speech, ConflictModel model) const {
  const SummaryInstance& inst = *instance_;
  std::vector<double> out(inst.num_rows, inst.prior);
  std::vector<double> relevant;
  std::vector<double> all_values;
  for (FactId id : speech) all_values.push_back(catalog_->fact(id).value);
  for (size_t r = 0; r < inst.num_rows; ++r) {
    relevant.clear();
    for (FactId id : speech) {
      if (catalog_->RowInScope(r, id)) relevant.push_back(catalog_->fact(id).value);
    }
    out[r] = ExpectedValue(model, relevant, all_values, inst.prior, inst.target[r]);
  }
  return out;
}

std::vector<double> Evaluator::RowExpectations(std::span<const FactId> speech,
                                               ConflictModel model) const {
  const SummaryInstance& inst = *instance_;
  std::vector<double> out(inst.num_rows, inst.prior);
  if (speech.empty()) return out;
  if (!catalog_->HasScopeBits()) return RowExpectationsReference(speech, model);
  const simd::Kernels& kernels = simd::Active();
  size_t words = catalog_->ScopeWords();
  SmallVector<const uint64_t*, kInlineSpeech> bits;
  SmallVector<double, kInlineSpeech> all_values;
  for (FactId id : speech) {
    bits.push_back(catalog_->ScopeBits(id).data());
    all_values.push_back(catalog_->fact(id).value);
  }
  SmallVector<uint64_t, kInlineWords> covered(words);
  uint64_t covered_rows =
      kernels.or_popcount(bits.data(), bits.size(), words, covered.data());
  if (covered_rows == 0) return out;  // nothing in scope: all rows keep the prior
  SmallVector<double, kInlineSpeech> relevant;
  std::span<const double> all_span(all_values.data(), all_values.size());
  for (size_t w = 0; w < words; ++w) {
    uint64_t cover = covered[w];
    // Uncovered rows keep the prior they were initialized with.
    size_t base = w << 6;
    while (cover != 0) {
      size_t r = base + static_cast<size_t>(std::countr_zero(cover));
      cover &= cover - 1;
      uint64_t bit = uint64_t{1} << (r - base);
      relevant.clear();
      for (size_t f = 0; f < bits.size(); ++f) {
        if (bits[f][w] & bit) relevant.push_back(all_values[f]);
      }
      out[r] = ExpectedValue(model, {relevant.data(), relevant.size()}, all_span,
                             inst.prior, inst.target[r]);
    }
  }
  return out;
}

std::vector<double> Evaluator::SingleFactUtilities(PerfCounters* counters) const {
  // The initialization join of Algorithm 1, Line 6, as pure kernel work: per
  // fact, walk its CSR scope rows and gather each row's prior deviation,
  // target and weight -- the same kernel the greedy gain loops run over
  // their current deviation column.
  const simd::Kernels& kernels = simd::Active();
  const double* target_weight = row_target_weight_.data();
  std::vector<double> utilities(catalog_->NumFacts(), 0.0);
  for (uint32_t g = 0; g < catalog_->NumGroups(); ++g) {
    const FactGroup& group = catalog_->group(g);
    for (uint32_t i = 0; i < group.num_facts; ++i) {
      FactId id = group.first_fact + i;
      std::span<const uint32_t> scope = catalog_->ScopeRows(id);
      utilities[id] = kernels.gather_positive_gain(prior_dev_.data(), scope.data(),
                                                   target_weight,
                                                   catalog_->fact(id).value, scope.size());
      // Scope popcounts within a group sum to the block size, so this
      // charges exactly what the seed's one-pass-per-group join charged.
      if (counters != nullptr) counters->join_rows += scope.size();
    }
    if (counters != nullptr) ++counters->groups_joined;
  }
  return utilities;
}

double Evaluator::SingleFactUtilityBound(FactId id) const {
  // Each term of the gain is max(0, |p - t| - |v - t|) * w <= |p - v| * w
  // (triangle inequality), so in exact arithmetic the gain is at most
  // W * |p - v| with W the scope weight. The kernels round, though, and the
  // bound must hold for the COMPUTED gain of every table. With u = 2^-53,
  // a = fl(|p - t|) (the prior deviation, a <= M := max_prior_dev_) and
  // b = fl(|v - t|):
  //   a - b <= |p - t|(1 + u) - |v - t|(1 - u)
  //         <= |p - v| + u(|p - t| + |v - t|)
  //         <= |p - v|(1 + u) + 2u|p - t|          (|v - t| <= |v - p| + |p - t|)
  //         <= (D(1 + u) + 2uM) / (1 - u)          (D = fl(|p - v|) >= |p - v|(1 - u),
  //                                                  |p - t| <= a / (1 - u))
  // so the rounded term fl(a - b) <= (D + 2uM)(1 + u)^2 / (1 - u). The
  // absolute part 2uM is essential: when v ~ p and |t| >> |p|, a and b
  // round to different neighbours and fl(a - b) is an ulp of t, far above
  // |p - v| (tests/core/greedy_test.cc builds exactly that case).
  // Summation: all terms are >= 0 and every kernel rounds each term at most
  // n + 4 times on its way into the result (its product or FMA, then the
  // additions on its path: scalar <= n sequential adds, avx2 <= n/4 lane
  // FMAs + a horizontal sum + a 3-term tail, avx512 <= n/8 + 1 lane FMAs + a
  // 3-level reduction), so the computed sum is <= (1 + u)^(n + 4) times the
  // exact one. The catalog's W sums the same n weights sequentially, so the
  // true weight total is <= W / (1 - u)^n. Altogether the computed gain is
  //   <= W (D + 2uM) (1 + u)^(n + 6) / (1 - u)^(n + 1)
  //   <= W (D + 2uM) (1 + 1.02 (2n + 7) u)        (n u < 1e-3),
  // and the factor 1 + 4(n + 8)u below also absorbs the four roundings of
  // evaluating the bound itself. Underflow (subnormal slack) only affects
  // gains far below greedy's 1e-12 stopping threshold.
  //
  // Targets read from a CSV may be "nan" or "inf", which can make the
  // formula NaN. The kernels never return a NaN gain (a NaN term is
  // dropped), so +inf is then a valid bound -- and it keeps the lazy
  // queue's ordering strict.
  constexpr double kUnitRoundoff = 0x1p-53;
  const Fact& fact = catalog_->fact(id);
  double n = static_cast<double>(catalog_->ScopeRows(id).size());
  double deviation = std::fabs(instance_->prior - fact.value);
  double bound = fact.scope_weight * (deviation + 2.0 * kUnitRoundoff * max_prior_dev_) *
                 (1.0 + 4.0 * (n + 8.0) * kUnitRoundoff);
  return std::isnan(bound) ? std::numeric_limits<double>::infinity() : bound;
}

std::vector<double> Evaluator::SingleFactUtilitiesReference(
    PerfCounters* counters) const {
  const SummaryInstance& inst = *instance_;
  std::vector<double> utilities(catalog_->NumFacts(), 0.0);
  // A local base: RowFacts' acquire load would otherwise make the compiler
  // reload the vector's data pointer inside the row loop.
  double* utility = utilities.data();
  for (uint32_t g = 0; g < catalog_->NumGroups(); ++g) {
    std::span<const FactId> row_fact = catalog_->RowFacts(g);
    for (size_t r = 0; r < inst.num_rows; ++r) {
      FactId id = row_fact[r];
      double prior_dev = std::fabs(inst.prior - inst.target[r]);
      double fact_dev = std::fabs(catalog_->fact(id).value - inst.target[r]);
      double gain = prior_dev - fact_dev;
      if (gain > 0.0) utility[id] += gain * inst.weight[r];
    }
    if (counters != nullptr) {
      counters->join_rows += inst.num_rows;
      ++counters->groups_joined;
    }
  }
  return utilities;
}

GreedyState::GreedyState(const Evaluator& evaluator) : evaluator_(&evaluator) {
  // The evaluator already computed both the per-row prior deviations and
  // their weighted sum (same terms, same order -- bit-identical).
  std::span<const double> prior_dev = evaluator.PriorDeviations();
  row_deviation_.assign(prior_dev.begin(), prior_dev.end());
  current_error_ = evaluator.BaseError();
}

std::pair<double, FactId> GreedyState::AccumulateGroupGains(
    uint32_t group_index, std::vector<double>* gains, PerfCounters* counters) const {
  const SummaryInstance& inst = evaluator_->instance();
  const FactCatalog& catalog = evaluator_->catalog();
  const FactGroup& group = catalog.group(group_index);
  const simd::Kernels& kernels = simd::Active();
  // Per fact, the same positive-gain kernel as the initialization join, with
  // the CURRENT deviation column gathered instead of the prior one. The
  // group's scopes partition the rows, so total work (and the counter
  // charge) is one pass over the instance block, like the seed join.
  for (uint32_t i = 0; i < group.num_facts; ++i) {
    FactId id = group.first_fact + i;
    (*gains)[id] += FactGain(id);
  }
  if (counters != nullptr) {
    counters->join_rows += inst.num_rows;
    ++counters->groups_joined;
  }
  if (group.num_facts == 0) return {-1.0, kNoFact};
  // Argmax with lowest-index tie-break over the group's contiguous gain
  // slice -- the same fact the seed's strict `>` scan selected.
  size_t best =
      kernels.argmax(gains->data() + group.first_fact, group.num_facts);
  FactId best_fact = group.first_fact + static_cast<FactId>(best);
  return {(*gains)[best_fact], best_fact};
}

double GreedyState::FactGain(FactId id) const {
  const FactCatalog& catalog = evaluator_->catalog();
  std::span<const uint32_t> scope = catalog.ScopeRows(id);
  return simd::Active().gather_positive_gain(
      row_deviation_.data(), scope.data(), evaluator_->RowTargetWeights().data(),
      catalog.fact(id).value, scope.size());
}

double GreedyState::GroupUtilityBound(uint32_t group_index,
                                      PerfCounters* counters) const {
  const SummaryInstance& inst = evaluator_->instance();
  const FactCatalog& catalog = evaluator_->catalog();
  const FactGroup& group = catalog.group(group_index);
  const simd::Kernels& kernels = simd::Active();
  // Adding a fact can at most zero out the current deviation within its
  // scope, so sum(current deviation within scope) bounds the gain: one
  // gathered weighted-sum kernel call per fact (Algorithm 3, Line 15 -- a
  // group-by without a join), max over the group's facts.
  double bound = 0.0;
  for (uint32_t i = 0; i < group.num_facts; ++i) {
    FactId id = group.first_fact + i;
    std::span<const uint32_t> scope = catalog.ScopeRows(id);
    double scope_error = kernels.gather_weighted_sum(
        row_deviation_.data(), scope.data(), evaluator_->RowTargetWeights().data(),
        scope.size());
    bound = std::max(bound, scope_error);
  }
  if (counters != nullptr) counters->bound_rows += inst.num_rows;
  return bound;
}

void GreedyState::ApplyFact(FactId id) {
  const FactCatalog& catalog = evaluator_->catalog();
  // Only rows within the fact's scope can change; the min-update kernel
  // visits exactly those (ascending, like the seed's full scan did) and
  // returns the weighted error reduction in one pass.
  std::span<const uint32_t> scope = catalog.ScopeRows(id);
  current_error_ -= simd::Active().min_update(
      row_deviation_.data(), scope.data(), evaluator_->RowTargetWeights().data(),
      catalog.fact(id).value, scope.size());
}

}  // namespace vq
