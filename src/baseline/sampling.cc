#include "baseline/sampling.h"

#include <algorithm>
#include <cmath>

#include "util/stopwatch.h"

namespace vq {

namespace {

/// Error of spoken estimates under the closest-value expectation model,
/// evaluated against the true rows.
double TrueError(const Evaluator& evaluator, const std::vector<RangeFact>& facts) {
  const SummaryInstance& inst = evaluator.instance();
  const FactCatalog& catalog = evaluator.catalog();
  double error = 0.0;
  for (size_t r = 0; r < inst.num_rows; ++r) {
    double actual = inst.target[r];
    double best_dev = std::fabs(inst.prior - actual);
    for (const RangeFact& fact : facts) {
      if (!catalog.RowInScope(r, fact.id)) continue;
      best_dev = std::min(best_dev, std::fabs(fact.estimate - actual));
    }
    error += best_dev * inst.weight[r];
  }
  return error;
}

}  // namespace

BaselineResult SamplingVocalizer::Run(const Evaluator& evaluator, Rng* rng) const {
  Stopwatch watch;
  BaselineResult result;
  result.base_error = evaluator.BaseError();

  const SummaryInstance& inst = evaluator.instance();
  const FactCatalog& catalog = evaluator.catalog();
  if (catalog.NumFacts() == 0 || inst.num_rows == 0) {
    result.error = result.base_error;
    result.utility = 0.0;
    return result;
  }

  // Value range for Hoeffding-style confidence intervals.
  double lo = inst.target[0];
  double hi = inst.target[0];
  for (double v : inst.target) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  double value_range = std::max(1e-9, hi - lo);

  // Cumulative weights for weighted row sampling (merged rows carry
  // multiplicities; sampling must reflect the original relation).
  std::vector<double> cumulative(inst.num_rows);
  double total = 0.0;
  for (size_t r = 0; r < inst.num_rows; ++r) {
    total += inst.weight[r];
    cumulative[r] = total;
  }
  auto sample_row = [&]() -> size_t {
    double draw = rng->NextDouble() * total;
    return static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), draw) -
        cumulative.begin());
  };

  // Per-fact sample statistics.
  std::vector<double> sum(catalog.NumFacts(), 0.0);
  std::vector<double> count(catalog.NumFacts(), 0.0);
  std::vector<uint32_t> sampled_rows;
  std::vector<bool> committed(catalog.NumFacts(), false);

  for (size_t round = 0; round < options_.max_rounds; ++round) {
    for (size_t b = 0; b < options_.batch_rows; ++b) {
      size_t r = sample_row();
      sampled_rows.push_back(static_cast<uint32_t>(r));
      for (uint32_t g = 0; g < catalog.NumGroups(); ++g) {
        FactId id = catalog.RowFacts(g)[r];
        sum[id] += inst.target[r];
        count[id] += 1.0;
      }
    }
    result.rows_sampled += options_.batch_rows;

    // Greedy fact choice on the sample: per-sampled-row deviation given the
    // committed facts' estimates, then the estimated gain of each candidate.
    std::vector<double> gains(catalog.NumFacts(), 0.0);
    std::vector<double> estimate(catalog.NumFacts(), 0.0);
    for (FactId f = 0; f < catalog.NumFacts(); ++f) {
      estimate[f] = count[f] > 0.0 ? sum[f] / count[f] : inst.prior;
    }
    for (uint32_t r : sampled_rows) {
      double actual = inst.target[r];
      double current = std::fabs(inst.prior - actual);
      for (const RangeFact& fact : result.facts) {
        if (catalog.RowInScope(r, fact.id)) {
          current = std::min(current, std::fabs(fact.estimate - actual));
        }
      }
      for (uint32_t g = 0; g < catalog.NumGroups(); ++g) {
        FactId id = catalog.RowFacts(g)[r];
        if (committed[id]) continue;
        double gain = current - std::fabs(estimate[id] - actual);
        if (gain > 0.0) gains[id] += gain;
      }
    }

    FactId best = kNoFact;
    double best_gain = 0.0;
    for (FactId f = 0; f < catalog.NumFacts(); ++f) {
      if (committed[f] || count[f] == 0.0) continue;
      if (gains[f] > best_gain) {
        best_gain = gains[f];
        best = f;
      }
    }
    if (best == kNoFact) continue;

    // Commit when the CI half-width is small relative to the value range.
    double half_width =
        options_.confidence_z * value_range / (2.0 * std::sqrt(count[best]));
    if (half_width <= options_.commit_ci_fraction * value_range) {
      RangeFact fact;
      fact.id = best;
      fact.estimate = estimate[best];
      fact.low = estimate[best] - half_width;
      fact.high = estimate[best] + half_width;
      result.facts.push_back(fact);
      committed[best] = true;
      if (result.facts.size() == 1) result.latency_seconds = watch.ElapsedSeconds();
      if (static_cast<int>(result.facts.size()) >= options_.max_facts) break;
    }
  }

  result.total_seconds = watch.ElapsedSeconds();
  if (result.facts.empty()) result.latency_seconds = result.total_seconds;
  result.error = TrueError(evaluator, result.facts);
  result.utility = result.base_error - result.error;
  return result;
}

}  // namespace vq
