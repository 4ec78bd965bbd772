#include "engine/preprocessor.h"

#include <algorithm>
#include <numeric>

#include "util/simd.h"
#include "util/stopwatch.h"

namespace vq {

namespace {

/// Scope entries FactCatalog::Build is expected to write for `query`: the
/// rows its rarest predicate selects (the whole table without predicates)
/// times the fact groups over the dimensions it leaves free. An upper bound
/// (the instance merges rows), good enough to order problems by size.
uint64_t EstimatedScopeEntries(const Table& table, const VoiceQuery& query,
                               int max_fact_dims) {
  uint64_t rows = table.NumRows();
  for (const EqPredicate& predicate : query.predicates) {
    rows = std::min<uint64_t>(
        rows, table.index().Count(static_cast<size_t>(predicate.dim), predicate.value));
  }
  uint64_t free_dims = table.NumDims() - query.predicates.size();
  uint64_t groups = 0;
  uint64_t binomial = 1;  // free_dims choose k
  for (uint64_t k = 0; k <= static_cast<uint64_t>(max_fact_dims) && k <= free_dims; ++k) {
    groups += binomial;
    binomial = binomial * (free_dims - k) / (k + 1);
  }
  return rows * groups;
}

}  // namespace

Result<SpeechStore> Preprocess(const Table& table, const Configuration& config,
                               const PreprocessOptions& options,
                               PreprocessStats* stats) {
  Stopwatch watch;
  VQ_ASSIGN_OR_RETURN(ProblemGenerator generator,
                      ProblemGenerator::Create(&table, config));
  std::vector<VoiceQuery> queries = generator.GenerateQueries();

  SummarizerOptions summarizer;
  summarizer.max_facts = config.max_facts;
  summarizer.max_fact_dims = config.max_fact_dims;
  summarizer.algorithm = options.algorithm;
  summarizer.exact_timeout_seconds = options.exact_timeout_seconds;
  summarizer.instance.prior_kind = config.prior;
  summarizer.instance.prior_value = config.prior_value;

  std::vector<std::unique_ptr<StoredSpeech>> results(queries.size());
  std::vector<double> solve_seconds(queries.size(), 0.0);
  // Every problem's slice walks the table's posting lists; building the
  // inverted index once up front keeps the first wave of parallel solves
  // from serializing on the lazy build. The build itself runs one dimension
  // per task on SharedPool() (util/thread_pool.h), with this thread building
  // dimensions too. Warmed even with zero generated queries: pre-processing
  // is the dynamic registry's last step before a dataset becomes routable,
  // and the serving layer's first on-demand miss hits the index
  // immediately. Touching the SIMD kernel table latches the runtime CPU
  // dispatch (one probe, see util/simd.h) before the workers fan out, so
  // every solve runs on the selected kernels from the first query on.
  (void)table.index();
  (void)simd::Active();

  // One whole-table merge per target the problems ask for, indexed by
  // target; every problem's instance is a slice of its target's merge
  // (TableMerge in facts/instance.h), so no problem filters or merges.
  // The merges are built on the calling thread before any problem runs:
  // each is one hash pass over the table (the Stack Overflow benchmark's
  // two take 1.5 ms of a 70 ms registration). Building them on pool
  // workers too saved no measurable time but raised peak RSS by up to
  // 4 MiB.
  std::vector<std::unique_ptr<TableMerge>> merges(table.NumTargets());
  for (const VoiceQuery& query : queries) {
    std::unique_ptr<TableMerge>& merge = merges[static_cast<size_t>(query.target_index)];
    if (merge == nullptr) merge = std::make_unique<TableMerge>(table, query.target_index);
  }

  auto solve_one = [&](size_t i) {
    const VoiceQuery& query = queries[i];
    auto instance = merges[static_cast<size_t>(query.target_index)]->Slice(
        query.predicates, summarizer.instance);
    if (!instance.ok()) return;  // empty subsets are simply skipped
    auto prepared =
        PreparedProblem::FromInstance(std::move(instance).value(), summarizer);
    if (!prepared.ok()) return;
    SummaryResult result = prepared.value().Run(summarizer);
    auto stored = std::make_unique<StoredSpeech>();
    stored->query = query;
    stored->speech = RenderSpeech(table, prepared.value().instance(),
                                  prepared.value().catalog(), result,
                                  query.predicates, options.speech_template);
    solve_seconds[i] = result.elapsed_seconds;
    results[i] = std::move(stored);
  };

  if (options.pool != nullptr) {
    // Heaviest first (ties by index): the calling thread takes the largest
    // catalogs and the pool's workers the smallest, so each worker's heap
    // only ever holds small ones.
    std::vector<uint64_t> entries(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      entries[i] = EstimatedScopeEntries(table, queries[i], config.max_fact_dims);
    }
    std::vector<size_t> order(queries.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&entries](size_t a, size_t b) {
      return entries[a] != entries[b] ? entries[a] > entries[b] : a < b;
    });
    ParallelFor(options.pool, queries.size(), solve_one, std::move(order));
  } else {
    for (size_t i = 0; i < queries.size(); ++i) solve_one(i);
  }

  SpeechStore store;
  double sum_scaled = 0.0;
  double sum_seconds = 0.0;
  size_t num_speeches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (results[i] == nullptr) continue;
    sum_scaled += results[i]->speech.scaled_utility;
    sum_seconds += solve_seconds[i];
    ++num_speeches;
    store.Put(std::move(*results[i]));
  }

  if (stats != nullptr) {
    stats->num_queries = queries.size();
    stats->num_speeches = num_speeches;
    stats->total_seconds = watch.ElapsedSeconds();
    stats->sum_scaled_utility = sum_scaled;
    stats->sum_seconds = sum_seconds;
  }
  return store;
}

}  // namespace vq
