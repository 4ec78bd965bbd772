#include "engine/preprocessor.h"

#include "util/simd.h"
#include "util/stopwatch.h"

namespace vq {

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

  auto solve_one = [&](size_t i) {
    const VoiceQuery& query = queries[i];
    auto prepared =
        PreparedProblem::Prepare(table, query.predicates, query.target_index,
                                 summarizer);
    if (!prepared.ok()) return;  // empty subsets are simply skipped
    SummaryResult result = prepared.value().Run(summarizer);
    auto stored = std::make_unique<StoredSpeech>();
    stored->query = query;
    stored->speech = RenderSpeech(table, prepared.value().instance(),
                                  prepared.value().catalog(), result,
                                  query.predicates, options.speech_template);
    solve_seconds[i] = result.elapsed_seconds;
    results[i] = std::move(stored);
  };

  // Every worker's scope materialization routes through the scan planner,
  // which reads the table's inverted index; building it once up front keeps
  // the first wave of parallel solves from serializing on the lazy build.
  // On a multi-shard (paper-scale) table the build itself fans shard builds
  // across the scan pool, and the workers' later multi-shard filters fan out
  // there too -- the scan pool is deliberately distinct from options.pool,
  // so a solve worker blocking on its filter can never deadlock the fan-out.
  // Warmed even with zero generated queries: pre-processing is the dynamic
  // registry's last step before a dataset becomes routable, and the serving
  // layer's first on-demand miss hits the index immediately. Touching the
  // SIMD kernel table latches the runtime CPU dispatch (one probe, see
  // util/simd.h) before the workers fan out, so every solve -- and the
  // per-fact block-delta tables FactCatalog::Build warms for each problem
  // -- runs on the selected kernels from the first query on.
  (void)table.index();
  (void)simd::Active();

  if (options.pool != nullptr) {
    ParallelFor(options.pool, queries.size(), solve_one);
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
