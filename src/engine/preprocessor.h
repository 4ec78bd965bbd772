// Batch pre-processing: solve every summarization problem a configuration
// describes and fill the speech store (the paper's core idea -- move the
// expensive optimization out of the query path).
#ifndef VQ_ENGINE_PREPROCESSOR_H_
#define VQ_ENGINE_PREPROCESSOR_H_

#include "core/summarizer.h"
#include "engine/speech_store.h"
#include "query/config.h"
#include "util/thread_pool.h"

namespace vq {

struct PreprocessStats {
  size_t num_queries = 0;
  size_t num_speeches = 0;  ///< queries whose subset was non-empty
  double total_seconds = 0.0;
  double sum_scaled_utility = 0.0;
  double sum_seconds = 0.0;  ///< summed per-problem solve time

  double MeanScaledUtility() const {
    return num_speeches > 0 ? sum_scaled_utility / static_cast<double>(num_speeches)
                            : 0.0;
  }
  double PerQuerySeconds() const {
    return num_speeches > 0 ? total_seconds / static_cast<double>(num_speeches) : 0.0;
  }
};

struct PreprocessOptions {
  Algorithm algorithm = Algorithm::kGreedyOptimized;
  /// Per-problem exact-search budget (only relevant for Algorithm::kExact).
  double exact_timeout_seconds = 0.0;
  SpeechTemplate speech_template;
  /// Optional thread pool; nullptr = sequential. With a pool, the calling
  /// thread solves the heaviest problems (by estimated scope entries) and up
  /// to pool->NumThreads() tasks the lightest; the store and stats are
  /// identical to a sequential run. DatasetRegistry::AddDataset fills in
  /// its process-wide pre-processing pool when this is nullptr.
  ThreadPool* pool = nullptr;
};

/// Generates all queries for `config`, solves each summarization problem
/// with the configured algorithm and returns the filled store.
Result<SpeechStore> Preprocess(const Table& table, const Configuration& config,
                               const PreprocessOptions& options,
                               PreprocessStats* stats = nullptr);

}  // namespace vq

#endif  // VQ_ENGINE_PREPROCESSOR_H_
