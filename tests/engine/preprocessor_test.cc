// Parallel pre-processing: whatever pool runs it, Preprocess must fill the
// store exactly as a sequential run does, every stored speech must be the
// one PreparedProblem::Prepare gives for its problem alone (the store slices
// a whole-table merge instead), and a registry pre-processing on its own
// pool must never deadlock, even when AddDataset itself runs on that pool.
#include "engine/preprocessor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "query/problem_generator.h"
#include "serve/registry.h"
#include "storage/datasets.h"
#include "testing/kernel_override.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace vq {
namespace {

Configuration StackOverflowConfig() {
  Configuration config;
  config.table = "stackoverflow";
  config.dimensions = {"region", "dev_type", "education", "employment",
                       "org_size", "gender", "years_coding"};
  config.targets = {"competence", "optimism"};
  config.max_query_predicates = 2;
  return config;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Everything a store and its stats hold that must not depend on the
/// schedule: keys in insertion order, speech text, scaled-utility bits and
/// the deterministic PreprocessStats fields.
std::vector<std::string> Fingerprint(const SpeechStore& store,
                                     const PreprocessStats& stats) {
  std::vector<std::string> lines;
  lines.push_back("queries=" + std::to_string(stats.num_queries) +
                  " speeches=" + std::to_string(stats.num_speeches) +
                  " sum=" + std::to_string(Bits(stats.sum_scaled_utility)));
  for (const StoredSpeech& speech : store.speeches()) {
    lines.push_back(speech.query.Key() + " " +
                    std::to_string(Bits(speech.speech.scaled_utility)) + " " +
                    speech.speech.text);
  }
  return lines;
}

/// Fingerprint's speech lines for a store built by solving each problem on
/// its own: Prepare (filter and merge), Run and RenderSpeech, in generation
/// order, skipping empty subsets as Preprocess does.
std::vector<std::string> PreparedFingerprint(const Table& table,
                                             const Configuration& config) {
  SummarizerOptions summarizer;
  summarizer.max_facts = config.max_facts;
  summarizer.max_fact_dims = config.max_fact_dims;
  summarizer.algorithm = PreprocessOptions{}.algorithm;
  summarizer.instance.prior_kind = config.prior;
  summarizer.instance.prior_value = config.prior_value;
  std::vector<std::string> lines;
  for (const VoiceQuery& query :
       ProblemGenerator::Create(&table, config).value().GenerateQueries()) {
    auto prepared = PreparedProblem::Prepare(table, query.predicates,
                                             query.target_index, summarizer);
    if (!prepared.ok()) continue;
    Speech speech = RenderSpeech(table, prepared.value().instance(),
                                 prepared.value().catalog(),
                                 prepared.value().Run(summarizer), query.predicates);
    lines.push_back(query.Key() + " " + std::to_string(Bits(speech.scaled_utility)) +
                    " " + speech.text);
  }
  return lines;
}

using testing::ScopedKernelOverride;

TEST(PreprocessScheduleTest, PooledStoreIsByteIdenticalToSequential) {
  Table table = MakeStackOverflowTable(1500, 20210318);
  Configuration config = StackOverflowConfig();
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    SCOPED_TRACE(impl->name);
    ScopedKernelOverride override_kernels(impl);
    PreprocessStats sequential_stats;
    auto sequential = Preprocess(table, config, PreprocessOptions{}, &sequential_stats);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    ASSERT_GT(sequential.value().size(), 100u);
    std::vector<std::string> expected =
        Fingerprint(sequential.value(), sequential_stats);
    for (size_t workers : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      ThreadPool pool(workers);
      PreprocessOptions options;
      options.pool = &pool;
      PreprocessStats stats;
      auto pooled = Preprocess(table, config, options, &stats);
      ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
      EXPECT_EQ(Fingerprint(pooled.value(), stats), expected);
    }
  }
}

TEST(PreprocessScheduleTest, StoreMatchesPreparingEveryProblemAlone) {
  for (uint64_t seed : {20210318ull, 97ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Table table = MakeStackOverflowTable(800, seed);
    for (PriorKind prior : {PriorKind::kGlobalAverage, PriorKind::kSubsetAverage,
                            PriorKind::kConstant}) {
      SCOPED_TRACE("prior " + std::to_string(static_cast<int>(prior)));
      Configuration config = StackOverflowConfig();
      config.prior = prior;
      config.prior_value = 2.5;
      for (const simd::Kernels* impl : simd::AllImplementations()) {
        SCOPED_TRACE(impl->name);
        ScopedKernelOverride override_kernels(impl);
        std::vector<std::string> expected = PreparedFingerprint(table, config);
        ASSERT_GT(expected.size(), 100u);
        for (size_t workers : {0u, 1u, 3u}) {
          SCOPED_TRACE(std::to_string(workers) + " workers");
          std::unique_ptr<ThreadPool> pool;
          PreprocessOptions options;
          if (workers > 0) {
            pool = std::make_unique<ThreadPool>(workers);
            options.pool = pool.get();
          }
          auto store = Preprocess(table, config, options);
          ASSERT_TRUE(store.ok()) << store.status().ToString();
          std::vector<std::string> got = Fingerprint(store.value(), {});
          got.erase(got.begin());  // the stats line
          EXPECT_EQ(got, expected);
        }
      }
    }
  }
}

TEST(PreprocessScheduleTest, ZeroProblemsOnAPool) {
  Table table = MakeStackOverflowTable(200, 7);
  Configuration config = StackOverflowConfig();
  config.targets.clear();
  ThreadPool pool(2);
  PreprocessOptions options;
  options.pool = &pool;
  PreprocessStats stats;
  auto store = Preprocess(table, config, options, &stats);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().size(), 0u);
  EXPECT_EQ(stats.num_queries, 0u);
  EXPECT_EQ(stats.num_speeches, 0u);
}

TEST(PreprocessScheduleTest, RegistryPoolMatchesSequentialStore) {
  Table table = MakeStackOverflowTable(1500, 20210318);
  Configuration config = StackOverflowConfig();
  auto sequential = Preprocess(table, config, PreprocessOptions{});
  ASSERT_TRUE(sequential.ok());
  serve::DatasetRegistry registry;
  ASSERT_TRUE(registry.AddDataset("so", Table(table), config).ok());
  // Speeches only: the registry does not report PreprocessStats.
  std::vector<std::string> got = Fingerprint(registry.engine("so")->store(), {});
  std::vector<std::string> expected = Fingerprint(sequential.value(), {});
  EXPECT_EQ(got, expected);
}

TEST(PreprocessScheduleTest, AddDatasetOnTheRegistrysOwnPoolFinishes) {
  // Every worker of the registry's pool runs an AddDataset, so none is free
  // for the tasks those calls submit: each caller must solve its whole
  // queue itself and return without waiting for tasks that never started.
  // Leaked on a timeout: destroying it would join the stuck workers.
  auto* registry = new serve::DatasetRegistry();
  ThreadPool* pool = SharedPool();
  if (pool == nullptr) {
    delete registry;
    GTEST_SKIP() << "single-core host: the registry pre-processes sequentially";
  }
  Table table = MakeStackOverflowTable(300, 11);
  Configuration config = StackOverflowConfig();
  config.max_query_predicates = 1;
  std::vector<std::future<Status>> adds;
  for (size_t i = 0; i < pool->NumThreads(); ++i) {
    adds.push_back(pool->SubmitTask([registry, table, config, i] {
      return registry->AddDataset("so" + std::to_string(i), Table(table), config);
    }));
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (std::future<Status>& add : adds) {
    if (add.wait_until(deadline) != std::future_status::ready) {
      FAIL() << "AddDataset on the registry's own pool did not finish in 10 s";
    }
    EXPECT_TRUE(add.get().ok());
  }
  EXPECT_EQ(registry->size(), pool->NumThreads());
  delete registry;
}

}  // namespace
}  // namespace vq
