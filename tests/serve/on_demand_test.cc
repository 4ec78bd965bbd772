// On-demand answers: every miss EngineHost solves is a slice of the engine's
// whole-table merge for its target (VoiceQueryEngine::Merge), solved like a
// pre-processing problem. The differential test pins each served answer --
// text and scaled-utility bits -- to PreparedProblem::Prepare (filter and
// merge per problem), Run and RenderSpeech, under every kernel table. The
// concurrency test races many first misses of one target on a fresh engine
// (the serve-tsan preset runs it): the merge is built once and every answer
// matches a sequential run.
#include <gtest/gtest.h>

#include <bit>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/summarizer.h"
#include "engine/voice_engine.h"
#include "serve/answer.h"
#include "serve/cache.h"
#include "serve/coalescer.h"
#include "serve/engine_host.h"
#include "speech/speech.h"
#include "storage/datasets.h"
#include "testing/kernel_override.h"
#include "util/simd.h"

namespace vq {
namespace serve {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

using testing::ScopedKernelOverride;

/// Only region queries are pre-processed; every other predicate set below
/// misses the store and is solved on demand.
Configuration StackOverflowConfig(PriorKind prior) {
  Configuration config;
  config.table = "stackoverflow";
  config.dimensions = {"region"};
  config.targets = {"competence", "optimism"};
  config.max_query_predicates = 1;
  config.prior = prior;
  config.prior_value = 2.5;
  return config;
}

/// Predicate pairs outside the configuration: the first three values of
/// each dimension in four dimension pairs (one of them pairs the
/// configured dimension with another), on both targets.
std::vector<VoiceQuery> OutOfConfigurationQueries(const Table& table) {
  const int pairs[][2] = {{0, 1}, {1, 2}, {3, 5}, {4, 6}};
  std::vector<VoiceQuery> queries;
  for (int target = 0; target < static_cast<int>(table.NumTargets()); ++target) {
    for (const auto& pair : pairs) {
      for (ValueId a = 0; a < 3; ++a) {
        for (ValueId b = 0; b < 3; ++b) {
          VoiceQuery query;
          query.target_index = target;
          query.predicates = {{pair[0], a}, {pair[1], b}};
          queries.push_back(query);
        }
      }
    }
  }
  return queries;
}

/// A three-predicate query on target 0 whose subset is empty.
VoiceQuery EmptySubsetQuery(const Table& table) {
  for (ValueId a = 0; a < table.dict(1).size(); ++a) {
    for (ValueId b = 0; b < table.dict(2).size(); ++b) {
      for (ValueId c = 0; c < table.dict(6).size(); ++c) {
        VoiceQuery query;
        query.target_index = 0;
        query.predicates = {{1, a}, {2, b}, {6, c}};
        if (!BuildInstance(table, query.predicates, 0).ok()) return query;
      }
    }
  }
  ADD_FAILURE() << "no empty three-predicate subset";
  return {};
}

/// The answer a host serves for `query`, the grounding given directly (no
/// NLU walk), and its cached scaled utility (on-demand answers only).
struct Served {
  ServeResponse response;
  double scaled_utility = 0.0;
};

Served Serve(EngineHost& host, ShardedSummaryCache& cache, const VoiceQuery& query) {
  ExtractedQuery extracted;
  extracted.target_index = query.target_index;
  extracted.predicates = query.predicates;
  Served served;
  served.response = host.Handle("query", nullptr, nullptr, extracted);
  ServedAnswerPtr cached = cache.Get(CanonicalQueryKey(host.fingerprint(), query));
  if (cached != nullptr) served.scaled_utility = cached->scaled_utility;
  return served;
}

TEST(OnDemandSliceTest, AnswersMatchPreparingEachProblemAlone) {
  Table single_shard = MakeStackOverflowTable(800, 20210318);
  Table sharded = MakeStackOverflowTable(800, 97);
  sharded.SetTargetShardRows(64);
  ASSERT_GT(sharded.index().num_shards(), 1u);
  for (const Table* table : {&single_shard, &sharded}) {
    SCOPED_TRACE(std::to_string(table->index().num_shards()) + " shards");
    std::vector<VoiceQuery> queries = OutOfConfigurationQueries(*table);
    VoiceQuery empty = EmptySubsetQuery(*table);
    for (PriorKind prior : {PriorKind::kGlobalAverage, PriorKind::kSubsetAverage,
                            PriorKind::kConstant}) {
      SCOPED_TRACE("prior " + std::to_string(static_cast<int>(prior)));
      Configuration config = StackOverflowConfig(prior);
      auto engine = VoiceQueryEngine::Build(table, config, {});
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      SummarizerOptions summarizer;
      summarizer.max_facts = config.max_facts;
      summarizer.max_fact_dims = config.max_fact_dims;
      summarizer.algorithm = Algorithm::kGreedyOptimized;
      summarizer.instance.prior_kind = config.prior;
      summarizer.instance.prior_value = config.prior_value;
      for (const simd::Kernels* impl : simd::AllImplementations()) {
        SCOPED_TRACE(impl->name);
        ScopedKernelOverride override_kernels(impl);
        ShardedSummaryCache cache(/*capacity=*/4096);
        InflightCoalescer coalescer;
        EngineHost host("so", &engine.value(), &cache, &coalescer);
        size_t solved = 0;
        for (const VoiceQuery& query : queries) {
          SCOPED_TRACE(query.Key());
          ASSERT_EQ(engine.value().store().FindExact(query), nullptr);
          auto prepared = PreparedProblem::Prepare(*table, query.predicates,
                                                   query.target_index, summarizer);
          Served served = Serve(host, cache, query);
          if (!prepared.ok()) {
            EXPECT_NE(served.response.source, AnswerSource::kOnDemand);
            continue;
          }
          Speech expected =
              RenderSpeech(*table, prepared.value().instance(),
                           prepared.value().catalog(),
                           prepared.value().Run(summarizer), query.predicates);
          EXPECT_EQ(served.response.source, AnswerSource::kOnDemand);
          EXPECT_EQ(served.response.text, expected.text);
          EXPECT_EQ(Bits(served.scaled_utility), Bits(expected.scaled_utility));
          ++solved;
        }
        EXPECT_GT(solved, queries.size() / 2);
        EXPECT_EQ(host.stats().on_demand_summaries, solved);

        // An empty subset has no instance: the host falls back to the most
        // specific stored speech.
        SCOPED_TRACE(empty.Key());
        const StoredSpeech* best = engine.value().store().FindBest(empty);
        ASSERT_NE(best, nullptr);
        Served fallback = Serve(host, cache, empty);
        EXPECT_TRUE(fallback.response.answered);
        EXPECT_EQ(fallback.response.source, AnswerSource::kStoreFallback);
        EXPECT_EQ(fallback.response.text, best->speech.text);
        EXPECT_EQ(host.stats().on_demand_summaries, solved);
      }
    }
  }
}

TEST(OnDemandSliceTest, ConcurrentFirstMissesBuildTheMergeOnceAndAgree) {
  Table table = MakeFlightsTable(2000, 11);
  Configuration config;
  config.table = "flights";
  config.dimensions = {"season"};
  config.targets = {"cancelled"};
  config.max_query_predicates = 1;
  const int target = table.TargetIndex("cancelled");
  const int month = table.DimIndex("month");
  const int time_of_day = table.DimIndex("time_of_day");
  std::vector<VoiceQuery> queries;
  for (ValueId m = 0; m < table.dict(static_cast<size_t>(month)).size(); ++m) {
    for (ValueId t = 0; t < 2; ++t) {
      VoiceQuery query;
      query.target_index = target;
      query.predicates = {{month, m}, {time_of_day, t}};
      queries.push_back(query);
    }
  }

  // Expected answers: one at a time, on an engine of their own.
  std::vector<std::string> expected;
  {
    auto engine = VoiceQueryEngine::Build(&table, config, {});
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ShardedSummaryCache cache(/*capacity=*/4096);
    InflightCoalescer coalescer;
    EngineHost host("flights", &engine.value(), &cache, &coalescer);
    for (const VoiceQuery& query : queries) {
      Served served = Serve(host, cache, query);
      ASSERT_EQ(served.response.source, AnswerSource::kOnDemand) << query.Key();
      expected.push_back(served.response.text);
    }
  }

  // Every thread's first act races the first Merge() of the target on a
  // fresh engine, then it answers its share of the distinct misses.
  auto engine = VoiceQueryEngine::Build(&table, config, {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ShardedSummaryCache cache(/*capacity=*/4096);
  InflightCoalescer coalescer;
  EngineHost host("flights", &engine.value(), &cache, &coalescer);
  constexpr size_t kThreads = 8;
  std::vector<const TableMerge*> merges(kThreads, nullptr);
  std::vector<std::string> got(queries.size());
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      merges[t] = &engine.value().Merge(target);
      for (size_t i = t; i < queries.size(); i += kThreads) {
        got[i] = Serve(host, cache, queries[i]).response.text;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(merges[t], merges[0]);
  EXPECT_EQ(got, expected);
  HostStats stats = host.stats();
  EXPECT_EQ(stats.on_demand_summaries, queries.size());
  EXPECT_EQ(stats.on_demand_passes, queries.size());
  EXPECT_EQ(stats.max_batch, 1u);
}

}  // namespace
}  // namespace serve
}  // namespace vq
