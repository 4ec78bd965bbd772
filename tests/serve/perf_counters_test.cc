// Concurrent aggregation of optimizer work counters in EngineHost.
//
// On-demand solves run on many pool threads; each solve merges its
// SummaryResult counters into the host under the perf mutex. This test
// hammers that path from concurrent submitters -- the serve-tsan preset
// runs it under ThreadSanitizer, which is what actually proves the merge is
// race-free (PerfCounters::Add is a plain non-atomic accumulate).
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "serve/router.h"
#include "storage/datasets.h"
#include "testing/status_ledger.h"

namespace vq {
namespace serve {
namespace {

TEST(PerfCountersTest, FieldListCoversEveryCounterOnce) {
  // The kFields/kFieldNames tables are THE serialization contract: Add,
  // Merged and the bench writers all iterate them. This pins the contract:
  // every field participates, and sizeof() catches a counter added to the
  // struct but not to the tables.
  static_assert(sizeof(PerfCounters) ==
                    PerfCounters::kNumFields * sizeof(uint64_t),
                "a PerfCounters field is missing from kFields/kFieldNames");
  PerfCounters counters;
  counters.join_rows = 1;
  counters.bound_rows = 2;
  counters.groups_joined = 3;
  counters.groups_pruned = 4;
  counters.leaf_evals = 5;
  counters.nodes_expanded = 6;
  counters.pruned_by_bound = 7;
  uint64_t sum = 0;
  size_t fields = 0;
  counters.ForEachField([&](const char* name, uint64_t value) {
    EXPECT_NE(name, nullptr);
    sum += value;
    ++fields;
  });
  EXPECT_EQ(fields, PerfCounters::kNumFields);
  EXPECT_EQ(sum, 1u + 2 + 3 + 4 + 5 + 6 + 7);
}

TEST(PerfCountersTest, MergedSumsWithoutMutatingOperands) {
  PerfCounters a;
  a.join_rows = 10;
  a.leaf_evals = 3;
  PerfCounters b;
  b.join_rows = 5;
  b.nodes_expanded = 8;
  PerfCounters merged = a.Merged(b);
  EXPECT_EQ(merged.join_rows, 15u);
  EXPECT_EQ(merged.leaf_evals, 3u);
  EXPECT_EQ(merged.nodes_expanded, 8u);
  // Operands untouched: the point of the value-returning spelling.
  EXPECT_EQ(a.join_rows, 10u);
  EXPECT_EQ(b.join_rows, 5u);
  // Merged() and Add() agree field for field (both iterate kFields).
  PerfCounters added = a;
  added.Add(b);
  added.ForEachField([&](const char* name, uint64_t value) {
    merged.ForEachField([&](const char* other_name, uint64_t other_value) {
      if (std::string(name) == other_name) {
        EXPECT_EQ(value, other_value) << name;
      }
    });
  });
}

/// A flights dataset behind an 8-worker router. Every response a test gets
/// back is tallied by status, and TearDown reconciles the tally with the
/// router's own counters.
class EngineHostPerfCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Configuration config;
    config.table = "flights";
    config.dimensions = {"airline"};
    config.targets = {"cancelled"};
    config.max_query_predicates = 1;
    ASSERT_TRUE(registry_
                    .AddDataset("flights",
                                MakeFlightsTable(/*rows=*/600, /*seed=*/7), config)
                    .ok());
    RouterOptions options;
    options.num_threads = 8;
    router_ = std::make_unique<RoutingService>(&registry_, options);
  }

  void TearDown() override {
    if (router_ == nullptr) return;
    router_->Drain();
    ledger_.ExpectMatches(router_->stats());
  }

  RoutedResponse Tally(RoutedResponse routed) {
    ledger_.Add(routed.response.status);
    return routed;
  }

  DatasetRegistry registry_;
  std::unique_ptr<RoutingService> router_;
  testing::StatusLedger ledger_;
};

TEST_F(EngineHostPerfCountersTest, ConcurrentOnDemandSolvesMergeUnderMutex) {
  // Months are outside the configuration, so every request below misses the
  // store and reaches the on-demand optimizer.
  const Table& table = *registry_.table("flights");
  std::vector<std::string> requests;
  const Dictionary& months =
      table.dict(static_cast<size_t>(table.DimIndex("month")));
  for (size_t v = 0; v < months.size(); ++v) {
    requests.push_back("cancelled " + months.Lookup(static_cast<ValueId>(v)));
  }
  ASSERT_GE(requests.size(), 4u);

  RoutingService& router = *router_;
  const EngineHost& host = *router.host("flights");
  EXPECT_EQ(host.perf().join_rows, 0u);

  std::vector<std::future<RoutedResponse>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& request : requests) futures.push_back(router.Submit(request));
  }
  size_t answered = 0;
  for (auto& future : futures) {
    if (Tally(future.get()).response.answered) ++answered;
  }
  EXPECT_EQ(answered, futures.size());

  // Every unique query was optimized exactly once (coalescing + cache), and
  // each solve charged its join work to the host aggregate.
  HostStats stats = host.stats();
  EXPECT_EQ(stats.on_demand_summaries, requests.size());
  PerfCounters perf = host.perf();
  EXPECT_GT(perf.join_rows, 0u);
  EXPECT_GE(perf.groups_joined, requests.size());

  // A warm replay adds no optimizer work: the aggregate is monotone and
  // only grows on actual solves.
  for (const auto& request : requests) Tally(router.AnswerNow(request));
  PerfCounters after = host.perf();
  EXPECT_EQ(after.join_rows, perf.join_rows);
  EXPECT_EQ(after.groups_joined, perf.groups_joined);
}

}  // namespace
}  // namespace serve
}  // namespace vq
