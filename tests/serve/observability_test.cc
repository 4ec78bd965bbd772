// Serving-stack observability integration: one routed workload must light
// up the whole metric taxonomy in RenderText/RenderJson -- router counters
// and latency histograms, cache and coalescer stats, per-dataset host
// counters, the engine's PerfCounters (exported through ForEachField, the
// single serialization contract), registry add/remove instrumentation --
// plus the sampled-trace ring and the slow-query log. Every routed case
// tallies its responses' statuses and reconciles them with RouterStats.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "storage/datasets.h"
#include "storage/table.h"
#include "testing/status_ledger.h"

namespace vq {
namespace serve {
namespace {

constexpr uint64_t kSeed = 20210318;

Configuration FlightsConfig() {
  Configuration config;
  config.table = "flights";
  config.dimensions = {"season", "month"};
  config.targets = {"cancelled"};
  config.max_query_predicates = 2;
  return config;
}

Configuration AcsConfig() {
  Configuration config;
  config.table = "acs";
  config.dimensions = {"borough", "age_group"};
  config.targets = {"visual"};
  config.max_query_predicates = 2;
  return config;
}

TEST(ObservabilityTest, RenderTextCoversTheWholeServingStack) {
  // A private registry isolates this test from the process-global one the
  // other suites (and the index build's function-local instruments) feed.
  obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptions{.metrics = &metrics});
  ASSERT_TRUE(registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  ASSERT_TRUE(registry.AddGenerated("acs", AcsConfig(), 200, kSeed).ok());

  RouterOptions options;
  options.metrics = &metrics;
  options.host.trace_samples_per_second = 100;  // sample everything
  RoutingService router(&registry, options);

  const std::vector<std::string> workload = {
      "cancelled in February", "visual impairment in Manhattan",
      "cancelled in Winter",   "visual for Elders",
      "cancelled in February",  // repeat: cache hit
      "qqq zzz nonsense",       // unrouted
  };
  testing::StatusLedger ledger;
  for (const auto& request : workload) {
    (void)ledger.Tally(router.AnswerNow(request));
  }
  ASSERT_TRUE(registry.RemoveDataset("acs").ok());
  router.SyncRegistry();

  std::string text = metrics.RenderText();
  // Router layer.
  EXPECT_NE(text.find("vq_router_requests_total 6"), std::string::npos) << text;
  EXPECT_NE(text.find("vq_router_routed_total 5"), std::string::npos) << text;
  EXPECT_NE(text.find("vq_router_unrouted_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("vq_router_request_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("vq_router_route_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("vq_router_snapshot_acquire_seconds_count"),
            std::string::npos);
  EXPECT_NE(text.find("vq_router_dataset_requests_total{dataset=\"flights\"}"),
            std::string::npos);
  // Cache layer (the repeat request hit).
  EXPECT_NE(text.find("vq_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("vq_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("vq_cache_lookup_seconds_count"), std::string::npos);
  // Coalescer layer.
  EXPECT_NE(text.find("vq_coalescer_leaders_total"), std::string::npos);
  // Host layer, labeled per dataset.
  EXPECT_NE(text.find("vq_host_requests_total{dataset=\"flights\"}"),
            std::string::npos);
  EXPECT_NE(text.find("vq_host_max_active_solves{dataset=\"flights\"}"),
            std::string::npos);
  // Engine PerfCounters exported via ForEachField: spot-check two fields.
  EXPECT_NE(text.find("vq_engine_perf_leaf_evals{dataset=\"flights\"}"),
            std::string::npos);
  EXPECT_NE(text.find("vq_engine_perf_nodes_expanded{dataset=\"flights\"}"),
            std::string::npos);
  // Registry layer: two adds, one remove, version/dataset gauges.
  EXPECT_NE(text.find("vq_registry_adds_total 2"), std::string::npos);
  EXPECT_NE(text.find("vq_registry_removes_total 1"), std::string::npos);
  EXPECT_NE(text.find("vq_registry_add_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("vq_registry_version 3"), std::string::npos);
  EXPECT_NE(text.find("vq_registry_datasets 1"), std::string::npos);

  // JSON exposition carries the same families with histogram summaries.
  std::string json = metrics.RenderJson().Dump();
  EXPECT_NE(json.find("\"vq_router_requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"vq_router_request_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_seconds\""), std::string::npos);

  // The request histogram saw exactly the five routed requests, and its
  // quantiles are well-formed.
  obs::HistogramSnapshot snap =
      metrics.SnapshotHistogram("vq_router_request_seconds");
  EXPECT_EQ(snap.count, 5u);
  EXPECT_GT(snap.p50(), 0.0);
  EXPECT_LE(snap.p99(), snap.max_seconds * (1.0 + 1e-9));
  ledger.ExpectMatches(router.stats());
}

TEST(ObservabilityTest, SnapshotMetricsLightUpInExposition) {
  // The zero-copy snapshot path carries its own instrument family: loads,
  // cold-build fallbacks, writes, mapped bytes, and load latency. One
  // write/load/fallback cycle against a private registry must light up every
  // exposition name with the exact expected counts.
  const std::string path =
      (std::filesystem::temp_directory_path() / "vq_obs_snapshot.vqsnap")
          .string();
  obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptions{.metrics = &metrics});
  ASSERT_TRUE(registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  ASSERT_TRUE(registry.WriteSnapshot("flights", path).ok());
  ASSERT_TRUE(registry.RemoveDataset("flights").ok());

  // Successful zero-copy load: bytes_mapped tracks the live mapping.
  ASSERT_TRUE(registry.AddFromSnapshot("flights", path, FlightsConfig()).ok());
  const double mapped =
      metrics.GetGauge("vq_registry_snapshot_bytes_mapped")->Value();
  EXPECT_EQ(mapped, static_cast<double>(std::filesystem::file_size(path)));
  EXPECT_GT(mapped, 0.0);

  // Corrupt the file; the re-add falls back to a cold build and says so.
  ASSERT_TRUE(registry.RemoveDataset("flights").ok());
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
    file.put('\xff');
  }
  bool fallback_ran = false;
  ASSERT_TRUE(registry
                  .AddFromSnapshot("flights", path, FlightsConfig(),
                                   [&]() -> Result<Table> {
                                     fallback_ran = true;
                                     return MakeFlightsTable(300, kSeed);
                                   })
                  .ok());
  EXPECT_TRUE(fallback_ran);

  std::string text = metrics.RenderText();
  EXPECT_NE(text.find("vq_registry_snapshot_writes_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("vq_registry_snapshot_loads_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("vq_registry_snapshot_fallbacks_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("vq_registry_snapshot_bytes_mapped 0"), std::string::npos)
      << text;  // cold fallback maps nothing; the gauge fell back to zero
  EXPECT_NE(text.find("vq_registry_snapshot_load_seconds_count"),
            std::string::npos)
      << text;

  // The load-latency histogram recorded exactly the one successful load
  // (the fallback is a cold add and must not pollute the snapshot timing).
  obs::HistogramSnapshot load =
      metrics.SnapshotHistogram("vq_registry_snapshot_load_seconds");
  EXPECT_EQ(load.count, 1u);
  EXPECT_LE(load.p99(), load.max_seconds * (1.0 + 1e-9));

  std::filesystem::remove(path);
}

TEST(ObservabilityTest, SampledTracesCarryStageSpans) {
  obs::MetricsRegistry metrics;
  DatasetRegistry registry;
  ASSERT_TRUE(registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  RouterOptions options;
  options.metrics = &metrics;
  options.host.trace_samples_per_second = 100;
  RoutingService router(&registry, options);

  testing::StatusLedger ledger;
  ASSERT_TRUE(ledger.Tally(router.AnswerNow("cancelled in February")).response.answered);
  ledger.ExpectMatches(router.stats());
  ASSERT_GE(router.sampled_traces().size(), 1u);
  std::string dump = router.sampled_traces().Entries().front().Dump();
  // The routing stages are backfilled into the same timeline as the host's
  // own spans.
  EXPECT_NE(dump.find("snapshot_acquire"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"route\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("classify"), std::string::npos) << dump;
  EXPECT_NE(dump.find("cache_lookup"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"dataset\":\"flights\""), std::string::npos) << dump;
}

TEST(ObservabilityTest, SlowQueryLogCatchesRequestsOverThreshold) {
  obs::MetricsRegistry metrics;
  DatasetRegistry registry;
  ASSERT_TRUE(registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  RouterOptions options;
  options.metrics = &metrics;
  options.host.trace_samples_per_second = 0;  // no sampling: only slowness
  options.host.slow_trace_seconds = 1e-9;     // everything is "slow"
  RoutingService router(&registry, options);

  testing::StatusLedger ledger;
  ASSERT_TRUE(ledger.Tally(router.AnswerNow("cancelled in February")).response.answered);
  ledger.ExpectMatches(router.stats());
  EXPECT_EQ(router.sampled_traces().size(), 0u);
  ASSERT_GE(router.slow_queries().size(), 1u);
  EXPECT_NE(router.slow_queries().Entries().front().Dump().find(
                "cancelled in February"),
            std::string::npos);

  // And with a generous threshold nothing is logged.
  DatasetRegistry fast_registry;
  ASSERT_TRUE(
      fast_registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  RouterOptions fast_options;
  fast_options.metrics = &metrics;
  fast_options.host.trace_samples_per_second = 0;
  fast_options.host.slow_trace_seconds = 30.0;
  RoutingService fast_router(&fast_registry, fast_options);
  testing::StatusLedger fast_ledger;
  ASSERT_TRUE(fast_ledger.Tally(fast_router.AnswerNow("cancelled in February"))
                  .response.answered);
  fast_ledger.ExpectMatches(fast_router.stats());
  EXPECT_EQ(fast_router.slow_queries().size(), 0u);
}

TEST(ObservabilityTest, TraceSamplingDisabledProducesNoTraces) {
  obs::MetricsRegistry metrics;
  DatasetRegistry registry;
  ASSERT_TRUE(registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  RouterOptions options;
  options.metrics = &metrics;
  options.host.trace_samples_per_second = 0;
  options.host.slow_trace_seconds = 0.0;  // disabled
  RoutingService router(&registry, options);
  testing::StatusLedger ledger;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        ledger.Tally(router.AnswerNow("cancelled in February")).response.answered);
  }
  ledger.ExpectMatches(router.stats());
  EXPECT_EQ(router.sampled_traces().size(), 0u);
  EXPECT_EQ(router.slow_queries().size(), 0u);
  // Metrics still flow without tracing.
  EXPECT_EQ(metrics.SnapshotHistogram("vq_router_request_seconds").count, 5u);
}

}  // namespace
}  // namespace serve
}  // namespace vq
