// Dynamic-registry suite: add/remove datasets while a RoutingService is
// serving. Exercises the RCU snapshot lifecycle (versioning, entry pinning,
// lazy host-set sync), removal guarantees (no routes to a removed dataset
// after RemoveDataset returns, cache purge by fingerprint, generation-keyed
// isolation across re-adds) and the per-dataset serving policies
// (HostOverrides per entry, merged over the fleet default: TTLs, cache byte
// quotas, on-demand thread shares).
// The concurrency hammer at the end runs under the serve-tsan preset.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/router.h"
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
  return config;
}

Configuration AcsConfig() {
  Configuration config;
  config.table = "acs";
  config.dimensions = {"borough", "age_group"};
  config.targets = {"visual"};
  return config;
}

Configuration RunningExampleConfig() {
  Configuration config;
  config.table = "running_example";
  config.dimensions = {"region", "season"};
  config.targets = {"delay"};
  config.prior = PriorKind::kZero;
  return config;
}

/// A two-row region table with controllable delay values, so successive
/// incarnations of the same dataset name provably answer differently.
Table TwoRegionTable(double north_delay, double south_delay) {
  Table table("re");
  table.AddDimColumn("region");
  table.AddTargetColumn("delay", "minutes");
  EXPECT_TRUE(table.AppendRow({"North"}, {north_delay}).ok());
  EXPECT_TRUE(table.AppendRow({"South"}, {south_delay}).ok());
  return table;
}

Configuration TwoRegionConfig() {
  Configuration config;
  config.table = "re";
  config.dimensions = {"region"};
  config.targets = {"delay"};
  config.max_facts = 1;
  config.max_query_predicates = 1;
  config.prior = PriorKind::kZero;
  return config;
}

TEST(DynamicRegistryTest, SnapshotsAreVersionedAndPinRemovedEntries) {
  DatasetRegistry registry;
  RegistrySnapshotPtr empty = registry.snapshot();
  EXPECT_EQ(empty->version, 0u);
  EXPECT_TRUE(empty->entries.empty());

  ASSERT_TRUE(
      registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.size(), 1u);
  // The previously acquired snapshot is immutable: still empty.
  EXPECT_TRUE(empty->entries.empty());

  RegistrySnapshotPtr pinned = registry.snapshot();
  ASSERT_TRUE(
      registry.AddGenerated("re", RunningExampleConfig(), 16, kSeed).ok());
  EXPECT_EQ(registry.version(), 2u);

  ASSERT_TRUE(registry.RemoveDataset("flights").ok());
  EXPECT_EQ(registry.version(), 3u);
  EXPECT_EQ(registry.engine("flights"), nullptr);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"re"});
  EXPECT_EQ(registry.RemoveDataset("flights").code(), StatusCode::kNotFound);

  // The pinned snapshot keeps the removed entry -- and its engine -- alive.
  const DatasetEntry* removed = pinned->Find("flights");
  ASSERT_NE(removed, nullptr);
  EXPECT_GT(removed->engine->store().size(), 0u);

  // Re-registration under the same name mints a fresh generation.
  ASSERT_TRUE(
      registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  EXPECT_GT(registry.snapshot()->Find("flights")->generation,
            removed->generation);

  EXPECT_EQ(registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).code(),
            StatusCode::kAlreadyExists);
}

TEST(DynamicRegistryTest, RegistrationWarmsTheTableIndex) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("re", RunningExampleConfig(), 16, kSeed).ok());
  // The first routed request must not pay the lazy index build.
  EXPECT_TRUE(registry.table("re")->has_index());
}

TEST(DynamicRegistryTest, RouterFollowsAddAndRemoveWithoutRestart) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  RoutingService router(&registry);
  EXPECT_EQ(router.num_hosts(), 1u);
  // "North" partially grounds on the flights vocabulary (dest_region), so
  // the request may route there -- but never to the unregistered "re".
  EXPECT_NE(router.AnswerNow("delay in the North").dataset, "re");

  // Onboard a dataset under the live router: the next request sees it. Its
  // vocabulary covers the request fully, so it outranks flights' partial
  // grounding.
  ASSERT_TRUE(
      registry.AddGenerated("re", RunningExampleConfig(), 16, kSeed).ok());
  RoutedResponse routed = router.AnswerNow("delay in the North");
  EXPECT_TRUE(routed.routed);
  EXPECT_EQ(routed.dataset, "re");
  EXPECT_TRUE(routed.response.answered);
  EXPECT_EQ(router.num_hosts(), 2u);
  EXPECT_GE(router.stats().registry_syncs, 1u);

  // Warm a few cached answers for "re", then retire it.
  (void)router.AnswerNow("delay in Winter");
  (void)router.AnswerNow("delay in the South");
  ASSERT_NE(router.host("re"), nullptr);
  std::string fingerprint = router.host("re")->fingerprint();
  EXPECT_GT(router.cache().CountPrefix(fingerprint + "|"), 0u);

  ASSERT_TRUE(registry.RemoveDataset("re").ok());
  router.SyncRegistry();
  EXPECT_EQ(router.num_hosts(), 1u);
  EXPECT_EQ(router.host("re"), nullptr);
  // Purge completeness: no key of the retired fingerprint survives.
  EXPECT_EQ(router.cache().CountPrefix(fingerprint + "|"), 0u);
  EXPECT_GT(router.stats().purged_cache_entries, 0u);
  // And the request that used to route there no longer does.
  EXPECT_NE(router.AnswerNow("delay in the North").dataset, "re");

  // Flights traffic was never disturbed.
  EXPECT_TRUE(router.AnswerNow("cancelled in February").routed);
}

TEST(DynamicRegistryTest, ReAddedNameNeverServesTheRetiredIncarnation) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry
                  .AddDataset("re", TwoRegionTable(10.0, 30.0), TwoRegionConfig())
                  .ok());
  RoutingService router(&registry);

  RoutedResponse first = router.AnswerNow("delay in the North");
  ASSERT_TRUE(first.response.answered);
  // Same request again: served from cache under the first generation's keys.
  EXPECT_TRUE(router.AnswerNow("delay in the North").response.cache_hit);

  ASSERT_TRUE(registry.RemoveDataset("re").ok());
  ASSERT_TRUE(registry
                  .AddDataset("re", TwoRegionTable(70.0, 90.0), TwoRegionConfig())
                  .ok());

  // The same name, the same configuration, the same request text -- but new
  // rows. The generation-stamped fingerprint guarantees the answer comes
  // from the new table, not the retired incarnation's cache entries.
  RoutedResponse second = router.AnswerNow("delay in the North");
  ASSERT_TRUE(second.response.answered);
  EXPECT_FALSE(second.response.cache_hit);
  EXPECT_NE(second.response.text, first.response.text);
}

/// TwoRegionTable plus a city column OUTSIDE the configuration, so city
/// requests are on-demand misses (learned-speech material).
Table TwoRegionCityTable(double north_delay, double south_delay) {
  Table table("re");
  table.AddDimColumn("region");
  table.AddDimColumn("city");
  table.AddTargetColumn("delay", "minutes");
  EXPECT_TRUE(table.AppendRow({"North", "Springfield"}, {north_delay}).ok());
  EXPECT_TRUE(table.AppendRow({"South", "Shelbyville"}, {south_delay}).ok());
  return table;
}

TEST(DynamicRegistryTest, LearnedFileNeverLeaksAcrossDataChanges) {
  const std::string learned_dir =
      (std::filesystem::path(::testing::TempDir()) / "vq_dyn_learned").string();
  std::filesystem::remove_all(learned_dir);
  // An on-demand miss: "city" is outside the region-only configuration.
  const std::string request = "delay Springfield";

  DatasetRegistry registry{RegistryOptions{learned_dir}};
  ASSERT_TRUE(registry
                  .AddDataset("re", TwoRegionCityTable(10.0, 30.0),
                              TwoRegionConfig())
                  .ok());
  {
    RoutingService router(&registry);
    RoutedResponse routed = router.AnswerNow(request);
    ASSERT_TRUE(routed.response.answered);
    EXPECT_EQ(routed.response.source, AnswerSource::kOnDemand);
    ASSERT_TRUE(registry.RemoveDataset("re").ok());
    // The retirement sweep drains the learned speech to disk.
    router.SyncRegistry();
    EXPECT_TRUE(std::filesystem::exists(registry.LearnedPath("re")));
  }

  // Re-add the name with the SAME configuration but DIFFERENT rows: the
  // learned file's answers were rendered from the old data and must not
  // load (the table fingerprint differs).
  ASSERT_TRUE(registry
                  .AddDataset("re", TwoRegionCityTable(70.0, 90.0),
                              TwoRegionConfig())
                  .ok());
  EXPECT_EQ(registry.learned_loaded("re"), 0u);
  ASSERT_TRUE(registry.RemoveDataset("re").ok());

  // A re-add over IDENTICAL data (the restart case) still reloads.
  ASSERT_TRUE(registry
                  .AddDataset("re", TwoRegionCityTable(10.0, 30.0),
                              TwoRegionConfig())
                  .ok());
  EXPECT_EQ(registry.learned_loaded("re"), 1u);
  {
    RoutingService router(&registry);
    RoutedResponse reloaded = router.AnswerNow(request);
    ASSERT_TRUE(reloaded.response.answered);
    EXPECT_EQ(reloaded.response.source, AnswerSource::kStoreExact);
  }

  std::filesystem::remove_all(learned_dir);
}

TEST(DynamicRegistryTest, PerDatasetPoliciesOverrideTheFleetDefault) {
  DatasetRegistry registry;
  HostOverrides strict;
  strict.unanswerable_ttl_seconds = 5.0;
  strict.max_concurrent_solves = 1;
  strict.cache_byte_quota = 1 << 12;
  ASSERT_TRUE(registry
                  .AddGenerated("re", RunningExampleConfig(), 16, kSeed, {},
                                strict)
                  .ok());
  ASSERT_TRUE(
      registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());

  RouterOptions fleet;
  fleet.host.answer_ttl_seconds = 30.0;
  RoutingService router(&registry, fleet);
  ASSERT_NE(router.host("re"), nullptr);
  ASSERT_NE(router.host("flights"), nullptr);
  // The policy's explicit fields override the fleet default for "re" only.
  EXPECT_DOUBLE_EQ(router.host("re")->options().unanswerable_ttl_seconds, 5.0);
  EXPECT_EQ(router.host("re")->options().max_concurrent_solves, 1u);
  EXPECT_EQ(router.host("re")->options().cache_byte_quota, size_t{1} << 12);
  EXPECT_DOUBLE_EQ(router.host("flights")->options().unanswerable_ttl_seconds,
                   60.0);
  EXPECT_EQ(router.host("flights")->options().cache_byte_quota, 0u);
  // Merge semantics: every field the policy left unset keeps the FLEET
  // value, not the struct default -- "re" keeps the fleet's answer TTL and
  // trace sampling even though its policy never mentioned either.
  EXPECT_DOUBLE_EQ(router.host("re")->options().answer_ttl_seconds, 30.0);
  EXPECT_EQ(router.host("re")->options().trace_samples_per_second,
            fleet.host.trace_samples_per_second);
}

TEST(DynamicRegistryTest, CacheByteQuotaBoundsOneDatasetsOccupancy) {
  DatasetRegistry registry;
  // A quota holding a handful of rendered answers; a single cache shard
  // makes the accounting deterministic.
  HostOverrides quota_policy;
  quota_policy.cache_byte_quota = 2048;
  ASSERT_TRUE(registry
                  .AddGenerated("re", RunningExampleConfig(), 16, kSeed, {},
                                quota_policy)
                  .ok());
  RouterOptions options;
  options.cache_shards = 1;
  RoutingService router(&registry, options);

  const std::vector<std::string> regions = {"North", "South", "East", "West"};
  const std::vector<std::string> seasons = {"Winter", "Summer", "Fall",
                                            "Spring"};
  std::vector<std::string> requests;
  for (const auto& region : regions) requests.push_back("delay in the " + region);
  for (const auto& season : seasons) requests.push_back("delay in " + season);
  for (const auto& region : regions) {
    for (const auto& season : seasons) {
      requests.push_back("delay " + region + " " + season);
    }
  }
  for (const auto& request : requests) {
    EXPECT_TRUE(router.AnswerNow(request).response.answered) << request;
  }
  std::string fingerprint = router.host("re")->fingerprint();
  // The dataset's tagged bytes stayed within its quota, enforced by
  // evicting its own LRU entries.
  EXPECT_LE(router.cache().OwnerBytes(fingerprint), 2048u);
  EXPECT_LT(router.cache().CountPrefix(fingerprint + "|"), requests.size());
  EXPECT_GT(router.cache().TotalStats().quota_evictions, 0u);
}

TEST(DynamicRegistryTest, ThreadShareCapsConcurrentSolves) {
  // Two targets so concurrent on-demand misses form two independent batch
  // queues -- without the policy they would solve in parallel.
  Configuration config;
  config.table = "flights";
  config.dimensions = {"season"};
  config.targets = {"cancelled", "delay_minutes"};
  config.max_query_predicates = 1;

  DatasetRegistry registry;
  HostOverrides share;
  share.max_concurrent_solves = 1;
  ASSERT_TRUE(
      registry.AddGenerated("flights", config, 400, kSeed, {}, share).ok());
  RouterOptions options;
  options.num_threads = 4;
  RoutingService router(&registry, options);

  // Month queries are outside the season-only configuration: every distinct
  // request is an on-demand miss, spread over both targets.
  std::vector<std::future<RoutedResponse>> futures;
  const std::vector<std::string> months = {"February", "June", "September",
                                           "December"};
  for (const auto& month : months) {
    futures.push_back(router.Submit("cancelled in " + month));
    futures.push_back(router.Submit("delay minutes in " + month));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().response.answered);
  }
  HostStats stats = router.host("flights")->stats();
  EXPECT_GE(stats.on_demand_summaries, months.size());
  // The gate never admitted a second concurrent batch solve.
  EXPECT_EQ(stats.max_active_solves, 1u);
}

TEST(DynamicRegistryTest, ConcurrentAddRemoveUnderSubmitTraffic) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  ASSERT_TRUE(registry.AddGenerated("acs", AcsConfig(), 200, kSeed).ok());

  RouterOptions options;
  options.num_threads = 4;  // >= 4 workers drive Submit traffic
  RoutingService router(&registry, options);

  const std::vector<std::string> steady_requests = {
      "cancelled in February",        "visual impairment in Manhattan",
      "cancelled in Winter",          "visual for Elders",
      "cancelled November",           "visual in Brooklyn",
      "delay in the North",           "delay in Winter",
  };

  // Every response is tallied -- one ledger per submitter, one for this
  // thread's AnswerNow calls -- and reconciled with the router's counters
  // at the end: registrations (each one pre-processing the new dataset)
  // must not lose or double-count a request.
  testing::StatusLedger submit_ledgers[2];
  testing::StatusLedger answer_ledger;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> submitted{0};
  auto submitter = [&](testing::StatusLedger* ledger) {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::future<RoutedResponse> future =
          router.Submit(steady_requests[i++ % steady_requests.size()]);
      RoutedResponse routed = future.get();
      ledger->Add(routed.response.status);
      // Whatever the registry did meanwhile, every request resolves to a
      // well-formed response (possibly unrouted while "re" is absent).
      EXPECT_FALSE(routed.response.text.empty());
      submitted.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread submit_a(submitter, &submit_ledgers[0]);
  std::thread submit_b(submitter, &submit_ledgers[1]);

  const int kCycles = 6;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ASSERT_TRUE(
        registry.AddGenerated("re", RunningExampleConfig(), 16, kSeed).ok());
    // The dataset is routable the moment AddGenerated returned.
    RoutedResponse added = router.AnswerNow("delay in the East");
    answer_ledger.Add(added.response.status);
    EXPECT_TRUE(added.routed);
    EXPECT_EQ(added.dataset, "re");
    ASSERT_TRUE(registry.RemoveDataset("re").ok());
    // The misroute guarantee: once RemoveDataset returned, no new request
    // may route to the removed dataset.
    RoutedResponse after = router.AnswerNow("delay in the East");
    answer_ledger.Add(after.response.status);
    EXPECT_FALSE(after.routed && after.dataset == "re") << "cycle " << cycle;
  }

  // Keep the registry churn overlapped with real traffic: don't stop the
  // submitters until they demonstrably ran (scheduling under a loaded ctest
  // can otherwise finish all cycles before a submitter's first request).
  while (submitted.load(std::memory_order_relaxed) < 50) {
    std::this_thread::yield();
  }
  stop.store(true);
  submit_a.join();
  submit_b.join();
  router.Drain();
  router.SyncRegistry();

  EXPECT_GE(submitted.load(), 50u);
  EXPECT_EQ(router.host("re"), nullptr);
  EXPECT_EQ(router.num_hosts(), 2u);
  // Purge completeness across every retired incarnation: fingerprints are
  // "re#<generation>:<config>", so the name prefix covers all of them.
  EXPECT_EQ(router.cache().CountPrefix("re#"), 0u);
  RouterStats stats = router.stats();
  EXPECT_GE(stats.registry_syncs, static_cast<uint64_t>(kCycles));
  EXPECT_EQ(stats.requests, stats.routed + stats.unrouted);
  testing::StatusLedger ledger = answer_ledger;
  for (const testing::StatusLedger& submit_ledger : submit_ledgers) {
    ledger.Add(submit_ledger);
  }
  EXPECT_EQ(ledger.requests, submitted.load() + 2 * kCycles);
  ledger.ExpectMatches(stats);
}

}  // namespace
}  // namespace serve
}  // namespace vq
