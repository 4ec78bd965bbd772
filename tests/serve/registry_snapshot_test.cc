// Registry integration for zero-copy snapshots: AddFromSnapshot must be
// answer-for-answer identical to the cold AddDataset path, fall back to a
// cold build on any snapshot problem (with the fallback counter bumped),
// keep the mapping alive across RemoveDataset for pinned readers, and feed
// the snapshot observability (loads/fallbacks counters, bytes-mapped gauge,
// load-latency histogram). The concurrency hammer at the end runs under the
// serve-tsan preset and exercises concurrent Add-from-snapshot / Remove /
// Submit traffic over the mmap-backed entries.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/answer.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "storage/datasets.h"
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

Configuration RunningExampleConfig() {
  Configuration config;
  config.table = "running_example";
  config.dimensions = {"region", "season"};
  config.targets = {"delay"};
  config.prior = PriorKind::kZero;
  return config;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// The routed workload both incarnations must answer identically: store
/// hits, fallbacks, and on-demand misses (month x season is outside
/// max_query_predicates for some combos but within vocabulary).
const std::vector<std::string>& Workload() {
  static const std::vector<std::string> requests = {
      "cancelled in February",  "cancelled in Winter",
      "cancelled in July",      "cancelled in Fall",
      "cancelled",              "cancelled in Winter in February",
  };
  return requests;
}

TEST(RegistrySnapshotTest, SnapshotAddAnswersIdenticallyToColdAdd) {
  std::string path = TempPath("flights_identical.vqsnap");

  // Cold incarnation: build, persist, record every answer.
  std::vector<std::string> cold_answers;
  {
    DatasetRegistry registry;
    ASSERT_TRUE(
        registry.AddGenerated("flights", FlightsConfig(), 500, kSeed).ok());
    ASSERT_TRUE(registry.WriteSnapshot("flights", path).ok());
    RoutingService router(&registry);
    testing::StatusLedger ledger;
    for (const auto& request : Workload()) {
      RoutedResponse routed = ledger.Tally(router.AnswerNow(request));
      EXPECT_TRUE(routed.routed) << request;
      cold_answers.push_back(routed.response.text);
    }
    ledger.ExpectMatches(router.stats());
  }

  // Snapshot incarnation in a "new process": same answers, no fallback.
  obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptions{.metrics = &metrics});
  auto never_called = []() -> Result<Table> {
    ADD_FAILURE() << "cold fallback must not run for a valid snapshot";
    return Status::Internal("unreachable");
  };
  ASSERT_TRUE(registry
                  .AddFromSnapshot("flights", path, FlightsConfig(),
                                   never_called)
                  .ok());
  EXPECT_TRUE(registry.table("flights")->snapshot_backed());
  EXPECT_TRUE(registry.table("flights")->has_index());

  RoutingService router(&registry);
  testing::StatusLedger ledger;
  for (size_t i = 0; i < Workload().size(); ++i) {
    RoutedResponse routed = ledger.Tally(router.AnswerNow(Workload()[i]));
    EXPECT_TRUE(routed.routed) << Workload()[i];
    EXPECT_EQ(routed.response.text, cold_answers[i]) << Workload()[i];
  }
  ledger.ExpectMatches(router.stats());

  EXPECT_EQ(metrics.GetCounter("vq_registry_snapshot_loads_total")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("vq_registry_snapshot_fallbacks_total")->Value(),
            0u);
  std::filesystem::remove(path);
}

TEST(RegistrySnapshotTest, SnapshotObservabilityLightsUp) {
  std::string path = TempPath("flights_obs.vqsnap");
  {
    DatasetRegistry writer;
    ASSERT_TRUE(
        writer.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
    ASSERT_TRUE(writer.WriteSnapshot("flights", path).ok());
  }
  size_t file_bytes = std::filesystem::file_size(path);

  obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptions{.metrics = &metrics});
  ASSERT_TRUE(registry.AddFromSnapshot("flights", path, FlightsConfig()).ok());

  EXPECT_EQ(metrics.GetCounter("vq_registry_snapshot_loads_total")->Value(), 1u);
  EXPECT_EQ(metrics.GetGauge("vq_registry_snapshot_bytes_mapped")->Value(),
            static_cast<double>(file_bytes));
  obs::HistogramSnapshot load_hist =
      metrics.SnapshotHistogram("vq_registry_snapshot_load_seconds");
  EXPECT_EQ(load_hist.count, 1u);

  // Removal returns the gauge to zero (the mapping itself may outlive the
  // gauge while pinned readers drain).
  ASSERT_TRUE(registry.RemoveDataset("flights").ok());
  EXPECT_EQ(metrics.GetGauge("vq_registry_snapshot_bytes_mapped")->Value(), 0.0);
  std::filesystem::remove(path);
}

TEST(RegistrySnapshotTest, CorruptSnapshotFallsBackToColdBuild) {
  std::string path = TempPath("flights_corrupt.vqsnap");
  {
    DatasetRegistry writer;
    ASSERT_TRUE(
        writer.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
    ASSERT_TRUE(writer.WriteSnapshot("flights", path).ok());
  }
  // Corrupt one payload byte.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    size_t size = std::filesystem::file_size(path);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.put('\x7f');
  }

  obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptions{.metrics = &metrics});
  std::atomic<int> fallback_builds{0};
  auto fallback = [&]() -> Result<Table> {
    ++fallback_builds;
    return MakeDataset("flights", 300, kSeed);
  };
  ASSERT_TRUE(
      registry.AddFromSnapshot("flights", path, FlightsConfig(), fallback).ok());
  EXPECT_EQ(fallback_builds.load(), 1);
  EXPECT_FALSE(registry.table("flights")->snapshot_backed());
  EXPECT_EQ(metrics.GetCounter("vq_registry_snapshot_fallbacks_total")->Value(),
            1u);
  EXPECT_EQ(metrics.GetCounter("vq_registry_snapshot_loads_total")->Value(), 0u);
  EXPECT_EQ(metrics.GetGauge("vq_registry_snapshot_bytes_mapped")->Value(), 0.0);

  // The fallback-built dataset serves normally.
  RoutingService router(&registry);
  testing::StatusLedger ledger;
  EXPECT_TRUE(ledger.Tally(router.AnswerNow("cancelled in February")).response.answered);
  ledger.ExpectMatches(router.stats());
  std::filesystem::remove(path);
}

TEST(RegistrySnapshotTest, ForeignConfigurationFallsBack) {
  std::string path = TempPath("flights_foreign_cfg.vqsnap");
  {
    DatasetRegistry writer;
    ASSERT_TRUE(
        writer.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
    ASSERT_TRUE(writer.WriteSnapshot("flights", path).ok());
  }

  // Same table, different configuration: the stored speech inventory is
  // for another query universe, so the snapshot must be refused.
  Configuration other = FlightsConfig();
  other.max_query_predicates = 1;
  obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptions{.metrics = &metrics});

  // Without a fallback the configuration mismatch surfaces as the error.
  Status no_fallback = registry.AddFromSnapshot("flights", path, other);
  ASSERT_FALSE(no_fallback.ok());
  EXPECT_NE(no_fallback.message().find("configuration"), std::string::npos);
  EXPECT_EQ(metrics.GetCounter("vq_registry_snapshot_fallbacks_total")->Value(),
            1u);

  // With one, registration succeeds cold.
  ASSERT_TRUE(registry
                  .AddFromSnapshot("flights", path, other,
                                   [] { return MakeDataset("flights", 300,
                                                           kSeed); })
                  .ok());
  EXPECT_FALSE(registry.table("flights")->snapshot_backed());
  std::filesystem::remove(path);
}

TEST(RegistrySnapshotTest, LearnedSpeechesSurviveThroughSnapshotCycle) {
  const std::string learned_dir = TempPath("snap_learned_dir");
  std::filesystem::remove_all(learned_dir);
  std::string path = TempPath("re_learned.vqsnap");
  // An on-demand miss ("East" region is outside the 16-row store's subset
  // inventory only if not pre-processed; "delay Summer East" with 2
  // predicates exceeds max_query_predicates=1's store): learn it, flush it.
  Configuration config = RunningExampleConfig();
  config.max_query_predicates = 1;

  {
    DatasetRegistry registry{RegistryOptions{learned_dir}};
    ASSERT_TRUE(registry.AddGenerated("re", config, 16, kSeed).ok());
    RoutingService router(&registry);
    testing::StatusLedger ledger;
    RoutedResponse routed = ledger.Tally(router.AnswerNow("delay in the East in Winter"));
    ASSERT_TRUE(routed.response.answered);
    EXPECT_EQ(routed.response.source, AnswerSource::kOnDemand);
    router.Drain();
    ledger.ExpectMatches(router.stats());
    ASSERT_TRUE(registry.RemoveDataset("re").ok());
    router.SyncRegistry();  // drains the learned speech to disk
    ASSERT_TRUE(std::filesystem::exists(registry.LearnedPath("re")));
  }
  {
    // Persist the snapshot from a registry WITHOUT learned persistence, so
    // the snapshot's speech store does not embed the learned speech and the
    // reload below must come from the learned file itself. The table
    // fingerprint still stamps in (WriteSnapshot hashes on demand) and
    // matches the learned file's stamp because the data is bit-identical.
    DatasetRegistry writer;
    ASSERT_TRUE(writer.AddGenerated("re", config, 16, kSeed).ok());
    ASSERT_TRUE(writer.WriteSnapshot("re", path).ok());
  }

  // New "process": snapshot add reloads the learned file, because the
  // fingerprint stamped in the snapshot meta matches the one the learned
  // persistence recorded -- no re-hash, no spurious invalidation.
  DatasetRegistry registry{RegistryOptions{learned_dir}};
  ASSERT_TRUE(registry.AddFromSnapshot("re", path, config).ok());
  EXPECT_TRUE(registry.table("re")->snapshot_backed());
  EXPECT_EQ(registry.learned_loaded("re"), 1u);
  RoutingService router(&registry);
  testing::StatusLedger ledger;
  RoutedResponse reloaded = ledger.Tally(router.AnswerNow("delay in the East in Winter"));
  ASSERT_TRUE(reloaded.response.answered);
  EXPECT_EQ(reloaded.response.source, AnswerSource::kStoreExact);
  ledger.ExpectMatches(router.stats());

  std::filesystem::remove(path);
  std::filesystem::remove_all(learned_dir);
}

TEST(RegistrySnapshotTest, RemovedSnapshotDatasetStaysAliveForPinnedReaders) {
  std::string path = TempPath("re_pinned.vqsnap");
  {
    DatasetRegistry writer;
    ASSERT_TRUE(
        writer.AddGenerated("re", RunningExampleConfig(), 16, kSeed).ok());
    ASSERT_TRUE(writer.WriteSnapshot("re", path).ok());
  }

  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddFromSnapshot("re", path, RunningExampleConfig()).ok());
  RegistrySnapshotPtr pinned = registry.snapshot();
  ASSERT_TRUE(registry.RemoveDataset("re").ok());
  // Deleting the file is fine too: the mapping holds its own reference.
  std::filesystem::remove(path);

  // The pinned entry still answers from the (unlinked) mapping: the RCU
  // entry pin transitively pins the mmap through Table::SetBacking.
  const DatasetEntry* entry = pinned->Find("re");
  ASSERT_NE(entry, nullptr);
  VoiceQueryEngine::Session session;
  auto response = entry->engine->Answer("delay in the North", &session);
  EXPECT_FALSE(response.text.empty());
  EXPECT_GT(entry->table->index().Count(0, 0), 0u);
}

TEST(RegistrySnapshotTest, ConcurrentSnapshotAddRemoveUnderSubmitTraffic) {
  std::string path = TempPath("re_churn.vqsnap");
  {
    DatasetRegistry writer;
    ASSERT_TRUE(
        writer.AddGenerated("re", RunningExampleConfig(), 16, kSeed).ok());
    ASSERT_TRUE(writer.WriteSnapshot("re", path).ok());
  }

  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  RouterOptions options;
  options.num_threads = 4;
  RoutingService router(&registry, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> submitted{0};
  testing::StatusLedger submit_ledgers[2];
  testing::StatusLedger answer_ledger;
  auto submitter = [&](testing::StatusLedger* ledger) {
    const std::vector<std::string> steady = {
        "cancelled in February", "delay in the North", "cancelled in Winter",
        "delay in Summer"};
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      RoutedResponse routed =
          ledger->Tally(router.Submit(steady[i++ % steady.size()]).get());
      EXPECT_FALSE(routed.response.text.empty());
      submitted.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread submit_a(submitter, &submit_ledgers[0]);
  std::thread submit_b(submitter, &submit_ledgers[1]);

  for (int cycle = 0; cycle < 6; ++cycle) {
    ASSERT_TRUE(registry
                    .AddFromSnapshot("re", path, RunningExampleConfig())
                    .ok())
        << "cycle " << cycle;
    RoutedResponse added = answer_ledger.Tally(router.AnswerNow("delay in the East"));
    EXPECT_TRUE(added.routed);
    EXPECT_EQ(added.dataset, "re");
    ASSERT_TRUE(registry.RemoveDataset("re").ok());
    RoutedResponse after = answer_ledger.Tally(router.AnswerNow("delay in the East"));
    EXPECT_FALSE(after.routed && after.dataset == "re") << "cycle " << cycle;
  }

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
  testing::StatusLedger ledger = answer_ledger;
  for (const testing::StatusLedger& submit_ledger : submit_ledgers) {
    ledger.Add(submit_ledger);
  }
  ledger.ExpectMatches(router.stats());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace serve
}  // namespace vq
