#include "serve/router.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "storage/datasets.h"
#include "testing/status_ledger.h"
#include "testing/utterances.h"

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

Configuration PrimariesConfig() {
  Configuration config;
  config.table = "primaries";
  config.dimensions = {"state_region", "urbanity"};
  config.targets = {"vote_share"};
  config.max_query_predicates = 2;
  return config;
}

/// A three-dataset registry covering the paper's table mix.
class RoutingServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        registry_.RegisterGenerated("flights", FlightsConfig(), 600, kSeed).ok());
    ASSERT_TRUE(registry_.RegisterGenerated("acs", AcsConfig(), 400, kSeed).ok());
    ASSERT_TRUE(
        registry_.RegisterGenerated("primaries", PrimariesConfig(), 400, kSeed)
            .ok());
  }

  DatasetRegistry registry_;
};

TEST_F(RoutingServiceTest, RoutesInterleavedQueriesAcrossThreeDatasets) {
  // (request, expected dataset) pairs interleaving all three vocabularies;
  // none of them names its dataset.
  const std::vector<std::pair<std::string, std::string>> workload = {
      {"cancelled in February", "flights"},
      {"visual impairment in Manhattan", "acs"},
      {"vote share in the Northeast", "primaries"},
      {"cancelled in Winter", "flights"},
      {"visual for Elders", "acs"},
      {"vote share in Urban areas", "primaries"},
      {"cancelled November", "flights"},
      {"visual in Brooklyn", "acs"},
      {"vote share Rural", "primaries"},
  };

  // Expected texts from each dataset's bare engine.
  std::vector<std::string> expected;
  for (const auto& [request, dataset] : workload) {
    const VoiceQueryEngine* engine = registry_.engine(dataset);
    ASSERT_NE(engine, nullptr);
    VoiceQueryEngine::Session session;
    expected.push_back(engine->Answer(request, &session).text);
  }

  RouterOptions options;
  options.num_threads = 4;
  RoutingService router(&registry_, options);
  EXPECT_EQ(router.num_hosts(), 3u);

  std::vector<std::future<RoutedResponse>> futures;
  const int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [request, dataset] : workload) {
      futures.push_back(router.Submit(request));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    RoutedResponse routed = futures[i].get();
    const auto& [request, dataset] = workload[i % workload.size()];
    EXPECT_TRUE(routed.routed) << request;
    EXPECT_EQ(routed.dataset, dataset) << request;
    EXPECT_TRUE(routed.response.answered) << request;
    EXPECT_EQ(routed.response.text, expected[i % workload.size()]) << request;
  }

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, workload.size() * kRounds);
  EXPECT_EQ(stats.routed, stats.requests);
  EXPECT_EQ(stats.unrouted, 0u);
  ASSERT_EQ(stats.per_dataset.size(), 3u);
  for (const auto& [name, count] : stats.per_dataset) {
    EXPECT_EQ(count, 3u * kRounds) << name;
    HostStats host = router.host(name)->stats();
    // Every query is materialized, so nothing needed the optimizer, and
    // each query either hit or missed the cache exactly once.
    EXPECT_EQ(host.on_demand_summaries, 0u) << name;
    EXPECT_GT(host.cache_hits, 0u) << name;
    EXPECT_EQ(host.cache_hits + host.cache_misses, host.queries) << name;
  }
}

TEST_F(RoutingServiceTest, UnroutableQueryIsUnanswerableNotACrash) {
  RoutingService router(&registry_);
  RoutedResponse routed = router.AnswerNow("quarterly revenue trends please");
  EXPECT_FALSE(routed.routed);
  EXPECT_TRUE(routed.dataset.empty());
  EXPECT_FALSE(routed.response.answered);
  EXPECT_EQ(routed.response.source, AnswerSource::kUnanswerable);
  EXPECT_EQ(routed.response.type, RequestType::kOther);
  EXPECT_EQ(router.stats().unrouted, 1u);
}

TEST_F(RoutingServiceTest, HelpIsServedWithoutRouting) {
  RoutingService router(&registry_);
  RoutedResponse help = router.AnswerNow("help");
  EXPECT_FALSE(help.routed);
  EXPECT_EQ(help.response.type, RequestType::kHelp);
  EXPECT_NE(help.response.text.find("flights"), std::string::npos);
  EXPECT_NE(help.response.text.find("primaries"), std::string::npos);
}

Configuration RunningExampleConfig(std::vector<std::string> dimensions = {
                                       "region", "season"}) {
  Configuration config;
  config.table = "running_example";
  config.dimensions = std::move(dimensions);
  config.targets = {"delay"};
  config.max_query_predicates = 2;
  config.max_fact_dims = 2;
  config.max_facts = 3;
  config.prior = PriorKind::kZero;
  return config;
}

void AddDelaysSynonym(VoiceQueryEngine* engine) {
  EXPECT_TRUE(engine->mutable_extractor()->AddTargetSynonym("delays", "delay").ok());
}

/// The single-dataset deployment: the running example registered alone
/// behind a RoutingService. Every response a test gets back through
/// Answer/Collect is tallied by status, and TearDown reconciles the tally
/// with the router's own counters.
class OneDatasetRouterTest : public ::testing::Test {
 protected:
  void Start(Configuration config, RouterOptions options = {}) {
    ASSERT_TRUE(registry_
                    .AddDataset("re", MakeRunningExampleTable(), std::move(config),
                                {}, std::nullopt, AddDelaysSynonym)
                    .ok());
    router_ = std::make_unique<RoutingService>(&registry_, options);
  }

  void TearDown() override {
    if (router_ == nullptr) return;
    router_->Drain();
    ledger_.ExpectMatches(router_->stats());
  }

  RoutedResponse Answer(const std::string& request) {
    return Tally(router_->AnswerNow(request));
  }
  RoutedResponse Collect(std::future<RoutedResponse>& future) {
    return Tally(future.get());
  }

  const EngineHost& host() const { return *router_->host("re"); }
  const VoiceQueryEngine& engine() const { return *registry_.engine("re"); }

  DatasetRegistry registry_;
  std::unique_ptr<RoutingService> router_;

 private:
  RoutedResponse Tally(RoutedResponse routed) {
    ledger_.Add(routed.response.status);
    return routed;
  }

  testing::StatusLedger ledger_;
};

TEST_F(OneDatasetRouterTest, AnswersExactQueryLikeTheEngine) {
  Start(RunningExampleConfig());
  VoiceQueryEngine::Session session;
  auto expected = engine().Answer("delays in Winter", &session);
  ASSERT_NE(expected.speech, nullptr);

  RoutedResponse routed = Answer("delays in Winter");
  EXPECT_TRUE(routed.routed);
  EXPECT_EQ(routed.dataset, "re");
  const ServeResponse& response = routed.response;
  EXPECT_EQ(response.type, RequestType::kSupportedQuery);
  EXPECT_TRUE(response.answered);
  EXPECT_EQ(response.source, AnswerSource::kStoreExact);
  EXPECT_EQ(response.text, expected.text);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_GE(response.seconds, 0.0);
}

TEST_F(OneDatasetRouterTest, RepeatedQueryHitsTheCache) {
  Start(RunningExampleConfig());
  ServeResponse first = Answer("delays in Winter").response;
  ServeResponse second = Answer("delays in Winter").response;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.text, first.text);
  EXPECT_EQ(second.source, first.source);
  HostStats stats = host().stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.store_exact_hits, 1u);
  EXPECT_GT(router_->cache().TotalStats().HitRate(), 0.0);
}

TEST_F(OneDatasetRouterTest, RepeatAndOtherAreAnsweredWithoutAQuery) {
  Start(RunningExampleConfig());
  ServeResponse repeat = Answer("repeat that").response;
  EXPECT_EQ(repeat.type, RequestType::kRepeat);
  EXPECT_NE(repeat.text.find("nothing to repeat"), std::string::npos);
  ServeResponse other = Answer("sing me a song please").response;
  EXPECT_EQ(other.type, RequestType::kOther);
  EXPECT_FALSE(other.answered);
  EXPECT_EQ(router_->stats().requests, 2u);
  EXPECT_EQ(host().stats().queries, 0u);
}

TEST_F(OneDatasetRouterTest, OnDemandSummarizesNonMaterializedQuery) {
  // Pre-process only season queries; ask about a region. The bare engine can
  // only fall back to the all-records speech, the router's host optimizes
  // the exact subset on demand -- and its answer must match what a full
  // pre-processing run would have stored for region=North.
  Table full_table = MakeRunningExampleTable();
  auto full = VoiceQueryEngine::Build(&full_table, RunningExampleConfig(), {});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  AddDelaysSynonym(&full.value());
  VoiceQueryEngine::Session session;
  std::string expected_north = full.value().Answer("delays in the North", &session).text;

  Start(RunningExampleConfig({"season"}));
  VoiceQueryEngine::Session season_session;
  auto engine_answer = engine().Answer("delays in the North", &season_session);
  ASSERT_NE(engine_answer.speech, nullptr);
  EXPECT_TRUE(engine_answer.speech->query.predicates.empty())
      << "engine should only find the unfiltered fallback speech";

  ServeResponse response = Answer("delays in the North").response;
  EXPECT_TRUE(response.answered);
  EXPECT_EQ(response.source, AnswerSource::kOnDemand);
  EXPECT_EQ(response.text, expected_north);
  EXPECT_NE(response.text, engine_answer.text);
  EXPECT_EQ(host().stats().on_demand_summaries, 1u);

  // The on-demand answer is cached like any other.
  ServeResponse again = Answer("delays in the North").response;
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.text, expected_north);
  EXPECT_EQ(host().stats().on_demand_summaries, 1u);
}

TEST_F(OneDatasetRouterTest, ConcurrentIdenticalMissesSummarizeExactlyOnce) {
  RouterOptions options;
  options.num_threads = 4;
  Start(RunningExampleConfig({"season"}), options);

  const int kRequests = 32;
  std::vector<std::future<RoutedResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(router_->Submit("delays in the North"));
  }
  std::string text;
  for (auto& future : futures) {
    ServeResponse response = Collect(future).response;
    EXPECT_TRUE(response.answered);
    if (text.empty()) text = response.text;
    EXPECT_EQ(response.text, text);
  }
  HostStats stats = host().stats();
  // The coalescing invariant: one optimization run for the unique query, and
  // every other request either hit the cache or waited on the leader.
  EXPECT_EQ(stats.on_demand_summaries, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced_waits,
            static_cast<uint64_t>(kRequests - 1));
  EXPECT_EQ(router_->coalescer().leaders(), 1u);
  EXPECT_EQ(router_->coalescer().InFlight(), 0u);
}

TEST_F(OneDatasetRouterTest, ConcurrentDistinctMissesMatchInlineAnswers) {
  // Region queries are outside the season-only configuration, so each
  // distinct request is an on-demand miss of the one target. Four workers
  // solve them at once, the first of them building the engine's merge; each
  // answer must equal the one a second router gives answering inline.
  RouterOptions options;
  options.num_threads = 4;
  Start(RunningExampleConfig({"season"}), options);
  const std::vector<std::string> requests = {
      "delays in the North", "delays in the South", "delays in the East",
      "delays in the West"};

  std::vector<std::future<RoutedResponse>> futures;
  for (const auto& request : requests) futures.push_back(router_->Submit(request));
  std::vector<std::string> got;
  for (size_t i = 0; i < futures.size(); ++i) {
    RoutedResponse routed = Collect(futures[i]);
    EXPECT_EQ(routed.response.source, AnswerSource::kOnDemand) << requests[i];
    got.push_back(routed.response.text);
  }
  EXPECT_EQ(host().stats().on_demand_summaries, requests.size());

  RoutingService inline_router(&registry_);
  for (size_t i = 0; i < requests.size(); ++i) {
    RoutedResponse routed = inline_router.AnswerNow(requests[i]);
    EXPECT_EQ(routed.response.source, AnswerSource::kOnDemand) << requests[i];
    EXPECT_EQ(routed.response.text, got[i]) << requests[i];
  }
}

TEST(RoutingIsolationTest, IdenticalQueryTextIsolatedByFingerprint) {
  // Two datasets over the SAME table and vocabulary but different
  // configurations: identical query text must produce distinct cache keys
  // (config fingerprints differ) and distinct answers.
  Configuration long_speeches;
  long_speeches.table = "running_example";
  long_speeches.dimensions = {"region", "season"};
  long_speeches.targets = {"delay"};
  long_speeches.max_facts = 3;
  long_speeches.prior = PriorKind::kZero;
  Configuration short_speeches = long_speeches;
  short_speeches.max_facts = 1;

  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.RegisterGenerated("re_long", long_speeches, 16, kSeed).ok());
  ASSERT_TRUE(
      registry.RegisterGenerated("re_short", short_speeches, 16, kSeed).ok());

  RoutingService router(&registry);
  EngineHost* host_long = router.host("re_long");
  EngineHost* host_short = router.host("re_short");
  ASSERT_NE(host_long, nullptr);
  ASSERT_NE(host_short, nullptr);
  EXPECT_NE(host_long->fingerprint(), host_short->fingerprint());

  // The whole-table query: greedy's second pick has positive gain on the
  // running example (Example 7), so a 3-fact speech provably differs from a
  // 1-fact one.
  const std::string request = "delay";
  ServeResponse from_long = host_long->Handle(request);
  ServeResponse from_short = host_short->Handle(request);
  EXPECT_TRUE(from_long.answered);
  EXPECT_TRUE(from_short.answered);
  // max_facts=3 vs max_facts=1 produce different speeches for the same text.
  EXPECT_NE(from_long.text, from_short.text);
  // Both answers landed in the SHARED cache under distinct keys.
  EXPECT_EQ(router.cache().size(), 2u);

  // Vocabulary coverage ties (same table); routing stays deterministic on
  // the first-registered dataset.
  RoutingService::RouteDecision decision = router.Route(request);
  EXPECT_EQ(decision.host_index, 0);
  RoutedResponse via_router = router.AnswerNow(request);
  EXPECT_EQ(via_router.dataset, "re_long");
  EXPECT_EQ(via_router.response.text, from_long.text);
  EXPECT_TRUE(via_router.response.cache_hit);
}

TEST(RoutingIsolationTest, IdenticalConfigurationsStillIsolatedByHostName) {
  // Same Configuration registered twice: the config fingerprints collide,
  // so only the host-name prefix keeps the shared cache partitioned.
  Configuration config;
  config.table = "running_example";
  config.dimensions = {"region", "season"};
  config.targets = {"delay"};
  config.prior = PriorKind::kZero;

  DatasetRegistry registry;
  ASSERT_TRUE(registry.RegisterGenerated("first", config, 16, kSeed).ok());
  ASSERT_TRUE(registry.RegisterGenerated("second", config, 16, kSeed).ok());

  RoutingService router(&registry);
  EngineHost* first = router.host("first");
  EngineHost* second = router.host("second");
  EXPECT_NE(first->fingerprint(), second->fingerprint());

  ServeResponse a = first->Handle("delay in Winter");
  ServeResponse b = second->Handle("delay in Winter");
  EXPECT_TRUE(a.answered);
  EXPECT_TRUE(b.answered);
  EXPECT_FALSE(b.cache_hit) << "second host must not see first host's entry";
  EXPECT_EQ(router.cache().size(), 2u);
}

TEST(RoutingSharedVocabularyTest, FourThreadSubmitMatchesInlineAnswers) {
  // The benchmark fleet's configured queries plus seeded mutants, answered
  // inline on one router and through 4 pool workers on another: every
  // worker walks the same read-only vocabularies, concurrently (the
  // serve-tsan preset runs this), and must reach the same answers.
  DatasetRegistry registry;
  ASSERT_TRUE(testing::AddLookupHotFleet(&registry).ok());
  std::vector<testing::Utterance> requests = testing::ConfiguredUtterances(registry);
  ASSERT_EQ(requests.size(), 210u);
  std::vector<testing::Utterance> mutants =
      testing::MutatedUtterances(requests, 600, /*seed=*/16);
  requests.insert(requests.end(), mutants.begin(), mutants.end());

  RouterOptions one_thread;
  one_thread.num_threads = 1;
  RoutingService inline_router(&registry, one_thread);
  std::vector<RoutedResponse> expected;
  for (const testing::Utterance& u : requests) {
    expected.push_back(inline_router.AnswerNow(u.text));
  }

  RouterOptions four_threads;
  four_threads.num_threads = 4;
  RoutingService router(&registry, four_threads);
  std::vector<std::future<RoutedResponse>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const testing::Utterance& u : requests) futures.push_back(router.Submit(u.text));
  }
  size_t routed_home = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    RoutedResponse got = futures[i].get();
    const RoutedResponse& want = expected[i % requests.size()];
    const std::string& text = requests[i % requests.size()].text;
    EXPECT_EQ(got.routed, want.routed) << text;
    EXPECT_EQ(got.dataset, want.dataset) << text;
    EXPECT_EQ(got.route_score, want.route_score) << text;
    EXPECT_EQ(got.response.type, want.response.type) << text;
    EXPECT_EQ(got.response.status, want.response.status) << text;
    EXPECT_EQ(got.response.answered, want.response.answered) << text;
    EXPECT_EQ(got.response.text, want.response.text) << text;
    if (i < 210) {
      EXPECT_EQ(got.dataset, requests[i].dataset) << text;
      EXPECT_TRUE(got.response.answered) << text;
      ++routed_home;
    }
  }
  EXPECT_EQ(routed_home, 210u);
}

}  // namespace
}  // namespace serve
}  // namespace vq
