// Deadline propagation and load shedding through the serving stack.
//
// Each case pins ONE stage boundary of the deadline ladder (queue pickup,
// post-route, pre-compute, solve) with an injectable clock: a small
// tick-counting ClockFn returns 0 for the first N reads and "way past the
// budget" afterwards, so exactly the Nth Expired() check in the pipeline is
// the one that fires -- no sleeps, no racing the scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/router.h"
#include "testing/status_ledger.h"
#include "util/fault.h"
#include "util/stopwatch.h"

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

/// Season-only configuration: region queries ("delay in the North") always
/// need an on-demand solve, the hook for the solve-stage cases.
Configuration RunningExampleConfig() {
  Configuration config;
  config.table = "running_example";
  config.dimensions = {"season"};
  config.targets = {"delay"};
  config.prior = PriorKind::kZero;
  return config;
}

/// A ClockFn whose first `free_reads` samples report t=0 and every later
/// one t=1e6 (far past any budget). The Deadline constructor consumes read
/// #0, so `free_reads = N` expires the pipeline's Nth Expired() check.
Deadline::ClockFn SteppingClock(int free_reads) {
  auto reads = std::make_shared<std::atomic<int>>(0);
  return [reads, free_reads] {
    return reads->fetch_add(1, std::memory_order_relaxed) < free_reads ? 0.0
                                                                       : 1e6;
  };
}

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Global().Reset();
    ASSERT_TRUE(
        registry_.RegisterGenerated("flights", FlightsConfig(), 600, kSeed).ok());
  }
  void TearDown() override { fault::FaultInjector::Global().Reset(); }

  DatasetRegistry registry_;
};

TEST_F(OverloadTest, QueueExpiredRequestTurnsAroundBeforeRouting) {
  RouterOptions options;
  options.default_deadline_seconds = 0.25;
  // Read #1 is Process's stage-0 check: already expired, as if the request
  // rotted in the pool queue past its whole budget.
  options.deadline_clock = SteppingClock(1);
  RoutingService router(&registry_, options);

  RoutedResponse routed = router.AnswerNow("cancelled in February");
  EXPECT_FALSE(routed.routed) << "queue-expired requests must not be routed";
  EXPECT_EQ(routed.response.status, ServeStatus::kTimeout);
  EXPECT_FALSE(routed.response.answered);
  EXPECT_EQ(routed.response.text, VoiceQueryEngine::TimedOutText());

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.routed, 0u);
  EXPECT_EQ(stats.unrouted, 0u) << "timeout is its own disposition";
}

TEST_F(OverloadTest, RouteStageExpiryStillLandsOnTheRightDataset) {
  RouterOptions options;
  options.default_deadline_seconds = 0.25;
  // Read #1 (stage 0) passes; read #2 -- the post-route check -- expires.
  options.deadline_clock = SteppingClock(2);
  RoutingService router(&registry_, options);

  RoutedResponse routed = router.AnswerNow("cancelled in February");
  EXPECT_TRUE(routed.routed) << "expiry after routing keeps the route";
  EXPECT_EQ(routed.dataset, "flights");
  EXPECT_EQ(routed.response.status, ServeStatus::kTimeout);
  EXPECT_FALSE(routed.response.answered);
  EXPECT_EQ(routed.response.text, VoiceQueryEngine::TimedOutText());
  EXPECT_EQ(router.stats().timeouts, 1u);
  EXPECT_EQ(router.host("flights")->stats().timeouts, 1u);
}

TEST_F(OverloadTest, HostPreComputeExpiryServesCachedAnswerIfPresent) {
  RoutingService router(&registry_);
  // Warm the cache with the real answer first (no deadline).
  RoutedResponse warm = router.AnswerNow("cancelled in February");
  ASSERT_TRUE(warm.response.answered);
  ASSERT_EQ(warm.response.status, ServeStatus::kOk);

  EngineHost* host = router.host("flights");
  ASSERT_NE(host, nullptr);

  // Expired before the cache lookup: the host must still serve the fresh
  // cached text (the cheap path is exactly what an expired budget can afford).
  Deadline expired(0.25, SteppingClock(1));
  ServeResponse cached = host->Handle("cancelled in February", nullptr, &expired);
  EXPECT_TRUE(cached.answered);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.status, ServeStatus::kOk);
  EXPECT_EQ(cached.text, warm.response.text);
  EXPECT_FALSE(cached.stale);

  // Same expiry with nothing cached: apology, not a hang.
  Deadline expired_too(0.25, SteppingClock(1));
  ServeResponse miss = host->Handle("cancelled in Winter", nullptr, &expired_too);
  EXPECT_FALSE(miss.answered);
  EXPECT_EQ(miss.status, ServeStatus::kTimeout);
  EXPECT_EQ(miss.text, VoiceQueryEngine::TimedOutText());
}

TEST_F(OverloadTest, SolveStageExpiryDegradesToStoreFallback) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.RegisterGenerated("re", RunningExampleConfig(), 16, kSeed).ok());
  RoutingService router(&registry);
  EngineHost* host = router.host("re");
  ASSERT_NE(host, nullptr);

  // Read #1 (Handle's pre-compute check) passes; read #2 is ComputeAnswer's
  // solve gate: the budget dies exactly when the expensive work would start,
  // so the host skips the solve and degrades to the most specific stored
  // speech instead of blocking on the optimizer.
  Deadline deadline(0.25, SteppingClock(2));
  ServeResponse degraded = host->Handle("delay in the North", nullptr, &deadline);
  EXPECT_TRUE(degraded.answered) << "a degraded answer is still an answer";
  EXPECT_EQ(degraded.status, ServeStatus::kDegraded);
  EXPECT_NE(degraded.source, AnswerSource::kOnDemand) << "solve was skipped";
  EXPECT_EQ(host->stats().degraded, 1u);

  // Degraded answers must not be cached: with a full budget the same query
  // now gets the true on-demand summary.
  ServeResponse full = host->Handle("delay in the North");
  EXPECT_TRUE(full.answered);
  EXPECT_FALSE(full.cache_hit) << "the degraded answer must not have been cached";
  EXPECT_EQ(full.status, ServeStatus::kOk);
  EXPECT_EQ(full.source, AnswerSource::kOnDemand);
}

TEST_F(OverloadTest, AnytimeGreedyTruncationIsFlaggedDegraded) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.RegisterGenerated("re", RunningExampleConfig(), 16, kSeed).ok());
  RoutingService router(&registry);
  EngineHost* host = router.host("re");

  // Enough free reads to pass the request-level checks and enter the solve;
  // the greedy loop's own per-iteration checks then hit the expired clock
  // and checkpoint best-so-far. Either the truncation produced facts (a
  // degraded summary) or nothing yet (store fallback, also degraded) --
  // both must flag the response, neither may block or crash.
  Deadline deadline(0.25, SteppingClock(4));
  ServeResponse response = host->Handle("delay in the South", nullptr, &deadline);
  EXPECT_TRUE(response.answered);
  EXPECT_EQ(response.status, ServeStatus::kDegraded);
}

TEST_F(OverloadTest, RouterAdmissionBudgetShedsExcessSubmits) {
  RouterOptions options;
  options.num_threads = 1;
  options.max_pending_requests = 2;
  // Park the single worker long enough for the submit burst below: the
  // vocalize sleep happens while holding the only worker, so at most two
  // requests can be pending and every later Submit must shed immediately.
  options.host.simulated_vocalize_seconds = 0.2;
  RoutingService router(&registry_, options);

  std::vector<std::future<RoutedResponse>> futures;
  const size_t kSubmitted = 8;
  for (size_t i = 0; i < kSubmitted; ++i) {
    futures.push_back(router.Submit("cancelled in February"));
  }
  size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    RoutedResponse routed = f.get();
    if (routed.response.status == ServeStatus::kShed) {
      ++shed;
      EXPECT_FALSE(routed.routed);
      EXPECT_EQ(routed.response.text, VoiceQueryEngine::OverloadedText());
    } else {
      ++ok;
      EXPECT_EQ(routed.response.status, ServeStatus::kOk);
      EXPECT_TRUE(routed.response.answered);
    }
  }
  EXPECT_GE(shed, kSubmitted - 2) << "at most max_pending can be accepted";
  EXPECT_GE(ok, 1u) << "the accepted requests must still be answered";

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, kSubmitted);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.requests, ok + stats.shed + stats.timeouts + stats.degraded)
      << "every submitted request resolves to exactly one status";
  router.Drain();
  EXPECT_EQ(router.PendingRequests(), 0u);
}

TEST_F(OverloadTest, PerDatasetAdmissionShedsWithoutTouchingTheSolver) {
  RouterOptions options;
  options.num_threads = 2;
  options.host.simulated_vocalize_seconds = 0.25;
  HostOverrides policy;
  policy.max_pending_requests = 1;
  DatasetRegistry registry;
  ASSERT_TRUE(registry
                  .AddGenerated("flights", FlightsConfig(), 600, kSeed, {},
                                policy)
                  .ok());
  RoutingService router(&registry, options);

  // First request occupies the dataset's single slot (vocalize keeps it
  // inside the host); the second one, arriving while the first vocalizes,
  // must be shed by the per-dataset budget.
  auto first = router.Submit("cancelled in February");
  // Give the first request time to get picked up and into the host.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RoutedResponse second = router.AnswerNow("cancelled in Winter");
  EXPECT_TRUE(second.routed) << "per-dataset shedding happens after routing";
  EXPECT_EQ(second.response.status, ServeStatus::kShed);
  EXPECT_EQ(second.response.text, VoiceQueryEngine::OverloadedText());

  RoutedResponse one = first.get();
  EXPECT_EQ(one.response.status, ServeStatus::kOk);
  EXPECT_TRUE(one.response.answered);
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.shed, 1u);
}

TEST_F(OverloadTest, ShedServesStaleCacheEntryMarkedDegraded) {
  HostOverrides policy;
  policy.answer_ttl_seconds = 0.02;
  DatasetRegistry registry;
  ASSERT_TRUE(registry
                  .AddGenerated("flights", FlightsConfig(), 600, kSeed, {},
                                policy)
                  .ok());
  RoutingService router(&registry);
  // Every response below came out of this host's Handle; the ledger
  // reconciles their statuses with the host's counters at the end.
  testing::StatusLedger ledger;
  RoutedResponse warm = router.AnswerNow("cancelled in February");
  ledger.Add(warm.response.status);
  ASSERT_TRUE(warm.response.answered);

  // Let the answered entry's TTL lapse, then hit the overload path: a stale
  // answer beats the overload apology and is flagged for the caller.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EngineHost* host = router.host("flights");
  ServeResponse stale = host->Handle("cancelled in February", nullptr, nullptr,
                                     std::nullopt, ServeStatus::kShed);
  ledger.Add(stale.status);
  EXPECT_TRUE(stale.answered);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.status, ServeStatus::kDegraded);
  EXPECT_EQ(stale.text, warm.response.text);
  EXPECT_EQ(host->stats().stale_serves, 1u);

  // Nothing cached for this one: the shed apology comes back.
  ServeResponse apology = host->Handle("cancelled in Winter", nullptr, nullptr,
                                       std::nullopt, ServeStatus::kShed);
  ledger.Add(apology.status);
  EXPECT_FALSE(apology.answered);
  EXPECT_EQ(apology.status, ServeStatus::kShed);
  EXPECT_EQ(apology.text, VoiceQueryEngine::OverloadedText());
  ledger.ExpectMatches(host->stats());
}

TEST_F(OverloadTest, PoolSubmitFaultShedsAtTheDoor) {
  RoutingService router(&registry_);
  fault::FaultInjector::Global().Arm(fault::kPoolSubmit,
                                     {.fail_probability = 1.0});
  auto rejected = router.Submit("cancelled in February");
  RoutedResponse routed = rejected.get();
  EXPECT_EQ(routed.response.status, ServeStatus::kShed);
  EXPECT_FALSE(routed.routed);
  fault::FaultInjector::Global().Reset();

  auto accepted = router.Submit("cancelled in February");
  RoutedResponse healthy = accepted.get();
  EXPECT_EQ(healthy.response.status, ServeStatus::kOk);
  EXPECT_TRUE(healthy.response.answered);

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.shed, 1u);
}

TEST_F(OverloadTest, NoDeadlineMeansNoBehaviorChange) {
  RoutingService router(&registry_);
  RoutedResponse routed = router.AnswerNow("cancelled in February");
  EXPECT_EQ(routed.response.status, ServeStatus::kOk);
  EXPECT_TRUE(routed.response.answered);
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.degraded, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace vq
