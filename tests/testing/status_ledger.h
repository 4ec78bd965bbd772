// Shared test helper: a tally of the ServeStatus of every response a test
// received, reconciled against the serving layer's own counters.
//
// Every request resolves to exactly one status, so a test that tallies all
// of its responses can check that the router's (or a host's) counters saw
// the same requests and outcomes -- no response lost, none counted twice.
#ifndef VQ_TESTS_TESTING_STATUS_LEDGER_H_
#define VQ_TESTS_TESTING_STATUS_LEDGER_H_

#include <gtest/gtest.h>

#include <cstdint>

#include "serve/answer.h"
#include "serve/engine_host.h"
#include "serve/router.h"

namespace vq {
namespace testing {

struct StatusLedger {
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t timeouts = 0;
  uint64_t degraded = 0;

  void Add(serve::ServeStatus status) {
    ++requests;
    switch (status) {
      case serve::ServeStatus::kShed: ++shed; break;
      case serve::ServeStatus::kTimeout: ++timeouts; break;
      case serve::ServeStatus::kDegraded: ++degraded; break;
      case serve::ServeStatus::kOk: break;
    }
  }

  /// Adds `routed`'s status and hands the response back, so a call site
  /// reads `ledger.Tally(router.AnswerNow(request))`.
  serve::RoutedResponse Tally(serve::RoutedResponse routed) {
    Add(routed.response.status);
    return routed;
  }

  /// Folds in another ledger, e.g. one per client thread.
  void Add(const StatusLedger& other) {
    requests += other.requests;
    shed += other.shed;
    timeouts += other.timeouts;
    degraded += other.degraded;
  }

  /// The router counts every request it resolved, by status.
  void ExpectMatches(const serve::RouterStats& stats) const {
    EXPECT_EQ(stats.requests, requests);
    EXPECT_EQ(stats.shed, shed);
    EXPECT_EQ(stats.timeouts, timeouts);
    EXPECT_EQ(stats.degraded, degraded);
  }

  /// For responses that all came from one host's Handle: the host counts
  /// requests, timeouts and degraded answers (shedding is counted by the
  /// router alone).
  void ExpectMatches(const serve::HostStats& stats) const {
    EXPECT_EQ(stats.requests, requests);
    EXPECT_EQ(stats.timeouts, timeouts);
    EXPECT_EQ(stats.degraded, degraded);
  }
};

}  // namespace testing
}  // namespace vq

#endif  // VQ_TESTS_TESTING_STATUS_LEDGER_H_
