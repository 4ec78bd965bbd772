// Per-engine answer path of the serving layer.
//
// An EngineHost owns everything needed to answer requests against ONE
// pre-built (Table, Configuration, VoiceQueryEngine) triple: classification,
// cache lookup keyed by the engine's configuration fingerprint, in-flight
// coalescing, store lookup, on-demand summarization and the
// most-specific-speech fallback. An on-demand miss is solved like a
// pre-processing problem: its instance is a slice of the engine's
// whole-table merge for its target (VoiceQueryEngine::Merge). It
// deliberately owns no threads and no cache: the worker pool, the sharded
// answer cache and the coalescer are injected, so a RoutingService runs
// many hosts -- or just one, for a single-dataset deployment -- over one
// shared set of resources.
#ifndef VQ_SERVE_ENGINE_HOST_H_
#define VQ_SERVE_ENGINE_HOST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/summarizer.h"
#include "engine/voice_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/answer.h"
#include "serve/cache.h"
#include "serve/coalescer.h"
#include "util/sync.h"

namespace vq {
namespace serve {

/// Per-host behavior knobs. Every host answers a query with no exact
/// pre-computed speech by running greedy summarization at request time, on
/// a slice of the engine's merge for the query's target; concurrent misses
/// solve independently (identical ones are coalesced into one solve).
/// "I have no summary..." outcomes are cached too, shielding the optimizer
/// from repeated unanswerable queries.
struct HostOptions {
  /// TTL for cached unanswerable (negative) results; <= 0 keeps them until
  /// LRU eviction. A bounded TTL lets answers learned later (store reloads,
  /// new datasets) replace stale apologies.
  double unanswerable_ttl_seconds = 0.0;
  /// TTL for cached ANSWERED results; <= 0 keeps them until LRU eviction
  /// (the default: rendered answers over an immutable table never go bad).
  /// Deployments that reload tables set a freshness bound here; under
  /// overload the shedding path may still serve a TTL-expired entry, marked
  /// stale + kDegraded (a stale answer beats an apology).
  double answer_ttl_seconds = 0.0;
  /// Record on-demand results for TakeLearned()/persistence. Off by default:
  /// a host whose owner never drains the learned list must not grow it
  /// without bound (RoutingService turns this on when its registry
  /// persists).
  bool record_learned = false;
  /// Thread share for on-demand solving: at most this many on-demand solves
  /// run concurrently on this host (0 = unlimited). This caps the CPU a cold
  /// or miss-heavy dataset's optimizer runs consume -- greedy solves are the
  /// compute-heavy path -- so neighbors' cheap requests keep getting cores.
  /// It is NOT a worker-count cap: a request waiting for a solve slot still
  /// occupies its pool worker (parked on a condition variable, off-CPU)
  /// until a running solve of this host finishes.
  size_t max_concurrent_solves = 0;
  /// Per-dataset admission limit: at most this many routed requests may be
  /// inside this host at once (0 = unlimited). The router checks it after
  /// routing and, when exceeded, sheds the request -- serving a stale cached
  /// answer if one exists -- instead of letting the dataset's queue grow
  /// without bound. Complements `max_concurrent_solves`, which bounds the
  /// compute-heavy solves but still parks excess requests on its gate.
  size_t max_pending_requests = 0;
  /// Per-dataset byte quota inside the shared answer cache (0 = none): the
  /// cache evicts this host's own LRU entries once its tagged bytes exceed
  /// the quota, so per-dataset policies bound cache occupancy independently
  /// of the global byte budget. Enforced against the owner's SUMMED bytes
  /// across all shards (a global per-owner account), so small quotas work
  /// regardless of shard count; the just-inserted entry itself is never
  /// evicted (see ShardedSummaryCache::Put).
  size_t cache_byte_quota = 0;
  /// Artificial per-request vocalization/transport latency, applied after
  /// the answer is published. Stands in for the TTS + network time of a real
  /// deployment; benches use it to measure how well workers overlap waiting.
  double simulated_vocalize_seconds = 0.0;
  /// Per-dataset request-trace sampling budget: at most this many requests
  /// per wall second carry an obs::Trace that is retained in the sampled
  /// trace log (0 disables sampling; slow-trace capture below still works).
  uint32_t trace_samples_per_second = 2;
  /// Slow-query threshold: a routed request slower than this dumps its
  /// trace into the router's slow-query log regardless of sampling
  /// (<= 0 disables). The default comfortably exceeds a warm cache hit but
  /// catches cold on-demand solves and gate-wait convoys.
  double slow_trace_seconds = 0.25;
};

/// \brief Per-dataset policy: OPTIONAL per-field overrides over a base
/// HostOptions (the router fleet default).
///
/// Only fields explicitly set override the base; every unmentioned knob
/// inherits it. This replaces wholesale HostOptions replacement, where a
/// fresh-constructed policy silently reset unmentioned knobs (e.g. the
/// negative-result TTL) to their struct defaults instead of the fleet's.
struct HostOverrides {
  std::optional<double> unanswerable_ttl_seconds;
  std::optional<double> answer_ttl_seconds;
  std::optional<bool> record_learned;
  std::optional<size_t> max_concurrent_solves;
  std::optional<size_t> max_pending_requests;
  std::optional<size_t> cache_byte_quota;
  std::optional<double> simulated_vocalize_seconds;
  std::optional<uint32_t> trace_samples_per_second;
  std::optional<double> slow_trace_seconds;

  /// `base` with every set field replaced.
  HostOptions ApplyTo(HostOptions base) const;
};

/// One served response (a ServedAnswer plus per-request serving metadata).
struct ServeResponse {
  RequestType type = RequestType::kOther;
  std::string text;
  AnswerSource source = AnswerSource::kUnanswerable;
  bool answered = false;    ///< a speech (not an apology) was produced
  bool cache_hit = false;   ///< answered from the rendered-answer cache
  bool coalesced = false;   ///< waited on another request's computation
  /// Overload-control outcome (kOk unless the request was shed, timed out,
  /// or was answered in a reduced form). Every request gets exactly one.
  ServeStatus status = ServeStatus::kOk;
  /// True when `text` came from a TTL-expired cache entry served under
  /// pressure (status is kDegraded then).
  bool stale = false;
  double seconds = 0.0;     ///< total in-service time for this request
};

/// Monotonic per-host counters. `on_demand_summaries` increments exactly
/// once per unique query that reached the optimizer (coalescing guarantees
/// concurrent identical misses share one run).
struct HostStats {
  uint64_t requests = 0;
  uint64_t queries = 0;  ///< requests classified as data-access queries
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t coalesced_waits = 0;
  uint64_t store_exact_hits = 0;
  uint64_t store_fallback_hits = 0;
  uint64_t on_demand_summaries = 0;
  /// Merge slices taken: one per on-demand miss that reached the solver
  /// (its summary may still fail, e.g. on an empty subset). This field and
  /// `max_batch` stay only because perfbench reads them; they go when it
  /// stops.
  uint64_t on_demand_passes = 0;
  uint64_t max_batch = 0;  ///< 1 once any miss reached the solver, else 0
  uint64_t max_active_solves = 0; ///< peak concurrent on-demand solves observed
  uint64_t unanswerable = 0;
  uint64_t degraded = 0;      ///< responses served with ServeStatus::kDegraded
  uint64_t timeouts = 0;      ///< responses served with ServeStatus::kTimeout
  uint64_t stale_serves = 0;  ///< TTL-expired cache entries served anyway
};

/// \brief The per-engine serving path over injected shared resources.
///
/// The engine, cache and coalescer must outlive the host; the engine must
/// not be mutated while the host is answering (VoiceQueryEngine contract).
/// All public methods are thread-safe. The host is sessionless: "repeat
/// that" requests are answered with the no-history response, because
/// per-user repeat state belongs to the connection layer above, which can
/// keep a VoiceQueryEngine::Session.
class EngineHost {
 public:
  /// `generation` (when non-zero) is folded into the cache-key fingerprint:
  /// the dynamic registry stamps every registration with a fresh generation,
  /// so a dataset removed and re-added under the same name -- possibly with
  /// different rows but an identical configuration -- can never be served
  /// the retired incarnation's cached answers, even before the purge of the
  /// old fingerprint's keys completes.
  /// `metrics` is where the host's latency histograms (solve, render,
  /// coalesced wait) live, labeled by dataset name; nullptr means the
  /// process-wide obs::MetricsRegistry::Global().
  EngineHost(std::string name, const VoiceQueryEngine* engine,
             ShardedSummaryCache* cache, InflightCoalescer* coalescer,
             HostOptions options = {}, uint64_t generation = 0,
             obs::MetricsRegistry* metrics = nullptr);

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  /// Answers one request on the caller's thread (workers call this).
  /// `trace` (optional) collects per-stage spans for this request; it must
  /// stay owned by the caller and is only touched from this thread.
  /// `deadline` (optional, not owned, must outlive the call) is the
  /// request's remaining serving budget: the cache/coalescer/solve stages
  /// each check it, an expired budget degrades the answer (stale cache
  /// serve, truncated anytime summary, store fallback) instead of blocking,
  /// and `ServeResponse::status` records the outcome.
  /// `extracted` (optional) is this host's extractor's grounding of
  /// `request`, as the router's winning walk produced it
  /// (RoutingService::RouteDecision::query); given, classification reuses it
  /// instead of walking the vocabulary again.
  /// `mode` kOk runs the full pipeline. kShed or kTimeout is the overload
  /// turnaround the router takes when it refuses the full pipeline
  /// (admission shed, deadline expired during routing): classify + ground
  /// only -- no solve, no coalescing, no simulated vocalization -- then a
  /// cached answer if one exists, even TTL-expired (marked stale, status
  /// kDegraded), else the apology for `mode`. Non-query requests (help etc.)
  /// get their canned texts in every mode.
  ServeResponse Handle(const std::string& request, obs::Trace* trace = nullptr,
                       const Deadline* deadline = nullptr,
                       std::optional<ExtractedQuery> extracted = std::nullopt,
                       ServeStatus mode = ServeStatus::kOk);

  /// Aggregated optimizer work counters (join/bound row visits, pruning
  /// decisions) over every on-demand solve this host ran. Solves run
  /// concurrently on pool worker threads, and PerfCounters::Add is a plain
  /// non-atomic accumulate, so per-solve counters are merged under a host
  /// mutex here -- never Add() into a shared PerfCounters from solving
  /// threads directly (the serve-tsan preset guards this path).
  PerfCounters perf() const;

  /// Moves out the speeches learned through on-demand summarization since
  /// the last call (deduplicated by query; empty unless
  /// HostOptions::record_learned). DatasetRegistry persists them so a
  /// restarted service keeps its incrementally learned answers.
  std::vector<StoredSpeech> TakeLearned();

  /// Returns speeches from a failed TakeLearned() consumer (e.g. a
  /// persistence error) so the next flush can retry them.
  void RestoreLearned(std::vector<StoredSpeech> learned);

  /// Learned speeches currently pending a TakeLearned() flush.
  size_t pending_learned() const;

  const std::string& name() const { return name_; }
  const VoiceQueryEngine& engine() const { return *engine_; }
  /// Cache-key prefix: "<host name>:<config fingerprint>", or
  /// "<host name>#<generation>:<config fingerprint>" for registry-built
  /// hosts (generation != 0), so a shared cache stays partitioned per host
  /// even across identical configurations AND across remove/re-add cycles
  /// of the same name. Always read it from here rather than reconstructing
  /// it from name + config.
  const std::string& fingerprint() const { return fingerprint_; }
  const HostOptions& options() const { return options_; }
  HostStats stats() const;
  /// Per-dataset trace sampling token bucket (see
  /// HostOptions::trace_samples_per_second); the router consults it before
  /// allocating a trace for a routed request.
  obs::TraceSampler& trace_sampler() { return trace_sampler_; }

 private:
  /// A data-access request after the prologue: its grounded query and the
  /// cache key it is served under.
  struct GroundedRequest {
    VoiceQuery query;
    std::string key;
  };

  /// Handle's prologue in every mode: counts the request, classifies it
  /// (from `extracted` when the router already walked it), and sets
  /// `response`'s type. A help/repeat/other request gets its canned text and
  /// nullopt; a data-access query is counted and grounded, and its query and
  /// cache key come back.
  std::optional<GroundedRequest> ClassifyAndGround(
      const std::string& request, std::optional<ExtractedQuery> extracted,
      obs::Trace* trace, ServeResponse* response);

  /// Handle's full pipeline for a grounded query: deadline check, cache
  /// lookup, coalescing, compute on a miss; fills `response`.
  void ServeQuery(const GroundedRequest& grounded, obs::Trace* trace,
                  const Deadline* deadline, ServeResponse* response);

  /// Computes the answer for a grounded query (store lookup, then on-demand
  /// summarization, then most-specific fallback). `trace` may be null; it
  /// only ever receives spans from the calling thread's own work. An expired
  /// (or expiring) `deadline` skips or truncates the solve and marks the
  /// answer degraded.
  ServedAnswerPtr ComputeAnswer(const VoiceQuery& query, obs::Trace* trace,
                                const Deadline* deadline);

  /// Summarizes one miss on the calling thread: takes a solve slot (the
  /// host's HostOptions::max_concurrent_solves share, waited for at most
  /// until `deadline`), slices the engine's merge for the query's target,
  /// then prepares, runs and renders the problem exactly as pre-processing
  /// does. `deadline` (nullable) also truncates the greedy run (anytime
  /// checkpoint -> degraded answer). Returns nullptr on every failure -- no
  /// slot in time, empty subset, a truncation with zero facts, the
  /// solve.batch fault, anything the solver throws -- so the caller can
  /// fall back to the most specific stored speech.
  ServedAnswerPtr SolveOnDemand(const VoiceQuery& query, obs::Trace* trace,
                                const Deadline* deadline);

  /// RAII thread-share slot around one on-demand solve: blocks while the host
  /// already runs its maximum of concurrent solves (at most the deadline's
  /// remaining budget when one is supplied), tracks the active count and the
  /// max_active_solves gauge. Check acquired() before doing gated work.
  class SolveSlot {
   public:
    SolveSlot(EngineHost* host, const Deadline* deadline);
    ~SolveSlot();
    SolveSlot(const SolveSlot&) = delete;
    SolveSlot& operator=(const SolveSlot&) = delete;

    bool acquired() const { return acquired_; }

   private:
    EngineHost* host_;
    bool acquired_ = false;
  };

  /// Fills `response` from whatever is cached under `key` -- fresh (kOk) or
  /// TTL-expired (stale, kDegraded) -- or with the apology matching
  /// `fallback_status` (kShed / kTimeout) when nothing usable is cached.
  void ServeCachedOrApology(ServeResponse* response, const std::string& key,
                            ServeStatus fallback_status);

  /// Bumps the degraded/timeout/stale counters for a finished response.
  void RecordOutcome(const ServeResponse& response);

  std::string name_;
  const VoiceQueryEngine* engine_;
  HostOptions options_;
  SummarizerOptions summarizer_options_;
  std::string fingerprint_;
  ShardedSummaryCache* cache_;
  InflightCoalescer* coalescer_;

  /// Dataset-labeled latency histograms (owned by metrics_; stable
  /// pointers resolved once at construction so the hot path never touches
  /// the registry's name map). Solve/render record for EVERY solved query
  /// regardless of tracing, so per-dataset tail latency is always visible.
  obs::MetricsRegistry* metrics_;
  obs::LatencyHistogram* solve_hist_;
  obs::LatencyHistogram* render_hist_;
  obs::LatencyHistogram* coalesced_wait_hist_;
  obs::TraceSampler trace_sampler_;

  /// The solve thread share (HostOptions::max_concurrent_solves).
  Mutex gate_mutex_;
  CondVar gate_cv_;
  size_t gate_active_ GUARDED_BY(gate_mutex_) = 0;

  mutable Mutex learned_mutex_;
  std::vector<StoredSpeech> learned_ GUARDED_BY(learned_mutex_);
  std::unordered_set<std::string> learned_keys_ GUARDED_BY(learned_mutex_);

  mutable Mutex perf_mutex_;  ///< see perf()
  PerfCounters perf_ GUARDED_BY(perf_mutex_);

  struct AtomicStats {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> coalesced_waits{0};
    std::atomic<uint64_t> store_exact_hits{0};
    std::atomic<uint64_t> store_fallback_hits{0};
    std::atomic<uint64_t> on_demand_summaries{0};
    std::atomic<uint64_t> on_demand_passes{0};
    std::atomic<uint64_t> max_batch{0};
    std::atomic<uint64_t> max_active_solves{0};
    std::atomic<uint64_t> unanswerable{0};
    std::atomic<uint64_t> degraded{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> stale_serves{0};
  };
  AtomicStats stats_;
};

}  // namespace serve
}  // namespace vq

#endif  // VQ_SERVE_ENGINE_HOST_H_
