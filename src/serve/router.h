// Multi-dataset request routing over a dynamic fleet of EngineHosts.
//
// Each request is scored against every registered dataset's NLU vocabulary
// (QueryExtractor::Coverage) and dispatched to the best-covered host, so the
// caller never names a dataset: "cancelled flights in February" finds the
// flights engine, "visual impairment in Manhattan" the ACS one. The request
// is tokenized once (TokenizedText); each dataset's coverage walk runs over
// those shared tokens and allocates nothing, the winner's vocabulary then
// extracts the query once more from them, and that extraction travels with
// the request to the host, whose classify and ground reuse it. All hosts
// share one worker pool, one sharded answer cache (host fingerprints keep
// keys disjoint) and one in-flight coalescer.
//
// The fleet follows the registry's RCU snapshots: every request acquires
// the current host set once (wait-free), and when the registry version
// moved -- AddDataset/RemoveDataset under live traffic -- the set is
// rebuilt: surviving datasets keep their host objects (stats, learned
// speeches intact), a new dataset gets a freshly built host
// honoring its per-dataset policy, and a removed dataset's host drains its
// pending learned speeches to the registry and has its cache keys purged by
// fingerprint. In-flight requests dispatched from an older set hold it by
// shared_ptr, so a removed engine stays alive until its last answer
// resolves; requests submitted after RemoveDataset returns can never route
// to it.
#ifndef VQ_SERVE_ROUTER_H_
#define VQ_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine_host.h"
#include "serve/registry.h"
#include "util/snapshot_ptr.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace vq {
namespace serve {

struct RouterOptions {
  /// Worker threads shared by all hosts. 0 picks hardware concurrency.
  size_t num_threads = 4;
  /// Total rendered-answer cache entries across all shards (shared).
  size_t cache_capacity = 1 << 14;
  size_t cache_shards = 16;
  /// Approximate byte budget for the shared cache (size-aware LRU
  /// eviction); 0 = entry-count eviction only.
  size_t cache_byte_budget = 0;
  /// Admission ceiling as a fraction of a shard's byte slice: a rendered
  /// answer bigger than this share is refused instead of evicting half the
  /// shard (see ShardedSummaryCache; 0.5 is a reasonable setting). Opt-in
  /// (0 = admit everything) so existing byte-budget deployments keep
  /// caching the answers they always cached.
  double cache_max_entry_fraction = 0.0;
  /// Fleet-wide default per-host behavior; a dataset with a registry policy
  /// (DatasetEntry::policy) merges its explicitly-set fields OVER this base
  /// (HostOverrides::ApplyTo). The default enables a bounded TTL on negative
  /// results so stale apologies age out of the shared cache (a later store
  /// reload or registry change can then answer).
  HostOptions host = {.unanswerable_ttl_seconds = 60.0};
  /// A request routes only when the best coverage score exceeds this (and
  /// at least one token grounded). 0 accepts any grounding.
  double min_route_score = 0.0;
  /// Where the service's metrics live (counters, gauges and latency
  /// histograms; see README "Observability"). nullptr = the process-wide
  /// obs::MetricsRegistry::Global(). Benches inject a private registry per
  /// run so histogram-derived percentiles are isolated per scenario.
  obs::MetricsRegistry* metrics = nullptr;
  /// Capacity of the sampled-trace ring and the slow-query log (each).
  size_t trace_log_capacity = 64;
  /// Default per-request serving budget in seconds (0 = none; the Submit
  /// overload can set a per-request budget). The budget starts at SUBMIT
  /// time, so pool queue wait counts against it: a request whose budget
  /// expired while queued is shed at pickup (status kTimeout) before any
  /// routing work -- the property that keeps an overloaded queue draining
  /// at near-zero cost per expired entry instead of collapsing.
  double default_deadline_seconds = 0.0;
  /// Router-wide admission budget: when more than this many submitted
  /// requests are pending (queued or executing), further Submits are shed
  /// immediately with ServeStatus::kShed (0 = unbounded). Per-dataset
  /// limits are HostOptions::max_pending_requests.
  size_t max_pending_requests = 0;
  /// Injectable clock for per-request deadlines (monotonic seconds); tests
  /// step it to cross stage boundaries deterministically. Default: steady
  /// clock.
  Deadline::ClockFn deadline_clock;
};

/// One routed response: the host's answer plus the routing decision.
struct RoutedResponse {
  ServeResponse response;
  std::string dataset;       ///< registration name; empty when unrouted
  bool routed = false;
  double route_score = 0.0;  ///< winning VocabularyCoverage score
};

/// Aggregated router counters.
struct RouterStats {
  uint64_t requests = 0;
  uint64_t routed = 0;
  uint64_t unrouted = 0;
  /// Requests rejected at admission (router or per-dataset budget, or a
  /// pool.submit fault) before any work: ServeStatus::kShed responses.
  uint64_t shed = 0;
  /// Requests whose deadline expired with nothing useful to serve
  /// (ServeStatus::kTimeout responses).
  uint64_t timeouts = 0;
  /// Requests answered past their budget with a truncated/stale answer
  /// (ServeStatus::kDegraded responses).
  uint64_t degraded = 0;
  /// Every submitted request resolves to exactly one status, so always:
  /// requests == ok + shed + timeouts + degraded, with
  /// ok = requests - shed - timeouts - degraded.
  /// Host-set rebuilds taken after registry version changes.
  uint64_t registry_syncs = 0;
  /// Cache entries purged for removed datasets (by fingerprint prefix).
  uint64_t purged_cache_entries = 0;
  /// Requests dispatched per CURRENTLY registered dataset, in registration
  /// order (a removed dataset's counts leave with its host).
  std::vector<std::pair<std::string, uint64_t>> per_dataset;
};

/// \brief Routes requests from a shared worker pool to per-dataset hosts.
///
/// The registry must outlive the service and MAY change while the service
/// is running: the router follows its snapshots lazily (next request) or
/// eagerly (SyncRegistry). All public methods are thread-safe. Destruction
/// drains in-flight requests.
class RoutingService {
 public:
  explicit RoutingService(const DatasetRegistry* registry,
                          RouterOptions options = {});
  ~RoutingService();

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Enqueues one request on the shared worker pool under
  /// RouterOptions::default_deadline_seconds. When the router-wide pending
  /// budget (RouterOptions::max_pending_requests) is exhausted the request
  /// is shed HERE -- the returned future is already resolved with
  /// ServeStatus::kShed and no pool task is queued, so an overloaded
  /// caller's Submit never blocks and never deepens the queue.
  std::future<RoutedResponse> Submit(std::string request);

  /// Same, with a per-request budget in seconds overriding the default
  /// (0 = no deadline for this request).
  std::future<RoutedResponse> Submit(std::string request,
                                     double deadline_seconds);

  /// Routes and answers inline on the caller's thread (admission is not
  /// applied -- the caller runs the work itself; the default deadline is).
  RoutedResponse AnswerNow(const std::string& request);

  /// Same, with a per-request budget in seconds (0 = none).
  RoutedResponse AnswerNow(const std::string& request,
                           double deadline_seconds);

  /// Submitted-but-unresolved requests right now (queued + executing).
  size_t PendingRequests() const {
    // relaxed: snapshot value; staleness is inherent to the probe.
    return static_cast<size_t>(pending_requests_.load(std::memory_order_relaxed));
  }

  /// Blocks until every submitted request has been answered.
  void Drain();

  /// Rebuilds the host set against the current registry snapshot if its
  /// version moved, and sweeps retired slots (learned drain + cache purge,
  /// final release once no in-flight request references them). Requests
  /// rebuild implicitly; the explicit call exists so a caller that just
  /// removed a dataset can force the teardown deterministically (e.g.
  /// after Drain, to assert purge completeness or release a retired
  /// engine's memory without waiting for traffic).
  void SyncRegistry();

  /// The routing decision alone (exposed for tests and benches).
  struct RouteDecision {
    int host_index = -1;  ///< -1: no dataset covers the request
    double score = 0.0;
    /// The winning dataset's extraction of the request (empty when
    /// unrouted); Process hands it to the host so classify and ground take
    /// no walk of their own.
    ExtractedQuery query;
  };
  RouteDecision Route(const std::string& request) const;

  /// Flushes every live host's learned on-demand speeches through the
  /// registry's persistence (no-op entries are skipped). Returns the first
  /// error. Removed hosts flush through the retirement sweeps instead
  /// (every sync, with a final pass once their last in-flight reference is
  /// gone). Note this requires the registry to persist: a caller that
  /// enabled HostOptions::record_learned WITHOUT a registry learned_dir
  /// must drain via host(name)->TakeLearned() BEFORE RemoveDataset --
  /// speeches still pending on a removed host have nowhere to go and are
  /// dropped with it.
  Status FlushLearned();

  /// Host lookup by registration name; nullptr when unknown. The pointer
  /// stays valid while the dataset remains registered and this service
  /// alive; after RemoveDataset the host dies with the next sync.
  EngineHost* host(const std::string& name) const;

  size_t num_hosts() const;
  size_t num_threads() const { return pool_.NumThreads(); }
  const ShardedSummaryCache& cache() const { return cache_; }
  const InflightCoalescer& coalescer() const { return coalescer_; }
  RouterStats stats() const;

  /// The metrics registry this service reports into (RouterOptions::metrics
  /// or the process Global()). RenderText()/RenderJson() on it include this
  /// service's counters/gauges/histograms via a registered collector --
  /// router, cache, coalescer, per-host stats and solver PerfCounters in
  /// one snapshot call.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// Traces admitted by the per-dataset samplers (newest-last ring).
  const obs::TraceLog& sampled_traces() const { return sampled_traces_; }
  /// Traces of requests that exceeded their dataset's slow threshold
  /// (HostOptions::slow_trace_seconds).
  const obs::TraceLog& slow_queries() const { return slow_queries_; }

  /// Spoken help text enumerating the registered datasets.
  std::string HelpText() const;

 private:
  /// One dataset's serving slot: the host plus the shared_ptr that keeps
  /// the registry entry (table/engine) alive for as long as any host set --
  /// or in-flight request holding one -- references the slot.
  struct HostSlot {
    std::shared_ptr<const DatasetEntry> entry;
    std::unique_ptr<EngineHost> host;
    std::atomic<uint64_t> routed_requests{0};
    /// Routed data-access queries answered with an apology (exported as the
    /// per-dataset error counter).
    std::atomic<uint64_t> unanswered_requests{0};
    /// Requests currently inside this host (admission vs. the dataset's
    /// HostOptions::max_pending_requests; 0 there = unbounded).
    std::atomic<uint64_t> active_requests{0};
  };
  /// Immutable published host set for one registry version.
  struct HostSet {
    uint64_t registry_version = 0;
    std::vector<std::shared_ptr<HostSlot>> slots;
  };
  using HostSetPtr = std::shared_ptr<const HostSet>;

  /// Acquires the current host set, rebuilding it first when the registry
  /// snapshot version moved (double-checked under sync_mutex_).
  HostSetPtr CurrentHosts() const;
  /// Builds the slot vector for `snapshot`, reusing slots of `previous`
  /// whose entries survive, and moves dropped slots onto the retired list
  /// (first learned drain + cache purge happen in the sweep).
  HostSetPtr RebuildHosts(const RegistrySnapshotPtr& snapshot,
                          const HostSetPtr& previous) const
      REQUIRES(sync_mutex_);
  /// Drains learned speeches and purges cache keys of retired slots. A
  /// request that was already past routing
  /// when its dataset was removed can insert cache entries or record
  /// learned speeches AFTER the retirement pass that follows the removal;
  /// sweeping on every sync catches those, and a slot whose last outside
  /// reference was already gone when the pass started gets that final
  /// drain+purge -- nothing can write to it anymore -- and is released.
  /// With `drain_pinned` false (the request fast path), slots still
  /// referenced by in-flight requests are skipped entirely instead of
  /// re-drained, keeping the per-request cost at one use_count read.
  void SweepRetired(bool drain_pinned) const REQUIRES(sync_mutex_);
  /// One retired slot's drain (learned speeches -> registry persistence,
  /// when enabled) plus cache purge by fingerprint prefix. Returns false
  /// when a learned batch could not be persisted (it was restored onto the
  /// host for a retry, so the slot must not be released yet).
  bool DrainAndPurge(const HostSlot& slot) const;
  /// Queues one background pool task (at most one at a time) that releases
  /// retired slots whose last outside reference is gone. Requests call
  /// this instead of sweeping inline, so no serving request ever pays the
  /// drain's disk write or the purge's cache scan; steady traffic with no
  /// further registry mutations still releases a removed dataset's
  /// table/index/engine without waiting for the next mutation or an
  /// explicit SyncRegistry.
  void ScheduleRetiredSweep() const;
  HostOptions OptionsFor(const DatasetEntry& entry) const;

  /// `queue_wait_seconds`: time the request sat in the pool queue before a
  /// worker picked it up (0 for AnswerNow). `deadline` may be nullptr (no
  /// budget); a budget that expired while queued turns the request around
  /// here -- kTimeout, no routing, no host work.
  RoutedResponse Process(const std::string& request, double queue_wait_seconds,
                         const Deadline* deadline);
  /// Shared Submit body; `deadline_seconds` <= 0 disables the deadline.
  std::future<RoutedResponse> SubmitWithDeadline(std::string request,
                                                 double deadline_seconds);
  /// Builds the admission-reject response (already-resolved kShed).
  RoutedResponse ShedNow() const;
  /// Tallies shed_/timeouts_/degraded_ from one finished response.
  void RecordStatus(const RoutedResponse& out, const Deadline* deadline);
  RouteDecision RouteIn(const HostSet& hosts, const std::string& request) const;

  /// Collector body: copies router/cache/coalescer/per-host stats and every
  /// host's PerfCounters (via ForEachField -- one serialization contract)
  /// into `into` as counters/gauges. Runs on RenderText()/RenderJson().
  void ExportMetrics(obs::MetricsRegistry& into) const;

  const DatasetRegistry* registry_;
  RouterOptions options_;
  // cache_/coalescer_ are mutable: the (logically const) lazy host-set sync
  // purges retired fingerprints and hands both to newly built hosts.
  mutable ShardedSummaryCache cache_;
  mutable InflightCoalescer coalescer_;
  /// The published host set (util/snapshot_ptr.h explains why this is a
  /// mutex-guarded cell rather than std::atomic<shared_ptr>).
  mutable SnapshotPtr<const HostSet> hosts_;
  /// Serializes host-set rebuilds (acquiring hosts_ never waits on one).
  /// Lock order: sync_mutex_ before any host/registry/cache mutex (see
  /// util/sync.h).
  mutable Mutex sync_mutex_;
  /// Slots of removed datasets still possibly referenced by in-flight
  /// requests; emptied by the retirement sweeps.
  mutable std::vector<std::shared_ptr<HostSlot>> retired_
      GUARDED_BY(sync_mutex_);
  /// Mirrors retired_.size() so the request fast path can skip the
  /// try-lock entirely while nothing is retired (the common case).
  mutable std::atomic<size_t> retired_count_{0};
  /// True while a release task is queued/running (at most one at a time).
  mutable std::atomic<bool> sweep_scheduled_{false};
  /// Serializes FlushLearned: the registry's file merge is read-modify-write.
  Mutex flush_mutex_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> routed_{0};
  std::atomic<uint64_t> unrouted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> degraded_{0};
  /// Queued-or-executing submitted requests (signed so a transient
  /// overshoot in the shed path can never wrap).
  std::atomic<int64_t> pending_requests_{0};
  mutable std::atomic<uint64_t> registry_syncs_{0};
  mutable std::atomic<uint64_t> purged_cache_entries_{0};

  /// Observability: instrument pointers are resolved once here (stable for
  /// the registry's lifetime) so the request path never touches the
  /// registry's name map.
  obs::MetricsRegistry* metrics_;
  obs::LatencyHistogram* request_hist_;        ///< total routed-request time
  obs::LatencyHistogram* route_hist_;          ///< NLU coverage scoring
  obs::LatencyHistogram* snapshot_hist_;       ///< host-set acquisition
  obs::LatencyHistogram* queue_wait_hist_;     ///< pool queue wait (Submit)
  obs::LatencyHistogram* retire_drain_hist_;   ///< retired-slot drain+purge
  obs::LatencyHistogram* deadline_overrun_hist_;  ///< budget overshoot of
                                                  ///< timed-out/degraded requests
  obs::TraceLog sampled_traces_;
  obs::TraceLog slow_queries_;
  uint64_t collector_id_ = 0;

  /// mutable: the (logically const) lazy sync schedules release tasks.
  mutable ThreadPool pool_;
};

}  // namespace serve
}  // namespace vq

#endif  // VQ_SERVE_ROUTER_H_
