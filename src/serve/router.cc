#include "serve/router.h"

#include <unordered_map>
#include <utility>

#include "util/fault.h"
#include "util/stopwatch.h"

namespace vq {
namespace serve {

RoutingService::RoutingService(const DatasetRegistry* registry,
                               RouterOptions options)
    : registry_(registry),
      options_(options),
      cache_(options.cache_capacity, options.cache_shards, {},
             options.cache_byte_budget, options.cache_max_entry_fraction),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::MetricsRegistry::Global()),
      request_hist_(metrics_->GetHistogram("vq_router_request_seconds")),
      route_hist_(metrics_->GetHistogram("vq_router_route_seconds")),
      snapshot_hist_(metrics_->GetHistogram("vq_router_snapshot_acquire_seconds")),
      queue_wait_hist_(metrics_->GetHistogram("vq_router_queue_wait_seconds")),
      retire_drain_hist_(metrics_->GetHistogram("vq_router_retire_drain_seconds")),
      deadline_overrun_hist_(
          metrics_->GetHistogram("vq_router_deadline_overrun_seconds")),
      sampled_traces_(options.trace_log_capacity),
      slow_queries_(options.trace_log_capacity),
      pool_(options.num_threads) {
  cache_.AttachMetrics(metrics_);
  // Eager initial build so the constructor's cost (host construction per
  // dataset) is not paid by the first request.
  hosts_.store(RebuildHosts(registry_->snapshot(), nullptr));
  // External atomic stats (router, cache, coalescer, per-host, solver
  // PerfCounters) export through ONE collector at render/snapshot time --
  // no double bookkeeping on the request path.
  collector_id_ = metrics_->RegisterCollector(
      [this](obs::MetricsRegistry& into) { ExportMetrics(into); });
}

RoutingService::~RoutingService() {
  // First: no render may call into this object once we tear down
  // (UnregisterCollector blocks until an in-flight Collect() finishes).
  metrics_->UnregisterCollector(collector_id_);
  Drain();
  // With the pool drained, every retired slot is sole-owned: run the final
  // sweep so pending learned speeches of removed datasets reach the
  // registry's persistence instead of dying with retired_.
  MutexLock lock(sync_mutex_);
  SweepRetired(/*drain_pinned=*/true);
}

HostOptions RoutingService::OptionsFor(const DatasetEntry& entry) const {
  // A registry policy is a set of per-field OVERRIDES applied on top of the
  // fleet default -- unmentioned knobs inherit RouterOptions::host instead
  // of silently resetting to the struct defaults (HostOverrides::ApplyTo).
  // Recording learned speeches additionally turns on whenever someone can
  // drain them -- either the registry persists (FlushLearned / slot
  // retirement) or the merged options opted in.
  HostOptions host_options = options_.host;
  if (entry.policy.has_value()) {
    host_options = entry.policy->ApplyTo(host_options);
  }
  host_options.record_learned =
      host_options.record_learned || registry_->persists_learned();
  return host_options;
}

RoutingService::HostSetPtr RoutingService::RebuildHosts(
    const RegistrySnapshotPtr& snapshot, const HostSetPtr& previous) const {
  std::unordered_map<const DatasetEntry*, std::shared_ptr<HostSlot>> reusable;
  if (previous != nullptr) {
    for (const auto& slot : previous->slots) {
      reusable.emplace(slot->entry.get(), slot);
    }
  }
  auto next = std::make_shared<HostSet>();
  next->registry_version = snapshot->version;
  next->slots.reserve(snapshot->entries.size());
  for (const auto& entry : snapshot->entries) {
    auto reuse = reusable.find(entry.get());
    if (reuse != reusable.end()) {
      // Same entry object (same generation): the host survives with its
      // stats, batch queues and pending learned speeches intact.
      next->slots.push_back(reuse->second);
      reusable.erase(reuse);
      continue;
    }
    auto slot = std::make_shared<HostSlot>();
    slot->entry = entry;
    slot->host = std::make_unique<EngineHost>(entry->name, entry->engine.get(),
                                              &cache_, &coalescer_,
                                              OptionsFor(*entry),
                                              entry->generation, metrics_);
    next->slots.push_back(std::move(slot));
  }
  // Whatever was not reused belongs to removed datasets: park it on the
  // retired list for the sweep (learned drain + cache purge, repeated
  // until the last in-flight reference is gone).
  for (auto& [entry, slot] : reusable) {
    (void)entry;
    retired_.push_back(std::move(slot));
  }
  // relaxed: mirror of retired_.size() for the lock-free fast-path probe;
  // sync_mutex_ (held here) orders the list itself.
  retired_count_.store(retired_.size(), std::memory_order_relaxed);
  return next;
}

bool RoutingService::DrainAndPurge(const HostSlot& slot) const {
  // Drain learned speeches into the registry's persistence (best effort --
  // the entry may be gone from the registry, so SaveLearnedFor takes the
  // entry itself) and purge the retired fingerprint's cache keys so a
  // retired engine's rendered answers stop occupying the budget live
  // datasets share. Without persistence there is nowhere to drain to: a
  // caller that enabled record_learned on its own must TakeLearned before
  // RemoveDataset, or the pending speeches die with the slot.
  Stopwatch drain_watch;
  bool drained = true;
  if (registry_->persists_learned()) {
    std::vector<StoredSpeech> learned = slot.host->TakeLearned();
    if (!learned.empty()) {
      Status saved = registry_->SaveLearnedFor(*slot.entry, learned);
      if (!saved.ok()) {
        // Not on disk; hand the speeches back and report failure so a
        // final sweep does NOT release the slot -- a later sweep retries.
        slot.host->RestoreLearned(std::move(learned));
        drained = false;
      }
    }
  }
  // relaxed: monotonic counter.
  purged_cache_entries_.fetch_add(
      cache_.PurgePrefix(slot.host->fingerprint() + "|"),
      std::memory_order_relaxed);
  retire_drain_hist_->Record(drain_watch.ElapsedSeconds());
  return drained;
}

void RoutingService::SweepRetired(bool drain_pinned) const {
  for (auto it = retired_.begin(); it != retired_.end();) {
    // Sole-ownership is observed BEFORE the pass: once the retired list
    // holds the only reference, no in-flight request can write cache
    // entries or learned speeches through this slot anymore, so a pass
    // that started sole-owner is guaranteed final. Checking after the pass
    // instead would let a late write land between the purge and the check
    // and then release the slot without ever catching it.
    bool final_pass = it->use_count() == 1;
    if (!final_pass && !drain_pinned) {
      // Request-fast-path mode: pinned slots are skipped entirely, so the
      // per-request cost while stragglers finish is one use_count read,
      // not a cache scan.
      ++it;
      continue;
    }
    // A failed drain (transient learned_dir error) keeps the slot on the
    // list even on a final pass: the restored speeches would die with it.
    bool drained = DrainAndPurge(**it);
    it = (final_pass && drained) ? retired_.erase(it) : std::next(it);
  }
  // relaxed: mirror of retired_.size() for the lock-free fast-path probe;
  // sync_mutex_ (held here) orders the list itself.
  retired_count_.store(retired_.size(), std::memory_order_relaxed);
}

void RoutingService::ScheduleRetiredSweep() const {
  // relaxed: a stale zero only defers the sweep to a later request; a stale
  // nonzero schedules a no-op pass.
  if (retired_count_.load(std::memory_order_relaxed) == 0) return;
  // At most one queued release task at a time; a slot that is still pinned
  // when the task runs gets rescheduled by a later request.
  // relaxed: the flag only rate-limits task submission; the pool queue
  // orders the sweep work itself.
  if (sweep_scheduled_.exchange(true, std::memory_order_relaxed)) return;
  (void)pool_.SubmitTask([this] {
    {
      MutexLock lock(sync_mutex_);
      // Final-only passes: pinned slots are skipped (their late writes are
      // fully caught by the eventual final pass, see SweepRetired), so a
      // rescheduled background sweep never re-scans the cache per straggler.
      SweepRetired(/*drain_pinned=*/false);
    }
    // relaxed: rate limiting only (see above).
    sweep_scheduled_.store(false, std::memory_order_relaxed);
  });
}

RoutingService::HostSetPtr RoutingService::CurrentHosts() const {
  HostSetPtr current = hosts_.load();
  // One wait-free version probe per request; the rebuild path only runs
  // when a mutation actually happened.
  if (current->registry_version == registry_->version()) {
    // Steady traffic must still release retired slots whose stragglers
    // finished -- without this, a removed dataset's memory would stay
    // pinned until the NEXT registry mutation.
    ScheduleRetiredSweep();
    return current;
  }
  {
    MutexLock lock(sync_mutex_);
    current = hosts_.load();
    RegistrySnapshotPtr snapshot = registry_->snapshot();
    if (current->registry_version != snapshot->version) {
      current = RebuildHosts(snapshot, current);
      hosts_.store(current);
      // relaxed: monotonic counter.
      registry_syncs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The retirement work itself (learned drain to disk + a cache scan per
  // retired fingerprint) runs as a standalone pool task, never inline on a
  // serving request -- neither here on the rebuild path nor on the fast
  // path above. SyncRegistry remains the synchronous variant.
  ScheduleRetiredSweep();
  return current;
}

void RoutingService::SyncRegistry() {
  // One lock, one sweep -- whether or not the version moved. (Calling
  // CurrentHosts and then sweeping again would drain+purge every retired
  // slot twice per call.) The sweep runs even on an unchanged version: a
  // quiescent router can still owe retired slots their final drain+purge,
  // e.g. after the in-flight requests of a removed dataset finished.
  MutexLock lock(sync_mutex_);
  HostSetPtr current = hosts_.load();
  RegistrySnapshotPtr snapshot = registry_->snapshot();
  if (current->registry_version != snapshot->version) {
    hosts_.store(RebuildHosts(snapshot, current));
    // relaxed: monotonic counter.
    registry_syncs_.fetch_add(1, std::memory_order_relaxed);
  }
  SweepRetired(/*drain_pinned=*/true);
}

RoutedResponse RoutingService::ShedNow() const {
  RoutedResponse out;
  out.response.type = RequestType::kOther;
  out.response.text = VoiceQueryEngine::OverloadedText();
  out.response.source = AnswerSource::kUnanswerable;
  out.response.answered = false;
  out.response.status = ServeStatus::kShed;
  return out;
}

std::future<RoutedResponse> RoutingService::Submit(std::string request) {
  return SubmitWithDeadline(std::move(request),
                            options_.default_deadline_seconds);
}

std::future<RoutedResponse> RoutingService::Submit(std::string request,
                                                   double deadline_seconds) {
  return SubmitWithDeadline(std::move(request), deadline_seconds);
}

std::future<RoutedResponse> RoutingService::SubmitWithDeadline(
    std::string request, double deadline_seconds) {
  // Admission control runs HERE, on the caller's thread, before anything is
  // queued: an overloaded router answers "try again" in nanoseconds instead
  // of accepting work it will only time out on minutes later. The shed
  // response still counts as a request so the status ledger reconciles
  // (requests == ok + shed + timeouts + degraded).
  // relaxed: admission needs only an approximate pending count (fetch_add
  // keeps it exact over time); no other memory publishes through it.
  int64_t pending = pending_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool reject =
      (options_.max_pending_requests > 0 &&
       pending > static_cast<int64_t>(options_.max_pending_requests)) ||
      fault::Injected(fault::kPoolSubmit);
  if (reject) {
    pending_requests_.fetch_sub(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    std::promise<RoutedResponse> rejected;
    rejected.set_value(ShedNow());
    return rejected.get_future();
  }
  // The deadline starts NOW -- queue wait spends the same budget serving
  // does, so a request that rotted in the queue is turned around at pickup
  // (Process) without routing. The stopwatch rides in the closure the same
  // way, measuring pure queue wait -- the saturation signal the shedder and
  // the overload bench key off.
  std::shared_ptr<Deadline> deadline;
  if (deadline_seconds > 0.0) {
    deadline = options_.deadline_clock
                   ? std::make_shared<Deadline>(deadline_seconds,
                                                options_.deadline_clock)
                   : std::make_shared<Deadline>(deadline_seconds);
  }
  return pool_.SubmitTask([this, request = std::move(request),
                           queued = Stopwatch(), deadline] {
    struct PendingGuard {
      std::atomic<int64_t>* counter;
      // relaxed: see the fetch_add at admission.
      ~PendingGuard() { counter->fetch_sub(1, std::memory_order_relaxed); }
    } guard{&pending_requests_};
    return Process(request, queued.ElapsedSeconds(), deadline.get());
  });
}

RoutedResponse RoutingService::AnswerNow(const std::string& request) {
  return AnswerNow(request, options_.default_deadline_seconds);
}

RoutedResponse RoutingService::AnswerNow(const std::string& request,
                                         double deadline_seconds) {
  if (deadline_seconds <= 0.0) {
    return Process(request, /*queue_wait_seconds=*/0.0, nullptr);
  }
  Deadline deadline = options_.deadline_clock
                          ? Deadline(deadline_seconds, options_.deadline_clock)
                          : Deadline(deadline_seconds);
  return Process(request, /*queue_wait_seconds=*/0.0, &deadline);
}

void RoutingService::Drain() { pool_.Wait(); }

RoutingService::RouteDecision RoutingService::RouteIn(
    const HostSet& hosts, const std::string& request) const {
  // Tokenized once; each dataset walks the shared tokens with its own
  // vocabulary (its longest matches segment the text its own way).
  TokenizedText tokens(request);
  RouteDecision decision;
  for (size_t i = 0; i < hosts.slots.size(); ++i) {
    double score =
        hosts.slots[i]->host->engine().extractor().Coverage(tokens).Score();
    // Strictly greater keeps ties on the first-registered dataset, so
    // routing is deterministic under any registration order.
    if (score > decision.score) {
      decision.host_index = static_cast<int>(i);
      decision.score = score;
    }
  }
  if (decision.score <= options_.min_route_score) {
    decision.host_index = -1;
    return decision;
  }
  decision.query = hosts.slots[static_cast<size_t>(decision.host_index)]
                       ->host->engine().extractor().Extract(tokens);
  return decision;
}

RoutingService::RouteDecision RoutingService::Route(
    const std::string& request) const {
  return RouteIn(*CurrentHosts(), request);
}

void RoutingService::RecordStatus(const RoutedResponse& out,
                                  const Deadline* deadline) {
  // relaxed: monotonic outcome counters.
  switch (out.response.status) {
    case ServeStatus::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::kTimeout:
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::kOk:
      break;
  }
  if (deadline != nullptr && deadline->Expired() &&
      out.response.status != ServeStatus::kOk) {
    deadline_overrun_hist_->Record(deadline->OverrunSeconds());
  }
}

RoutedResponse RoutingService::Process(const std::string& request,
                                       double queue_wait_seconds,
                                       const Deadline* deadline) {
  Stopwatch watch;
  if (queue_wait_seconds > 0.0) queue_wait_hist_->Record(queue_wait_seconds);
  // relaxed: monotonic counter.
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Stage 0, queue expiry: a request whose budget died waiting for a worker
  // is turned around before routing, grounding or any host work. This keeps
  // the cost of an expired queue entry near zero, which is what lets an
  // overloaded open-loop queue drain instead of collapsing (every queued
  // request still doing full work is exactly the death spiral).
  if (deadline != nullptr && deadline->Expired()) {
    RoutedResponse out;
    out.response.type = RequestType::kOther;
    out.response.text = VoiceQueryEngine::TimedOutText();
    out.response.source = AnswerSource::kUnanswerable;
    out.response.answered = false;
    out.response.status = ServeStatus::kTimeout;
    out.response.seconds = watch.ElapsedSeconds();
    RecordStatus(out, deadline);
    return out;
  }
  // ONE snapshot acquisition per request: every decision below acts on this
  // host set, and holding it keeps each slot's engine alive even if the
  // dataset is removed while we are answering.
  HostSetPtr hosts = CurrentHosts();
  double snapshot_seconds = watch.ElapsedSeconds();
  snapshot_hist_->Record(snapshot_seconds);
  RoutedResponse out;
  RouteDecision decision = RouteIn(*hosts, request);
  double routed_at = watch.ElapsedSeconds();
  route_hist_->Record(routed_at - snapshot_seconds);
  if (decision.host_index >= 0) {
    // relaxed: monotonic counters (router-wide and per-slot).
    routed_.fetch_add(1, std::memory_order_relaxed);
    HostSlot& slot = *hosts->slots[static_cast<size_t>(decision.host_index)];
    slot.routed_requests.fetch_add(1, std::memory_order_relaxed);

    // Tracing: a Trace (heap object + a dozen clock reads through the host
    // path) is allocated ONLY for requests the sampler admits -- at the
    // default 2/s that is noise against >100k qps, where tracing every
    // request in case it turns out slow costs ~10% throughput. The
    // routing/snapshot stages are backfilled so the dump covers the whole
    // request on one timeline.
    const HostOptions& host_options = slot.host->options();
    std::unique_ptr<obs::Trace> trace;
    bool sampled = host_options.trace_samples_per_second > 0 &&
                   slot.host->trace_sampler().Admit();
    if (sampled) {
      trace = std::make_unique<obs::Trace>();
      trace->set_epoch_offset(routed_at);
      if (queue_wait_seconds > 0.0) {
        trace->AddTimedSpan("queue_wait", -queue_wait_seconds,
                            queue_wait_seconds);
      }
      trace->AddTimedSpan("snapshot_acquire", 0.0, snapshot_seconds);
      trace->AddTimedSpan("route", snapshot_seconds, routed_at - snapshot_seconds);
    }

    // Per-dataset admission, then the stage ladder: routing expiry checks
    // run AFTER the route so even an overloaded/expired request still lands
    // on the right dataset's cheap path (a stale cache serve beats an
    // apology, and misrouting under load would be a correctness bug the
    // chaos test hunts for).
    // relaxed: the per-dataset admission counter is approximate by design (a
    // racing burst may briefly overshoot); nothing else rides on it.
    struct ActiveGuard {
      std::atomic<uint64_t>* counter;
      ~ActiveGuard() { counter->fetch_sub(1, std::memory_order_relaxed); }
    } active_guard{&slot.active_requests};
    uint64_t active =
        slot.active_requests.fetch_add(1, std::memory_order_relaxed) + 1;
    // A saturated dataset (admission shed) or a budget that died during
    // routing takes the host's cheap overload turnaround: classify +
    // cached/stale lookup, never a solve.
    ServeStatus mode = ServeStatus::kOk;
    if (host_options.max_pending_requests > 0 &&
        active > host_options.max_pending_requests) {
      mode = ServeStatus::kShed;
    } else if (deadline != nullptr && deadline->Expired()) {
      mode = ServeStatus::kTimeout;
    }
    out.response = slot.host->Handle(request, trace.get(), deadline,
                                     std::move(decision.query), mode);
    out.dataset = slot.host->name();
    out.routed = true;
    out.route_score = decision.score;
    RecordStatus(out, deadline);
    if ((out.response.type == RequestType::kSupportedQuery ||
         out.response.type == RequestType::kUnsupportedQuery) &&
        !out.response.answered) {
      // relaxed: monotonic counter.
      slot.unanswered_requests.fetch_add(1, std::memory_order_relaxed);
    }
    double total_seconds = watch.ElapsedSeconds();
    request_hist_->Record(total_seconds);
    bool slow = host_options.slow_trace_seconds > 0.0 &&
                total_seconds >= host_options.slow_trace_seconds;
    if (sampled) {
      Json dumped = trace->ToJson(slot.host->name(), request, total_seconds);
      if (slow) slow_queries_.Record(dumped);
      sampled_traces_.Record(std::move(dumped));
    } else if (slow) {
      // Un-sampled slow request: log a span-less entry. Which requests are
      // slow matters on every request; WHY (the spans) is answered by the
      // sampled traces and the per-stage histograms without taxing the
      // fast path with per-request trace bookkeeping.
      Json dumped = Json::Object();
      dumped.Set("dataset", Json::Str(slot.host->name()));
      dumped.Set("request", Json::Str(request));
      dumped.Set("total_ms", Json::Number(total_seconds * 1e3));
      slow_queries_.Record(std::move(dumped));
    }
    return out;
  }

  // No dataset's vocabulary covers the request. Help/repeat/other are still
  // classified (keyword rules need no vocabulary) so the caller gets the
  // canned responses instead of a crash or a silent drop; query-shaped text
  // that grounds nowhere falls out as not-understood/unanswerable.
  // relaxed: monotonic counter.
  unrouted_.fetch_add(1, std::memory_order_relaxed);
  Stopwatch unrouted_watch;
  if (!hosts->slots.empty()) {
    ClassifiedRequest classified =
        hosts->slots[0]->host->engine().classifier().Classify(request);
    out.response.type = classified.type;
  }
  switch (out.response.type) {
    case RequestType::kHelp:
      out.response.text = HelpText();
      break;
    case RequestType::kRepeat:
      out.response.text = VoiceQueryEngine::NothingToRepeatText();
      break;
    case RequestType::kSupportedQuery:
    case RequestType::kUnsupportedQuery:
      out.response.text = VoiceQueryEngine::NoSummaryText();
      break;
    case RequestType::kOther:
      out.response.text = VoiceQueryEngine::NotUnderstoodText();
      break;
  }
  out.response.source = AnswerSource::kUnanswerable;
  out.response.answered = false;
  out.response.seconds = unrouted_watch.ElapsedSeconds();
  return out;
}

Status RoutingService::FlushLearned() {
  // One flush at a time: concurrent read-merge-write cycles on the learned
  // files would lose whichever batch reads the stale disk state.
  MutexLock lock(flush_mutex_);
  HostSetPtr hosts = CurrentHosts();
  Status first_error;
  for (const auto& slot : hosts->slots) {
    std::vector<StoredSpeech> learned = slot->host->TakeLearned();
    if (learned.empty()) continue;
    // Via the held entry, not the name: the dataset may have been removed
    // (and the name even re-registered) since this host set was built.
    Status st = registry_->SaveLearnedFor(*slot->entry, learned);
    if (!st.ok()) {
      // The speeches are not on disk; hand them back so a later flush can
      // retry instead of silently dropping them.
      slot->host->RestoreLearned(std::move(learned));
      if (first_error.ok()) first_error = st;
    }
  }
  return first_error;
}

EngineHost* RoutingService::host(const std::string& name) const {
  HostSetPtr hosts = CurrentHosts();
  for (const auto& slot : hosts->slots) {
    if (slot->host->name() == name) return slot->host.get();
  }
  return nullptr;
}

size_t RoutingService::num_hosts() const { return CurrentHosts()->slots.size(); }

RouterStats RoutingService::stats() const {
  RouterStats out;
  // relaxed: counters are read one by one -- a statistical snapshot, not a
  // consistent cut.
  out.requests = requests_.load(std::memory_order_relaxed);
  out.routed = routed_.load(std::memory_order_relaxed);
  out.unrouted = unrouted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.timeouts = timeouts_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.registry_syncs = registry_syncs_.load(std::memory_order_relaxed);
  out.purged_cache_entries =
      purged_cache_entries_.load(std::memory_order_relaxed);
  HostSetPtr hosts = CurrentHosts();
  for (const auto& slot : hosts->slots) {
    out.per_dataset.emplace_back(
        slot->host->name(),
        slot->routed_requests.load(std::memory_order_relaxed));
  }
  return out;
}

void RoutingService::ExportMetrics(obs::MetricsRegistry& into) const {
  // Runs under the registry's collector mutex on RenderText()/RenderJson().
  // Everything read here is internally thread-safe (atomics, locked stats),
  // so a render concurrent with serving sees a coherent-enough snapshot.
  // relaxed: every load below is an independent statistical read.
  into.SetCounter("vq_router_requests_total",
                  requests_.load(std::memory_order_relaxed));
  into.SetCounter("vq_router_routed_total",
                  routed_.load(std::memory_order_relaxed));
  into.SetCounter("vq_router_unrouted_total",
                  unrouted_.load(std::memory_order_relaxed));
  into.SetCounter("vq_router_registry_syncs_total",
                  registry_syncs_.load(std::memory_order_relaxed));
  into.SetCounter("vq_router_purged_cache_entries_total",
                  purged_cache_entries_.load(std::memory_order_relaxed));
  into.SetCounter("vq_router_shed_total",
                  shed_.load(std::memory_order_relaxed));
  into.SetCounter("vq_router_timeout_total",
                  timeouts_.load(std::memory_order_relaxed));
  into.SetCounter("vq_router_degraded_total",
                  degraded_.load(std::memory_order_relaxed));
  into.SetCounter("vq_router_sampled_traces_total",
                  sampled_traces_.total_recorded());
  into.SetCounter("vq_router_slow_queries_total", slow_queries_.total_recorded());
  into.SetGauge("vq_router_retired_slots",
                static_cast<double>(retired_count_.load(std::memory_order_relaxed)));
  into.SetGauge("vq_router_pending_requests",
                static_cast<double>(pending_requests_.load(std::memory_order_relaxed)));

  // Pool saturation gauges: queue depth is THE early-warning signal for
  // overload (latency histograms only confirm it after the damage). The
  // solve pool is this router's worker pool; the scan pool is the process
  // global used by parallel filter scans.
  auto pool_gauges = [&into](const char* pool_name, const ThreadPool& pool) {
    auto labeled = [pool_name](const char* name) {
      return obs::MetricsRegistry::WithLabel(name, "pool", pool_name);
    };
    into.SetGauge(labeled("vq_pool_queued_tasks"),
                  static_cast<double>(pool.QueuedTasks()));
    into.SetGauge(labeled("vq_pool_pending_tasks"),
                  static_cast<double>(pool.PendingTasks()));
    into.SetGauge(labeled("vq_pool_threads"),
                  static_cast<double>(pool.NumThreads()));
  };
  pool_gauges("solve", pool_);
  pool_gauges("scan", ScanPool());

  CacheStats cache_stats = cache_.TotalStats();
  into.SetCounter("vq_cache_hits_total", cache_stats.hits);
  into.SetCounter("vq_cache_misses_total", cache_stats.misses);
  into.SetCounter("vq_cache_insertions_total", cache_stats.insertions);
  into.SetCounter("vq_cache_evictions_total", cache_stats.evictions);
  into.SetCounter("vq_cache_expirations_total", cache_stats.expirations);
  into.SetCounter("vq_cache_byte_evictions_total", cache_stats.byte_evictions);
  into.SetCounter("vq_cache_admission_rejects_total",
                  cache_stats.admission_rejects);
  into.SetCounter("vq_cache_quota_evictions_total", cache_stats.quota_evictions);
  into.SetCounter("vq_cache_stale_serves_total", cache_stats.stale_serves);
  into.SetGauge("vq_cache_entries", static_cast<double>(cache_.size()));
  into.SetGauge("vq_cache_bytes", static_cast<double>(cache_.TotalBytes()));

  into.SetCounter("vq_coalescer_leaders_total", coalescer_.leaders());
  into.SetCounter("vq_coalescer_coalesced_total", coalescer_.coalesced());
  into.SetCounter("vq_coalescer_timed_out_waits_total",
                  coalescer_.timed_out_waits());
  into.SetGauge("vq_coalescer_inflight",
                static_cast<double>(coalescer_.InFlight()));

  HostSetPtr hosts = CurrentHosts();
  into.SetGauge("vq_router_hosts", static_cast<double>(hosts->slots.size()));
  for (const auto& slot : hosts->slots) {
    // relaxed: independent per-slot counters (statistical snapshot).
    const std::string& dataset = slot->host->name();
    auto labeled = [&dataset](const char* name) {
      return obs::MetricsRegistry::WithLabel(name, "dataset", dataset);
    };
    into.SetCounter(labeled("vq_router_dataset_requests_total"),
                    slot->routed_requests.load(std::memory_order_relaxed));
    into.SetCounter(labeled("vq_router_dataset_errors_total"),
                    slot->unanswered_requests.load(std::memory_order_relaxed));
    HostStats host_stats = slot->host->stats();
    into.SetCounter(labeled("vq_host_requests_total"), host_stats.requests);
    into.SetCounter(labeled("vq_host_queries_total"), host_stats.queries);
    into.SetCounter(labeled("vq_host_cache_hits_total"), host_stats.cache_hits);
    into.SetCounter(labeled("vq_host_cache_misses_total"),
                    host_stats.cache_misses);
    into.SetCounter(labeled("vq_host_coalesced_waits_total"),
                    host_stats.coalesced_waits);
    into.SetCounter(labeled("vq_host_store_exact_hits_total"),
                    host_stats.store_exact_hits);
    into.SetCounter(labeled("vq_host_store_fallback_hits_total"),
                    host_stats.store_fallback_hits);
    into.SetCounter(labeled("vq_host_on_demand_summaries_total"),
                    host_stats.on_demand_summaries);
    into.SetCounter(labeled("vq_host_on_demand_passes_total"),
                    host_stats.on_demand_passes);
    into.SetCounter(labeled("vq_host_unanswerable_total"),
                    host_stats.unanswerable);
    into.SetCounter(labeled("vq_host_degraded_total"), host_stats.degraded);
    into.SetCounter(labeled("vq_host_timeouts_total"), host_stats.timeouts);
    into.SetCounter(labeled("vq_host_stale_serves_total"),
                    host_stats.stale_serves);
    into.SetGauge(labeled("vq_host_active_requests"),
                  static_cast<double>(
                      slot->active_requests.load(std::memory_order_relaxed)));
    into.SetGauge(labeled("vq_host_max_batch"),
                  static_cast<double>(host_stats.max_batch));
    into.SetGauge(labeled("vq_host_max_active_solves"),
                  static_cast<double>(host_stats.max_active_solves));
    into.SetGauge(labeled("vq_host_pending_learned"),
                  static_cast<double>(slot->host->pending_learned()));
    // Solver work counters ride the SAME field tables the struct itself
    // defines (PerfCounters::ForEachField) -- a counter added there shows
    // up here with zero further wiring, and there is no second
    // serialization contract to drift.
    PerfCounters perf = slot->host->perf();
    perf.ForEachField([&](const char* field, uint64_t value) {
      into.SetCounter(labeled((std::string("vq_engine_perf_") + field).c_str()),
                      value);
    });
  }
}

std::string RoutingService::HelpText() const {
  HostSetPtr hosts = CurrentHosts();
  const auto& slots = hosts->slots;
  std::string text;
  if (slots.empty()) {
    text = "No data sets are registered right now.";
  } else if (slots.size() == 1) {
    text = "You can ask about the " + slots[0]->host->name() + " data set.";
  } else {
    text = "You can ask about " + std::to_string(slots.size()) + " data sets:";
    for (size_t i = 0; i < slots.size(); ++i) {
      text += (i == 0 ? " " : i + 1 == slots.size() ? " and " : ", ");
      text += slots[i]->host->name();
    }
    text += ".";
  }
  text += " Ask for an average value, optionally narrowed down by filters.";
  return text;
}

}  // namespace serve
}  // namespace vq
