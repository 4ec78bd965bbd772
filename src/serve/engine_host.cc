#include "serve/engine_host.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "speech/speech.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace vq {
namespace serve {

namespace {

ServedAnswerPtr AnswerFromStored(const StoredSpeech& stored, AnswerSource source,
                                 double compute_seconds) {
  auto answer = std::make_shared<ServedAnswer>();
  answer->text = stored.speech.text;
  answer->source = source;
  answer->answered = true;
  answer->scaled_utility = stored.speech.scaled_utility;
  answer->compute_seconds = compute_seconds;
  return answer;
}

void BumpMax(std::atomic<uint64_t>* slot, uint64_t value) {
  // relaxed: a monotonic high-water mark; racing updates converge to the max.
  uint64_t seen = slot->load(std::memory_order_relaxed);
  while (seen < value &&
         !slot->compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

HostOptions HostOverrides::ApplyTo(HostOptions base) const {
  if (unanswerable_ttl_seconds) {
    base.unanswerable_ttl_seconds = *unanswerable_ttl_seconds;
  }
  if (answer_ttl_seconds) base.answer_ttl_seconds = *answer_ttl_seconds;
  if (record_learned) base.record_learned = *record_learned;
  if (max_concurrent_solves) base.max_concurrent_solves = *max_concurrent_solves;
  if (max_pending_requests) base.max_pending_requests = *max_pending_requests;
  if (cache_byte_quota) base.cache_byte_quota = *cache_byte_quota;
  if (simulated_vocalize_seconds) {
    base.simulated_vocalize_seconds = *simulated_vocalize_seconds;
  }
  if (trace_samples_per_second) {
    base.trace_samples_per_second = *trace_samples_per_second;
  }
  if (slow_trace_seconds) base.slow_trace_seconds = *slow_trace_seconds;
  return base;
}

EngineHost::EngineHost(std::string name, const VoiceQueryEngine* engine,
                       ShardedSummaryCache* cache, InflightCoalescer* coalescer,
                       HostOptions options, uint64_t generation,
                       obs::MetricsRegistry* metrics)
    : name_(std::move(name)),
      engine_(engine),
      options_(options),
      // The host name joins the config fingerprint in every cache/coalescer
      // key: two datasets registered under identical configurations (same
      // table name, dims, targets, limits, prior -- but possibly different
      // rows) must never serve each other's cached answers. The registry
      // generation (when present) additionally separates successive
      // incarnations of the SAME name across dynamic remove/re-add cycles.
      fingerprint_(name_ +
                   (generation > 0 ? "#" + std::to_string(generation) : "") +
                   ":" + ConfigFingerprint(engine->config())),
      cache_(cache),
      coalescer_(coalescer),
      metrics_(metrics != nullptr ? metrics : &obs::MetricsRegistry::Global()),
      solve_hist_(metrics_->GetHistogram(
          obs::MetricsRegistry::WithLabel("vq_host_solve_seconds", "dataset", name_))),
      render_hist_(metrics_->GetHistogram(
          obs::MetricsRegistry::WithLabel("vq_host_render_seconds", "dataset", name_))),
      coalesced_wait_hist_(metrics_->GetHistogram(obs::MetricsRegistry::WithLabel(
          "vq_host_coalesced_wait_seconds", "dataset", name_))),
      trace_sampler_(options.trace_samples_per_second) {
  // On-demand problems must be solved exactly like the pre-processor's, so
  // an on-demand answer for a materialized query reproduces the stored text.
  const Configuration& config = engine_->config();
  summarizer_options_.max_facts = config.max_facts;
  summarizer_options_.max_fact_dims = config.max_fact_dims;
  summarizer_options_.algorithm = Algorithm::kGreedyOptimized;
  summarizer_options_.instance.prior_kind = config.prior;
  summarizer_options_.instance.prior_value = config.prior_value;
}

std::optional<EngineHost::GroundedRequest> EngineHost::ClassifyAndGround(
    const std::string& request, std::optional<ExtractedQuery> extracted,
    obs::Trace* trace, ServeResponse* response) {
  // relaxed: monotonic stats counter.
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  size_t classify_span = trace ? trace->BeginSpan("classify") : 0;
  const RequestClassifier& classifier = engine_->classifier();
  ClassifiedRequest classified =
      extracted.has_value() ? classifier.Classify(request, std::move(*extracted))
                            : classifier.Classify(request);
  if (trace) trace->EndSpan(classify_span);
  response->type = classified.type;

  switch (classified.type) {
    case RequestType::kHelp:
      response->text = engine_->HelpText();
      return std::nullopt;
    case RequestType::kRepeat:
      // Hosts are sessionless; per-user repeat memory lives in the
      // connection layer (VoiceQueryEngine::Session).
      response->text = VoiceQueryEngine::NothingToRepeatText();
      return std::nullopt;
    case RequestType::kOther:
      response->text = VoiceQueryEngine::NotUnderstoodText();
      return std::nullopt;
    case RequestType::kSupportedQuery:
    case RequestType::kUnsupportedQuery:
      break;
  }
  // relaxed: monotonic stats counter.
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  size_t ground_span = trace ? trace->BeginSpan("ground") : 0;
  GroundedRequest grounded;
  grounded.query = engine_->GroundQuery(classified);
  grounded.key = CanonicalQueryKey(fingerprint_, grounded.query);
  if (trace) trace->EndSpan(ground_span);
  return grounded;
}

ServeResponse EngineHost::Handle(const std::string& request, obs::Trace* trace,
                                 const Deadline* deadline,
                                 std::optional<ExtractedQuery> extracted,
                                 ServeStatus mode) {
  Stopwatch watch;
  ServeResponse response;
  std::optional<GroundedRequest> grounded =
      ClassifyAndGround(request, std::move(extracted), trace, &response);
  if (grounded.has_value()) {
    if (mode == ServeStatus::kOk) {
      ServeQuery(*grounded, trace, deadline, &response);
    } else {
      ServeCachedOrApology(&response, grounded->key, mode);
    }
  }

  // The overload turnaround never vocalizes, and a timed-out request's
  // caller is gone: vocalizing the apology would hold the worker for nothing
  // (under overload, precisely when it hurts most).
  if (mode == ServeStatus::kOk && options_.simulated_vocalize_seconds > 0.0 &&
      response.status != ServeStatus::kTimeout) {
    obs::ScopedSpan vocalize_span(trace, "vocalize");
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.simulated_vocalize_seconds));
  }
  RecordOutcome(response);
  response.seconds = watch.ElapsedSeconds();
  return response;
}

void EngineHost::ServeQuery(const GroundedRequest& grounded, obs::Trace* trace,
                            const Deadline* deadline, ServeResponse* response) {
  const std::string& key = grounded.key;
  if (deadline != nullptr && deadline->Expired()) {
    // Budget gone before any lookup: serve what is already rendered
    // (fresh, or TTL-expired marked stale) or apologize; never start
    // compute for a request whose caller has given up.
    ServeCachedOrApology(response, key, ServeStatus::kTimeout);
    return;
  }

  size_t lookup_span = trace ? trace->BeginSpan("cache_lookup") : 0;
  ServedAnswerPtr answer = cache_->Get(key);
  if (trace) trace->EndSpan(lookup_span);
  if (answer != nullptr) {
    // relaxed: monotonic stats counter.
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    response->cache_hit = true;
  } else {
    // relaxed: monotonic stats counter.
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    InflightCoalescer::Ticket ticket = coalescer_->Join(key);
    if (ticket.leader) {
      // Double-checked miss: between our Get and winning leadership, a
      // previous leader may have computed, cached and retired this key.
      // Without the re-check we would run a second summarization and
      // break the exactly-once-per-unique-query guarantee.
      answer = cache_->Get(key);
      if (answer == nullptr) {
        obs::ScopedSpan compute_span(trace, "compute");
        try {
          answer = ComputeAnswer(grounded.query, trace, deadline);
        } catch (...) {
          // Followers block until Fulfill (coalescer contract); never
          // leave them hanging, whatever ComputeAnswer threw.
          auto failed = std::make_shared<ServedAnswer>();
          failed->text = VoiceQueryEngine::NoSummaryText();
          failed->source = AnswerSource::kUnanswerable;
          coalescer_->Fulfill(key, failed);
          throw;
        }
        // Degraded answers are request-specific (their truncation came
        // from THIS request's budget) and deadline-starved unanswerables
        // may be answerable with time: neither is cached.
        bool starved = deadline != nullptr && deadline->Expired();
        if (answer->answered && !answer->degraded) {
          cache_->Put(key, answer, options_.answer_ttl_seconds,
                      fingerprint_, options_.cache_byte_quota);
        } else if (!answer->answered && !starved) {
          cache_->Put(key, answer, options_.unanswerable_ttl_seconds,
                      fingerprint_, options_.cache_byte_quota);
        }
      }
      coalescer_->Fulfill(key, answer);
    } else {
      // relaxed: monotonic stats counter.
      stats_.coalesced_waits.fetch_add(1, std::memory_order_relaxed);
      response->coalesced = true;
      Stopwatch wait_watch;
      obs::ScopedSpan wait_span(trace, "coalesce_wait");
      answer = coalescer_->WaitBounded(ticket, deadline);
      coalesced_wait_hist_->Record(wait_watch.ElapsedSeconds());
      if (answer == nullptr) {
        // The leader outlived our budget; degrade rather than block.
        ServeCachedOrApology(response, key, ServeStatus::kTimeout);
        return;
      }
    }
  }
  response->text = answer->text;
  response->source = answer->source;
  response->answered = answer->answered;
  if (answer->degraded) {
    response->status = ServeStatus::kDegraded;
  } else if (!answer->answered && deadline != nullptr &&
             deadline->Expired()) {
    // Nothing produced and the budget is gone: the caller cannot tell
    // "genuinely unanswerable" from "ran out of time", so report the
    // honest one.
    response->status = ServeStatus::kTimeout;
    response->text = VoiceQueryEngine::TimedOutText();
  }
}

void EngineHost::ServeCachedOrApology(ServeResponse* response,
                                      const std::string& key,
                                      ServeStatus fallback_status) {
  bool was_stale = false;
  ServedAnswerPtr cached = cache_->GetStale(key, &was_stale);
  if (cached != nullptr && cached->answered) {
    response->text = cached->text;
    response->source = cached->source;
    response->answered = true;
    response->cache_hit = true;
    response->stale = was_stale;
    response->status = was_stale ? ServeStatus::kDegraded : ServeStatus::kOk;
    return;
  }
  response->answered = false;
  response->source = AnswerSource::kUnanswerable;
  response->status = fallback_status;
  response->text = fallback_status == ServeStatus::kShed
                       ? VoiceQueryEngine::OverloadedText()
                       : VoiceQueryEngine::TimedOutText();
}

void EngineHost::RecordOutcome(const ServeResponse& response) {
  // relaxed: monotonic outcome counters.
  if (response.status == ServeStatus::kDegraded) {
    stats_.degraded.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status == ServeStatus::kTimeout) {
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  if (response.stale) {
    stats_.stale_serves.fetch_add(1, std::memory_order_relaxed);
  }
}

ServedAnswerPtr EngineHost::ComputeAnswer(const VoiceQuery& query,
                                          obs::Trace* trace,
                                          const Deadline* deadline) {
  Stopwatch watch;
  const SpeechStore& store = engine_->store();

  const StoredSpeech* exact = store.FindExact(query);
  if (exact != nullptr) {
    // relaxed: monotonic stats counter.
    stats_.store_exact_hits.fetch_add(1, std::memory_order_relaxed);
    return AnswerFromStored(*exact, AnswerSource::kStoreExact,
                            watch.ElapsedSeconds());
  }

  bool wants_solve = query.target_index >= 0;
  if (wants_solve && !(deadline != nullptr && deadline->Expired())) {
    obs::ScopedSpan on_demand_span(trace, "on_demand");
    ServedAnswerPtr solved = SolveOnDemand(query, trace, deadline);
    if (solved != nullptr) return solved;
    // Empty subset, unsolvable instance, or deadline ran out before a solve
    // slot/runner: fall through to the engine's
    // most-specific-containing-speech behavior.
  }
  // A fallback taken only because the budget curtailed the solve is a
  // reduced answer -- flag it degraded so the response says so.
  bool solve_curtailed =
      wants_solve && deadline != nullptr && deadline->Expired();

  const StoredSpeech* best = store.FindBest(query);
  if (best != nullptr) {
    // relaxed: monotonic stats counter.
    stats_.store_fallback_hits.fetch_add(1, std::memory_order_relaxed);
    ServedAnswerPtr fallback = AnswerFromStored(
        *best, AnswerSource::kStoreFallback, watch.ElapsedSeconds());
    if (solve_curtailed) {
      auto degraded = std::make_shared<ServedAnswer>(*fallback);
      degraded->degraded = true;
      return degraded;
    }
    return fallback;
  }

  // relaxed: monotonic stats counter.
  stats_.unanswerable.fetch_add(1, std::memory_order_relaxed);
  auto answer = std::make_shared<ServedAnswer>();
  answer->text = VoiceQueryEngine::NoSummaryText();
  answer->source = AnswerSource::kUnanswerable;
  answer->answered = false;
  answer->compute_seconds = watch.ElapsedSeconds();
  return answer;
}

std::shared_ptr<EngineHost::TargetBatchQueue> EngineHost::BatchQueueFor(
    int target_index) {
  MutexLock lock(batch_mutex_);
  auto& slot = batch_queues_[target_index];
  if (slot == nullptr) slot = std::make_shared<TargetBatchQueue>();
  return slot;
}

ServedAnswerPtr EngineHost::SolveOnDemand(const VoiceQuery& query,
                                          obs::Trace* trace,
                                          const Deadline* deadline) {
  auto pending = std::make_shared<PendingOnDemand>();
  pending->query = query;
  if (deadline != nullptr && deadline->enabled()) pending->deadline = *deadline;
  std::future<ServedAnswerPtr> future = pending->promise.get_future();

  // Protocol: enqueue, then loop until our promise resolves. Whoever finds
  // no active runner solves exactly ONE batch (everything queued right then,
  // always including its own unsolved entry) and hands runnership back via
  // notify, so a request never drains a whole miss burst on behalf of later
  // arrivals. No wakeup can be missed: promises resolve outside the lock,
  // but the runner reacquires it before notifying, and a waiter holds it
  // from its readiness check until cv.wait releases it atomically.
  //
  // Waiters with a deadline wait with a bounded timeout; once the budget is
  // gone they withdraw their entry (if still queued) and return nullptr so
  // the caller degrades to its store fallback. An entry already swapped into
  // a running batch is simply abandoned -- the runner owns it via shared_ptr
  // and resolving its promise is harmless.
  std::shared_ptr<TargetBatchQueue> queue = BatchQueueFor(query.target_index);
  // Manual Lock/Unlock (not MutexLock): the runner path drops the lock
  // around SolveBatch and reacquires it before notifying, which RAII cannot
  // express (the ACQUIRE/RELEASE pairs below keep the analysis tracking it).
  queue->mutex.Lock();
  queue->waiting.push_back(pending);
  for (;;) {
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      queue->mutex.Unlock();
      return future.get();
    }
    if (deadline != nullptr && deadline->Expired()) {
      for (size_t i = 0; i < queue->waiting.size(); ++i) {
        if (queue->waiting[i] == pending) {
          queue->waiting.erase(queue->waiting.begin() + i);
          break;
        }
      }
      queue->mutex.Unlock();
      return nullptr;
    }
    if (queue->running) {
      if (deadline != nullptr && deadline->enabled()) {
        double remaining = deadline->RemainingSeconds();
        if (remaining < 0.0) remaining = 0.0;
        queue->cv.WaitFor(queue->mutex, remaining);
      } else {
        queue->cv.Wait(queue->mutex);
      }
      continue;
    }
    queue->running = true;
    std::vector<std::shared_ptr<PendingOnDemand>> batch;
    batch.swap(queue->waiting);
    queue->mutex.Unlock();
    try {
      SolveBatch(std::move(batch), trace, deadline);
    } catch (...) {
      // SolveBatch fulfills its promises even on failure; whatever still
      // escaped must not leave `running` latched, or later misses would
      // wait forever for a runner that never comes.
      queue->mutex.Lock();
      queue->running = false;
      queue->cv.NotifyAll();
      queue->mutex.Unlock();
      throw;
    }
    queue->mutex.Lock();
    queue->running = false;
    queue->cv.NotifyAll();
  }
}

EngineHost::SolveSlot::SolveSlot(EngineHost* host, const Deadline* deadline)
    : host_(host) {
  size_t max_solves = host_->options_.max_concurrent_solves;
  host_->gate_mutex_.Lock();
  while (max_solves > 0 && host_->gate_active_ >= max_solves) {
    if (deadline != nullptr && deadline->enabled()) {
      // The deadline may run on an injected test clock while the wait is
      // real time, so a timed-out wait gives up after one final predicate
      // check (exactly wait_for-with-predicate semantics) instead of
      // consulting the deadline again.
      double remaining = deadline->RemainingSeconds();
      if (remaining < 0.0) remaining = 0.0;
      if (!host_->gate_cv_.WaitFor(host_->gate_mutex_, remaining) &&
          host_->gate_active_ >= max_solves) {
        // Budget gone before a slot freed; acquired_ stays false.
        host_->gate_mutex_.Unlock();
        return;
      }
    } else {
      host_->gate_cv_.Wait(host_->gate_mutex_);
    }
  }
  acquired_ = true;
  ++host_->gate_active_;
  BumpMax(&host_->stats_.max_active_solves, host_->gate_active_);
  host_->gate_mutex_.Unlock();
}

EngineHost::SolveSlot::~SolveSlot() {
  if (!acquired_) return;
  {
    MutexLock lock(host_->gate_mutex_);
    --host_->gate_active_;
  }
  host_->gate_cv_.NotifyOne();
}

void EngineHost::SolveBatch(std::vector<std::shared_ptr<PendingOnDemand>> batch,
                            obs::Trace* trace, const Deadline* deadline) {
  // The thread-share slot is taken before any work: a host over its
  // on-demand quota parks its runner here, off-CPU (the worker thread
  // itself stays occupied -- see HostOptions::max_concurrent_solves), for at
  // most the runner's remaining budget.
  size_t gate_span = trace ? trace->BeginSpan("gate_wait") : 0;
  SolveSlot slot(this, deadline);
  if (trace) trace->EndSpan(gate_span);
  if (!slot.acquired()) {
    // Solve capacity saturated past the deadline: resolve the whole batch
    // with nullptr so every caller degrades to its store fallback now
    // instead of queueing further behind a saturated gate.
    for (auto& pending : batch) pending->promise.set_value(nullptr);
    return;
  }
  obs::ScopedSpan batch_span(trace, "solve_batch");
  const Table& table = engine_->table();
  // relaxed: monotonic stats counter.
  stats_.on_demand_passes.fetch_add(1, std::memory_order_relaxed);
  BumpMax(&stats_.max_batch, batch.size());

  // Every promise MUST resolve, whatever the solver does -- followers block
  // on them (nullptr means "fall back to the most specific stored speech").
  SummarizerOptions options = summarizer_options_;
  std::vector<std::vector<uint32_t>> rows;
  bool shared_ok = true;
  try {
    // Chaos hook: a failure here exercises the whole-batch failure path
    // (every caller falls back); a delay simulates a slow shared scan and
    // drives deadline-expiry degradation.
    if (fault::Injected(fault::kSolveBatch)) {
      throw std::runtime_error("fault injected: solve.batch");
    }
    // One planner-routed pass resolves every query's row subset: selective
    // queries are answered from the table's posting lists, the rest share a
    // single column scan (relational/scan_planner.h).
    // Span covers the shared row filtering plus the (once-per-target) prior.
    obs::ScopedSpan filter_span(trace, "filter_rows");
    std::vector<const PredicateSet*> predicate_sets;
    predicate_sets.reserve(batch.size());
    for (const auto& pending : batch) {
      predicate_sets.push_back(&pending->query.predicates);
    }
    // Partials form: on multi-shard tables the filter fans out across the
    // scan pool and each query's answer arrives as per-shard pieces; the
    // merge below is the only per-query serial work left on this thread.
    std::vector<ScanPartials> partials =
        FilterRowsMultiPartials(table, predicate_sets);
    rows.resize(partials.size());
    for (size_t q = 0; q < partials.size(); ++q) {
      rows[q] = MergeScanPartials(std::move(partials[q]));
    }

    // The prior is shared too: under the default global-average prior every
    // query in the batch uses the same constant, computed once per target
    // ever (the table is immutable).
    if (options.instance.prior_kind == PriorKind::kGlobalAverage) {
      options.instance.prior_kind = PriorKind::kConstant;
      options.instance.prior_value =
          GlobalAveragePrior(batch[0]->query.target_index);
    }
  } catch (...) {
    shared_ok = false;
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    PendingOnDemand& pending = *batch[i];
    ServedAnswerPtr answer;
    if (shared_ok) {
      try {
        answer = SolveOne(pending.query, rows[i], options,
                          pending.deadline ? &*pending.deadline : nullptr);
      } catch (...) {
        answer = nullptr;
      }
    }
    pending.promise.set_value(std::move(answer));
  }
}

ServedAnswerPtr EngineHost::SolveOne(const VoiceQuery& query,
                                     const std::vector<uint32_t>& rows,
                                     const SummarizerOptions& options,
                                     const Deadline* deadline) {
  Stopwatch watch;
  auto instance = BuildInstanceFromRows(engine_->table(), query.predicates,
                                        query.target_index, rows,
                                        options.instance);
  if (!instance.ok()) return nullptr;
  auto prepared =
      PreparedProblem::FromInstance(std::move(instance).value(), options);
  if (!prepared.ok()) return nullptr;
  SummarizerOptions query_options = options;
  query_options.deadline = deadline;
  SummaryResult result = prepared.value().Run(query_options);
  if (result.timed_out && result.facts.empty()) {
    // The budget expired before even one greedy iteration finished; there is
    // no checkpoint to render. nullptr sends the caller to its fallback.
    return nullptr;
  }
  solve_hist_->Record(watch.ElapsedSeconds());
  Stopwatch render_watch;
  Speech speech =
      RenderSpeech(engine_->table(), prepared.value().instance(),
                   prepared.value().catalog(), result, query.predicates);
  render_hist_->Record(render_watch.ElapsedSeconds());
  // relaxed: monotonic stats counter.
  stats_.on_demand_summaries.fetch_add(1, std::memory_order_relaxed);
  {
    // Batches run concurrently on pool workers; counters are plain
    // non-atomic fields, so the merge must hold the host's perf mutex.
    MutexLock lock(perf_mutex_);
    perf_ = perf_.Merged(result.counters);
  }

  // Truncated (anytime) summaries are never learned: a persisted speech must
  // be the full greedy result, not whatever one request's budget allowed.
  if (options_.record_learned && !result.timed_out) {
    MutexLock lock(learned_mutex_);
    if (learned_keys_.insert(query.Key()).second) {
      learned_.push_back(StoredSpeech{query, speech});
    }
  }

  auto answer = std::make_shared<ServedAnswer>();
  answer->text = speech.text;
  answer->source = AnswerSource::kOnDemand;
  answer->answered = true;
  answer->scaled_utility = speech.scaled_utility;
  answer->compute_seconds = watch.ElapsedSeconds();
  answer->degraded = result.timed_out;
  return answer;
}

double EngineHost::GlobalAveragePrior(int target_index) {
  MutexLock lock(prior_mutex_);
  auto it = global_priors_.find(target_index);
  if (it != global_priors_.end()) return it->second;
  double prior = GlobalAverage(engine_->table(), target_index);
  global_priors_.emplace(target_index, prior);
  return prior;
}

PerfCounters EngineHost::perf() const {
  MutexLock lock(perf_mutex_);
  return perf_;
}

std::vector<StoredSpeech> EngineHost::TakeLearned() {
  MutexLock lock(learned_mutex_);
  std::vector<StoredSpeech> out;
  out.swap(learned_);
  // Keys stay recorded: a speech handed to the registry for persistence
  // should not be re-learned (and re-flushed) if its cache entry is evicted
  // and the query recomputed.
  return out;
}

void EngineHost::RestoreLearned(std::vector<StoredSpeech> learned) {
  MutexLock lock(learned_mutex_);
  for (auto& stored : learned) {
    // Keys are already in learned_keys_ (TakeLearned kept them), so a plain
    // re-append would duplicate entries a concurrent re-learn might have
    // added; the key set guards persistence-level dedup, not this list.
    bool already_pending = false;
    for (const auto& pending : learned_) {
      if (pending.query.Key() == stored.query.Key()) {
        already_pending = true;
        break;
      }
    }
    if (!already_pending) learned_.push_back(std::move(stored));
  }
}

size_t EngineHost::pending_learned() const {
  MutexLock lock(learned_mutex_);
  return learned_.size();
}

HostStats EngineHost::stats() const {
  HostStats out;
  // relaxed: counters are read one by one -- a statistical snapshot, not a
  // consistent cut.
  out.requests = stats_.requests.load(std::memory_order_relaxed);
  out.queries = stats_.queries.load(std::memory_order_relaxed);
  out.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
  out.cache_misses = stats_.cache_misses.load(std::memory_order_relaxed);
  out.coalesced_waits = stats_.coalesced_waits.load(std::memory_order_relaxed);
  out.store_exact_hits = stats_.store_exact_hits.load(std::memory_order_relaxed);
  out.store_fallback_hits =
      stats_.store_fallback_hits.load(std::memory_order_relaxed);
  out.on_demand_summaries =
      stats_.on_demand_summaries.load(std::memory_order_relaxed);
  out.on_demand_passes = stats_.on_demand_passes.load(std::memory_order_relaxed);
  out.max_batch = stats_.max_batch.load(std::memory_order_relaxed);
  out.max_active_solves =
      stats_.max_active_solves.load(std::memory_order_relaxed);
  out.unanswerable = stats_.unanswerable.load(std::memory_order_relaxed);
  out.degraded = stats_.degraded.load(std::memory_order_relaxed);
  out.timeouts = stats_.timeouts.load(std::memory_order_relaxed);
  out.stale_serves = stats_.stale_serves.load(std::memory_order_relaxed);
  return out;
}

}  // namespace serve
}  // namespace vq
