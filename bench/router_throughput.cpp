// Multi-dataset routing throughput: queries/sec and latency percentiles of
// RoutingService at 1/4/16 worker threads over THREE registered datasets
// (flights, ACS, primaries), with per-request routing decided purely from
// NLU vocabulary coverage -- no request names its dataset.
//
// Since the dynamic-registry work, the bench also measures add/remove under
// load: a fourth dataset is registered and retired in a loop while steady
// three-dataset traffic keeps flowing, reporting the steady-state routed qps
// during churn, per-cycle onboard/retire latency, and that no request routed
// to a removed dataset after RemoveDataset returned.
//
// Since the zero-copy snapshot work, it also measures cold start at paper
// scale: a 10M-row StackOverflow dataset is onboarded under the same steady
// traffic twice -- once via the cold build (preprocess + index) and once via
// AddFromSnapshot (mmap + pointer adoption) -- reporting time-to-routable
// for both, their ratio (gated at >=100x when run at full scale), that both
// incarnations answer the probe workload identically, and the steady qps
// sustained across the whole onboarding window. VQ_SNAPBENCH_ROWS caps the
// row count for development runs (the speedup floor only gates at >=10M).
//
// Since the overload-robustness work, an open-loop scenario offers 2x the
// measured closed-loop capacity on a fixed arrival schedule (arrivals never
// slow down when the router does) with 250 ms deadlines and a bounded
// admission budget, and verifies the router sheds/degrades the excess
// instead of queue-collapsing: accepted requests keep a bounded
// submit-to-resolve p99, and every submitted request resolves to exactly
// one of ok / shed / timeout / degraded (tallies reconcile with the
// router's own counters).
//
// Emits a machine-readable JSON report (default BENCH_router.json, override
// with VQ_BENCH_OUT).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "storage/datasets.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

// Renders a voice-request string the NLU front end grounds back into
// `query`: the target column name followed by the predicate value names.
// Underscores become spaces ("vote_share" -> "vote share"): spoken requests
// contain the multi-word phrase the vocabulary indexes, not the identifier.
std::string RequestText(const vq::Table& table, const vq::VoiceQuery& query) {
  std::string text = table.TargetName(static_cast<size_t>(query.target_index));
  for (const auto& predicate : query.predicates) {
    text += " ";
    text += table.dict(static_cast<size_t>(predicate.dim)).Lookup(predicate.value);
  }
  for (char& c : text) {
    if (c == '_') c = ' ';
  }
  return text;
}

struct DatasetSpec {
  std::string name;
  vq::Configuration config;
};

std::vector<DatasetSpec> BenchDatasets() {
  std::vector<DatasetSpec> specs(3);
  specs[0].name = "flights";
  specs[0].config.table = "flights";
  specs[0].config.dimensions = {"airline", "season", "dest_region"};
  specs[0].config.targets = {"cancelled"};
  specs[0].config.max_query_predicates = 2;
  specs[1].name = "acs";
  specs[1].config.table = "acs";
  specs[1].config.dimensions = {"borough", "age_group"};
  specs[1].config.targets = {"visual"};
  specs[1].config.max_query_predicates = 2;
  specs[2].name = "primaries";
  specs[2].config.table = "primaries";
  specs[2].config.dimensions = {"candidate", "state_region"};
  specs[2].config.targets = {"vote_share"};
  specs[2].config.max_query_predicates = 2;
  return specs;
}

struct RunResult {
  size_t threads = 0;
  size_t requests = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Histogram-derived percentiles from the run's private metrics registry
  /// (vq_router_request_seconds): what a production scrape would report, vs
  /// the exact-sample p50_ms/p99_ms above. Log-bucketed, so within 12.5%.
  double hist_p50_ms = 0.0;
  double hist_p99_ms = 0.0;
  double cache_hit_rate = 0.0;
  size_t misrouted = 0;
};

/// One timed run over a fresh RoutingService: interleaved requests from all
/// datasets, cache warmed first, routing accuracy verified per response.
RunResult TimedRun(const vq::serve::DatasetRegistry& registry, size_t threads,
                   const std::vector<std::pair<std::string, std::string>>& workload,
                   size_t total_requests, double vocalize_seconds) {
  // Private per-run registry: percentiles are isolated per scenario, and
  // the warm-up's samples can be excluded by snapshotting around the timed
  // window. Declared before the router (whose destructor unregisters its
  // collector from it).
  vq::obs::MetricsRegistry metrics;
  vq::serve::RouterOptions options;
  options.num_threads = threads;
  options.host.simulated_vocalize_seconds = vocalize_seconds;
  options.metrics = &metrics;
  vq::serve::RoutingService router(&registry, options);

  for (const auto& [request, dataset] : workload) (void)router.AnswerNow(request);
  // Exclude the warm-up from the reported distribution.
  vq::obs::HistogramSnapshot warmup =
      metrics.SnapshotHistogram("vq_router_request_seconds");

  std::vector<std::future<vq::serve::RoutedResponse>> futures;
  futures.reserve(total_requests);
  vq::Stopwatch watch;
  for (size_t i = 0; i < total_requests; ++i) {
    futures.push_back(router.Submit(workload[i % workload.size()].first));
  }
  std::vector<double> latency_ms;
  latency_ms.reserve(total_requests);
  size_t misrouted = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    vq::serve::RoutedResponse routed = futures[i].get();
    latency_ms.push_back(routed.response.seconds * 1e3);
    if (routed.dataset != workload[i % workload.size()].second) ++misrouted;
  }
  double wall = watch.ElapsedSeconds();
  vq::obs::HistogramSnapshot window =
      metrics.SnapshotHistogram("vq_router_request_seconds");
  // Subtract the warm-up's buckets: snapshots are plain values, and nothing
  // recorded between the two snapshots but the timed window itself.
  window.count -= warmup.count;
  window.sum_seconds -= warmup.sum_seconds;
  for (size_t b = 0; b < window.buckets.size(); ++b) {
    window.buckets[b] -= warmup.buckets[b];
  }

  RunResult result;
  result.threads = threads;
  result.requests = total_requests;
  result.wall_seconds = wall;
  result.qps = static_cast<double>(total_requests) / wall;
  result.p50_ms = vq::Quantile(latency_ms, 0.50);
  result.p99_ms = vq::Quantile(latency_ms, 0.99);
  result.hist_p50_ms = window.p50() * 1e3;
  result.hist_p99_ms = window.p99() * 1e3;
  result.cache_hit_rate = router.cache().TotalStats().HitRate();
  result.misrouted = misrouted;
  return result;
}

struct ChurnResult {
  size_t cycles = 0;
  double wall_seconds = 0.0;
  size_t steady_requests = 0;
  double steady_qps = 0.0;
  double add_seconds_avg = 0.0;
  double remove_seconds_avg = 0.0;
  size_t dynamic_answered = 0;       ///< requests served by the churned dataset
  size_t misroutes_after_remove = 0; ///< must stay 0
};

/// Add/remove-under-load: cycles a fourth dataset (the running example) in
/// and out of the registry CONTINUOUSLY while a background thread drives
/// `steady_requests` of the steady three-dataset workload through the SAME
/// router. The steady traffic's qps is measured over its full fixed-size
/// window -- every request of which races registry mutations -- and the
/// removal guarantee is verified after every cycle.
ChurnResult ChurnRun(vq::serve::DatasetRegistry* registry,
                     const std::vector<std::pair<std::string, std::string>>& workload,
                     size_t steady_requests, uint64_t seed) {
  vq::serve::RouterOptions options;
  options.num_threads = 4;
  vq::serve::RoutingService router(registry, options);
  for (const auto& [request, dataset] : workload) (void)router.AnswerNow(request);

  vq::Configuration dynamic_config;
  dynamic_config.table = "running_example";
  dynamic_config.dimensions = {"region", "season"};
  dynamic_config.targets = {"delay"};
  dynamic_config.prior = vq::PriorKind::kZero;
  const std::string dynamic_name = "re_dynamic";
  // Fully covered by the running example's vocabulary, only grounded
  // elsewhere in fragments -- routes to the dynamic dataset iff present.
  const std::string dynamic_request = "delay in the East";

  ChurnResult result;
  std::atomic<bool> steady_finished{false};
  // The steady window is timed INSIDE the steady thread: the gated
  // steady_qps metric must not absorb the churn loop's post-steady tail
  // (its in-progress add/remove cycle, joins, drain), which scales with
  // dataset build cost rather than routing throughput.
  double steady_wall = 0.0;
  std::thread steady([&] {
    vq::Stopwatch steady_watch;
    size_t i = 0;
    size_t done = 0;
    std::vector<std::future<vq::serve::RoutedResponse>> inflight;
    while (done < steady_requests) {
      inflight.clear();
      size_t burst = std::min<size_t>(64, steady_requests - done);
      for (size_t b = 0; b < burst; ++b) {
        inflight.push_back(router.Submit(workload[i++ % workload.size()].first));
      }
      for (auto& future : inflight) (void)future.get();
      done += burst;
    }
    steady_wall = steady_watch.ElapsedSeconds();
    steady_finished.store(true, std::memory_order_relaxed);
  });

  // Churn for the WHOLE steady window: every steady request races a
  // registry mutation or a host-set rebuild.
  double add_seconds = 0.0;
  double remove_seconds = 0.0;
  while (!steady_finished.load(std::memory_order_relaxed)) {
    vq::Stopwatch add_watch;
    vq::Status added =
        registry->AddGenerated(dynamic_name, dynamic_config, 16, seed);
    add_seconds += add_watch.ElapsedSeconds();
    if (!added.ok()) {
      std::fprintf(stderr, "cycle %zu: add failed: %s\n", result.cycles,
                   added.ToString().c_str());
      break;
    }
    // The dataset serves the moment AddGenerated returns.
    vq::serve::RoutedResponse routed = router.AnswerNow(dynamic_request);
    if (routed.routed && routed.dataset == dynamic_name &&
        routed.response.answered) {
      ++result.dynamic_answered;
    }
    vq::Stopwatch remove_watch;
    vq::Status removed = registry->RemoveDataset(dynamic_name);
    router.SyncRegistry();  // host teardown + cache purge in the timed cost
    remove_seconds += remove_watch.ElapsedSeconds();
    if (!removed.ok()) {
      std::fprintf(stderr, "cycle %zu: remove failed: %s\n", result.cycles,
                   removed.ToString().c_str());
      break;
    }
    // The removal guarantee: no request routes to the dataset anymore.
    vq::serve::RoutedResponse after = router.AnswerNow(dynamic_request);
    if (after.routed && after.dataset == dynamic_name) {
      ++result.misroutes_after_remove;
    }
    ++result.cycles;
  }
  steady.join();
  router.Drain();

  result.wall_seconds = steady_wall;
  result.steady_requests = steady_requests;
  result.steady_qps = static_cast<double>(steady_requests) / steady_wall;
  result.add_seconds_avg =
      result.cycles > 0 ? add_seconds / static_cast<double>(result.cycles) : 0.0;
  result.remove_seconds_avg =
      result.cycles > 0 ? remove_seconds / static_cast<double>(result.cycles)
                        : 0.0;
  return result;
}

struct SnapshotColdStartResult {
  size_t rows = 0;
  bool gated = false;              ///< full scale (>=10M rows): floor enforced
  double cold_routable_seconds = 0.0;
  double snapshot_routable_seconds = 0.0;
  double speedup = 0.0;
  double write_seconds = 0.0;
  size_t snapshot_bytes = 0;
  bool answers_identical = false;
  size_t probes = 0;
  size_t steady_requests = 0;
  double steady_qps = 0.0;
};

/// Cold start vs zero-copy restore, both under load: while steady
/// three-dataset traffic flows through the SAME router, a paper-scale
/// StackOverflow dataset is cold-built into the registry (time-to-routable =
/// AddDataset returning + the first probe answering), snapshotted, removed,
/// and re-added from the snapshot (time-to-routable measured the same way).
/// The probe workload's rendered answers must match between the two
/// incarnations: the mmap-adopted columns/postings/speeches must be
/// indistinguishable from the cold build's, not just faster.
SnapshotColdStartResult SnapshotColdStartRun(
    vq::serve::DatasetRegistry* registry,
    const std::vector<std::pair<std::string, std::string>>& workload,
    uint64_t seed) {
  SnapshotColdStartResult result;
  const char* rows_env = std::getenv("VQ_SNAPBENCH_ROWS");
  result.rows = rows_env != nullptr
                    ? static_cast<size_t>(std::atoll(rows_env))
                    : 10000000;
  result.gated = result.rows >= 10000000;

  vq::Configuration config;
  config.table = "stackoverflow";
  config.dimensions = {"region",   "dev_type", "education", "employment",
                       "org_size", "gender",   "years_coding"};
  config.targets = {"competence", "optimism", "job_satisfaction",
                    "career_satisfaction", "salary", "work_hours"};
  config.max_query_predicates = 1;
  const std::string name = "stackoverflow";
  const std::string snapshot_path = "BENCH_stackoverflow.vqsnap.tmp";

  // Generation is the data source, not part of either serving path: untimed.
  vq::Table table = vq::MakeStackOverflowTable(result.rows, seed);

  vq::serve::RouterOptions options;
  options.num_threads = 4;
  vq::serve::RoutingService router(registry, options);
  for (const auto& [request, dataset] : workload) (void)router.AnswerNow(request);

  // Steady traffic covers the WHOLE onboarding window: cold build, snapshot
  // write, and restore all compete with live requests for the machine.
  std::atomic<bool> stop_steady{false};
  std::atomic<size_t> steady_done{0};
  std::thread steady([&] {
    size_t i = 0;
    std::vector<std::future<vq::serve::RoutedResponse>> inflight;
    while (!stop_steady.load(std::memory_order_relaxed)) {
      inflight.clear();
      for (size_t b = 0; b < 64; ++b) {
        inflight.push_back(router.Submit(workload[i++ % workload.size()].first));
      }
      for (auto& future : inflight) (void)future.get();
      steady_done.fetch_add(64, std::memory_order_relaxed);
    }
  });
  vq::Stopwatch steady_watch;

  // Probe requests: stratified per-target samples from the dataset's own
  // query space, rendered to voice-request text.
  std::vector<std::string> probes;
  {
    auto generator = vq::ProblemGenerator::Create(&table, config).value();
    for (const auto& query :
         vq::bench::StratifiedSampleQueries(generator, 12, seed)) {
      probes.push_back(RequestText(table, query));
    }
  }
  result.probes = probes.size();

  auto probe_answers = [&]() {
    std::vector<std::string> answers;
    for (const auto& probe : probes) {
      vq::serve::RoutedResponse routed = router.AnswerNow(probe);
      answers.push_back(routed.routed && routed.dataset == name
                            ? routed.response.text
                            : "<unrouted>");
    }
    return answers;
  };

  // ---- Cold path: full preprocess (speech generation + index build).
  vq::Stopwatch cold_watch;
  vq::Status st = registry->AddDataset(name, table, config);
  if (!st.ok()) {
    std::fprintf(stderr, "snapshot bench: cold add failed: %s\n",
                 st.ToString().c_str());
    stop_steady.store(true, std::memory_order_relaxed);
    steady.join();
    return result;
  }
  (void)router.AnswerNow(probes.front());  // first routed answer closes the clock
  result.cold_routable_seconds = cold_watch.ElapsedSeconds();
  std::vector<std::string> cold_answers = probe_answers();

  vq::Stopwatch write_watch;
  st = registry->WriteSnapshot(name, snapshot_path);
  result.write_seconds = write_watch.ElapsedSeconds();
  if (st.ok()) {
    result.snapshot_bytes =
        static_cast<size_t>(std::filesystem::file_size(snapshot_path));
    (void)registry->RemoveDataset(name);
    router.SyncRegistry();

    // ---- Zero-copy path: mmap, verify, adopt pointers.
    vq::Stopwatch snap_watch;
    st = registry->AddFromSnapshot(name, snapshot_path, config);
    if (st.ok()) {
      (void)router.AnswerNow(probes.front());
      result.snapshot_routable_seconds = snap_watch.ElapsedSeconds();
      std::vector<std::string> snapshot_answers = probe_answers();
      result.answers_identical = snapshot_answers == cold_answers;
      result.speedup = result.snapshot_routable_seconds > 0.0
                           ? result.cold_routable_seconds /
                                 result.snapshot_routable_seconds
                           : 0.0;
      (void)registry->RemoveDataset(name);
      router.SyncRegistry();
    } else {
      std::fprintf(stderr, "snapshot bench: restore failed: %s\n",
                   st.ToString().c_str());
    }
  } else {
    std::fprintf(stderr, "snapshot bench: write failed: %s\n",
                 st.ToString().c_str());
    (void)registry->RemoveDataset(name);
    router.SyncRegistry();
  }
  std::filesystem::remove(snapshot_path);

  stop_steady.store(true, std::memory_order_relaxed);
  steady.join();
  router.Drain();
  double steady_wall = steady_watch.ElapsedSeconds();
  result.steady_requests = steady_done.load(std::memory_order_relaxed);
  result.steady_qps =
      steady_wall > 0.0
          ? static_cast<double>(result.steady_requests) / steady_wall
          : 0.0;
  return result;
}

struct OverloadResult {
  size_t threads = 0;
  double capacity_qps = 0.0;   ///< closed-loop qps at the same thread count
  double offered_qps = 0.0;    ///< open-loop arrival rate (2x capacity)
  double deadline_ms = 0.0;
  size_t max_pending = 0;
  size_t submitted = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t timeout = 0;
  size_t degraded = 0;
  double wall_seconds = 0.0;
  double accepted_p50_ms = 0.0;  ///< submit-to-resolve, ok+degraded only
  double accepted_p99_ms = 0.0;
  double shed_fraction = 0.0;
  double accepted_fraction = 0.0;
  bool reconciled = false;  ///< tallies == submitted == router counters
};

/// Overload shedding under open-loop arrivals: unlike TimedRun (which floods
/// all requests upfront and lets backpressure pace the producer), requests
/// arrive on a fixed schedule at 2x the measured closed-loop capacity,
/// regardless of how far behind the router is -- the arrival process does
/// not slow down when the system does, which is what makes unbounded queues
/// collapse. With a 250 ms deadline and a bounded admission budget the
/// router must shed the excess at the door and keep the accepted requests'
/// end-to-end (submit-to-resolve, queue wait included) p99 bounded, instead
/// of timing out everyone from the back of an ever-growing queue.
OverloadResult OverloadRun(
    const vq::serve::DatasetRegistry& registry,
    const std::vector<std::pair<std::string, std::string>>& workload,
    double capacity_qps, size_t threads, double vocalize_seconds) {
  OverloadResult result;
  result.threads = threads;
  result.capacity_qps = capacity_qps;
  result.offered_qps = 2.0 * capacity_qps;
  result.deadline_ms = 250.0;
  result.max_pending = 256;
  const double kWindowSeconds = 1.5;
  result.submitted = std::min<size_t>(
      40000, static_cast<size_t>(result.offered_qps * kWindowSeconds));

  vq::serve::RouterOptions options;
  options.num_threads = threads;
  options.host.simulated_vocalize_seconds = vocalize_seconds;
  options.default_deadline_seconds = result.deadline_ms / 1e3;
  options.max_pending_requests = result.max_pending;
  vq::serve::RoutingService router(&registry, options);
  for (const auto& [request, dataset] : workload) (void)router.AnswerNow(request);
  // The warm-up's requests land in the router counters too: reconcile the
  // timed window against the counter DELTA, not the absolute values.
  vq::serve::RouterStats before = router.stats();

  const size_t total = result.submitted;
  std::vector<std::future<vq::serve::RoutedResponse>> futures;
  futures.reserve(total);  // no reallocation: the harvester indexes into it
  std::vector<double> submit_at(total, 0.0);
  std::atomic<size_t> published{0};
  size_t ok = 0, shed = 0, timeout = 0, degraded = 0;
  std::vector<double> accepted_ms;
  accepted_ms.reserve(total);

  vq::Stopwatch clock;
  // Harvester runs concurrently so resolve timestamps are observed as they
  // happen; the pool completes FIFO, so in-order get() tracks completion.
  std::thread harvester([&] {
    for (size_t h = 0; h < total; ++h) {
      while (published.load(std::memory_order_acquire) <= h) {
        std::this_thread::yield();
      }
      vq::serve::RoutedResponse routed = futures[h].get();
      double latency_ms = (clock.ElapsedSeconds() - submit_at[h]) * 1e3;
      switch (routed.response.status) {
        case vq::serve::ServeStatus::kOk:
          ++ok;
          accepted_ms.push_back(latency_ms);
          break;
        case vq::serve::ServeStatus::kDegraded:
          ++degraded;
          accepted_ms.push_back(latency_ms);
          break;
        case vq::serve::ServeStatus::kShed:
          ++shed;
          break;
        case vq::serve::ServeStatus::kTimeout:
          ++timeout;
          break;
      }
    }
  });

  // Open-loop producer: batched ticks release every arrival whose scheduled
  // time has passed, never waiting on responses.
  size_t sent = 0;
  while (sent < total) {
    size_t due = std::min(
        total,
        static_cast<size_t>(result.offered_qps * clock.ElapsedSeconds()) + 1);
    while (sent < due) {
      submit_at[sent] = clock.ElapsedSeconds();
      futures.push_back(router.Submit(workload[sent % workload.size()].first));
      published.store(sent + 1, std::memory_order_release);
      ++sent;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  harvester.join();
  router.Drain();
  result.wall_seconds = clock.ElapsedSeconds();

  result.ok = ok;
  result.shed = shed;
  result.timeout = timeout;
  result.degraded = degraded;
  result.accepted_p50_ms = vq::Quantile(accepted_ms, 0.50);
  result.accepted_p99_ms = vq::Quantile(accepted_ms, 0.99);
  result.shed_fraction =
      static_cast<double>(shed) / static_cast<double>(total);
  result.accepted_fraction =
      static_cast<double>(ok + degraded) / static_cast<double>(total);
  vq::serve::RouterStats stats = router.stats();
  result.reconciled = (ok + shed + timeout + degraded == total) &&
                      stats.requests - before.requests == total &&
                      stats.shed - before.shed == shed &&
                      stats.timeouts - before.timeouts == timeout &&
                      stats.degraded - before.degraded == degraded &&
                      router.PendingRequests() == 0;
  return result;
}

}  // namespace

int main() {
  const uint64_t kSeed = 20210318;
  const double kVocalizeSeconds = 1e-3;  // 1 ms simulated TTS/transport
  const size_t kQueriesPerDataset = 24;
  const size_t kTotalRequests = 2000;
  vq::bench::PrintHeader("Multi-dataset routing throughput", "serving layer",
                         kSeed);

  // ---- Registry: three datasets, tables built at bench scale.
  vq::serve::DatasetRegistry registry;
  std::vector<DatasetSpec> specs = BenchDatasets();
  for (const auto& spec : specs) {
    vq::Stopwatch watch;
    vq::Status st = registry.RegisterGenerated(
        spec.name, spec.config, vq::bench::BenchRows(spec.config.table), kSeed);
    if (!st.ok()) {
      std::fprintf(stderr, "register '%s' failed: %s\n", spec.name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("Registered %-10s %6zu rows, %4zu speeches, %.2f s\n",
                spec.name.c_str(), registry.table(spec.name)->NumRows(),
                registry.engine(spec.name)->store().size(),
                watch.ElapsedSeconds());
  }

  // ---- Interleaved routed workload: per-dataset stratified query samples
  // rendered to text, tagged with the dataset that must serve them.
  std::vector<std::pair<std::string, std::string>> workload;
  for (const auto& spec : specs) {
    const vq::Table* table = registry.table(spec.name);
    auto generator = vq::ProblemGenerator::Create(table, spec.config).value();
    auto queries =
        vq::bench::StratifiedSampleQueries(generator, kQueriesPerDataset, kSeed);
    for (size_t i = 0; i < queries.size(); ++i) {
      workload.emplace_back(RequestText(*table, queries[i]), spec.name);
    }
  }
  // Round-robin across datasets so consecutive requests hit different hosts.
  std::vector<std::pair<std::string, std::string>> interleaved;
  interleaved.reserve(workload.size());
  for (size_t i = 0; i < kQueriesPerDataset; ++i) {
    for (size_t d = 0; d < specs.size(); ++d) {
      size_t index = d * kQueriesPerDataset + i;
      if (index < workload.size()) interleaved.push_back(workload[index]);
    }
  }

  vq::TablePrinter printer({"Threads", "Requests", "Wall (s)", "QPS", "p50 (ms)",
                            "p99 (ms)", "hist p50", "hist p99", "Hit rate",
                            "Misrouted"});
  std::vector<RunResult> runs;
  for (size_t threads : {1, 4, 16}) {
    RunResult run = TimedRun(registry, threads, interleaved, kTotalRequests,
                             kVocalizeSeconds);
    runs.push_back(run);
    char qps[32], p50[32], p99[32], hp50[32], hp99[32], wall[32], rate[32];
    std::snprintf(qps, sizeof(qps), "%.0f", run.qps);
    std::snprintf(p50, sizeof(p50), "%.3f", run.p50_ms);
    std::snprintf(p99, sizeof(p99), "%.3f", run.p99_ms);
    std::snprintf(hp50, sizeof(hp50), "%.3f", run.hist_p50_ms);
    std::snprintf(hp99, sizeof(hp99), "%.3f", run.hist_p99_ms);
    std::snprintf(wall, sizeof(wall), "%.3f", run.wall_seconds);
    std::snprintf(rate, sizeof(rate), "%.3f", run.cache_hit_rate);
    printer.AddRow({std::to_string(run.threads), std::to_string(run.requests),
                    wall, qps, p50, p99, hp50, hp99, rate,
                    std::to_string(run.misrouted)});
  }
  printer.Print();
  double speedup_4v1 = runs[1].qps / runs[0].qps;
  double speedup_16v1 = runs[2].qps / runs[0].qps;
  size_t total_misrouted = runs[0].misrouted + runs[1].misrouted + runs[2].misrouted;
  std::printf("Speedup: %.2fx at 4 threads, %.2fx at 16 threads (vs 1); "
              "misrouted: %zu\n",
              speedup_4v1, speedup_16v1, total_misrouted);

  // ---- Add/remove under load: the dynamic-registry scenario. Steady
  // three-dataset traffic keeps flowing while a fourth dataset cycles in
  // and out of the live registry.
  const size_t kChurnSteadyRequests = 200000;
  ChurnResult churn = ChurnRun(&registry, interleaved, kChurnSteadyRequests, kSeed);
  bool churn_ok = churn.misroutes_after_remove == 0 && churn.cycles > 0 &&
                  churn.dynamic_answered == churn.cycles;
  std::printf(
      "Add/remove under load: %zu cycles across %zu steady requests in %.3f s "
      "(add %.2f ms, remove+sync %.2f ms avg), steady traffic %.0f qps, "
      "dynamic answered %zu/%zu, misroutes after remove %zu [%s]\n",
      churn.cycles, churn.steady_requests, churn.wall_seconds,
      churn.add_seconds_avg * 1e3, churn.remove_seconds_avg * 1e3,
      churn.steady_qps, churn.dynamic_answered, churn.cycles,
      churn.misroutes_after_remove, churn_ok ? "OK" : "FAIL");

  // ---- Overload shedding: open-loop arrivals at 2x the 4-thread
  // closed-loop capacity, 250 ms deadlines, bounded admission. The router
  // must shed or degrade the excess instead of queue-collapsing: accepted
  // requests keep a bounded end-to-end p99, and every submitted request
  // resolves to exactly one of ok/shed/timeout/degraded.
  OverloadResult overload =
      OverloadRun(registry, interleaved, runs[1].qps, /*threads=*/4,
                  kVocalizeSeconds);
  bool overload_ok = overload.reconciled &&
                     overload.shed + overload.timeout + overload.degraded > 0 &&
                     overload.ok > 0 &&
                     overload.accepted_p99_ms < 2.0 * overload.deadline_ms;
  std::printf(
      "Overload shedding: offered %.0f qps (2x capacity %.0f) for %zu "
      "requests, deadline %.0f ms, pending budget %zu: ok %zu, shed %zu "
      "(%.2f), timeout %zu, degraded %zu; accepted p50 %.3f ms, p99 %.3f ms, "
      "reconciled %s [%s]\n",
      overload.offered_qps, overload.capacity_qps, overload.submitted,
      overload.deadline_ms, overload.max_pending, overload.ok, overload.shed,
      overload.shed_fraction, overload.timeout, overload.degraded,
      overload.accepted_p50_ms, overload.accepted_p99_ms,
      overload.reconciled ? "yes" : "NO", overload_ok ? "OK" : "FAIL");

  // ---- Snapshot cold start vs cold build, both under steady traffic.
  SnapshotColdStartResult snap =
      SnapshotColdStartRun(&registry, interleaved, kSeed);
  bool snap_ok = snap.answers_identical && snap.speedup > 0.0 &&
                 (!snap.gated || snap.speedup >= 100.0);
  std::printf(
      "Snapshot cold start (%zu rows%s): cold build routable in %.3f s, "
      "snapshot restore routable in %.4f s (%.0fx, write %.3f s, %.1f MiB), "
      "answers identical on %zu probes: %s, steady traffic %.0f qps [%s]\n",
      snap.rows, snap.gated ? "" : ", reduced scale -- floor ungated",
      snap.cold_routable_seconds, snap.snapshot_routable_seconds, snap.speedup,
      snap.write_seconds,
      static_cast<double>(snap.snapshot_bytes) / (1024.0 * 1024.0),
      snap.probes, snap.answers_identical ? "yes" : "NO", snap.steady_qps,
      snap_ok ? "OK" : "FAIL");

  // ---- Machine-readable report.
  vq::Json report = vq::Json::Object();
  report.Set("bench", vq::Json::Str("router_throughput"));
  report.Set("seed", vq::Json::Int(static_cast<int64_t>(kSeed)));
  report.Set("vocalize_ms", vq::Json::Number(kVocalizeSeconds * 1e3));
  vq::Json datasets = vq::Json::Array();
  for (const auto& spec : specs) {
    vq::Json entry = vq::Json::Object();
    entry.Set("name", vq::Json::Str(spec.name));
    entry.Set("rows", vq::Json::Int(static_cast<int64_t>(
                          registry.table(spec.name)->NumRows())));
    entry.Set("speeches", vq::Json::Int(static_cast<int64_t>(
                              registry.engine(spec.name)->store().size())));
    datasets.Append(std::move(entry));
  }
  report.Set("datasets", std::move(datasets));
  vq::Json warm = vq::Json::Array();
  for (const RunResult& run : runs) {
    vq::Json entry = vq::Json::Object();
    entry.Set("threads", vq::Json::Int(static_cast<int64_t>(run.threads)));
    entry.Set("requests", vq::Json::Int(static_cast<int64_t>(run.requests)));
    entry.Set("wall_seconds", vq::Json::Number(run.wall_seconds));
    entry.Set("qps", vq::Json::Number(run.qps));
    entry.Set("p50_ms", vq::Json::Number(run.p50_ms));
    entry.Set("p99_ms", vq::Json::Number(run.p99_ms));
    entry.Set("hist_p50_ms", vq::Json::Number(run.hist_p50_ms));
    entry.Set("hist_p99_ms", vq::Json::Number(run.hist_p99_ms));
    entry.Set("cache_hit_rate", vq::Json::Number(run.cache_hit_rate));
    entry.Set("misrouted", vq::Json::Int(static_cast<int64_t>(run.misrouted)));
    warm.Append(std::move(entry));
  }
  report.Set("routed_warm", std::move(warm));
  report.Set("speedup_4v1", vq::Json::Number(speedup_4v1));
  report.Set("speedup_16v1", vq::Json::Number(speedup_16v1));
  vq::Json dynamic = vq::Json::Object();
  dynamic.Set("cycles", vq::Json::Int(static_cast<int64_t>(churn.cycles)));
  dynamic.Set("wall_seconds", vq::Json::Number(churn.wall_seconds));
  dynamic.Set("steady_requests",
              vq::Json::Int(static_cast<int64_t>(churn.steady_requests)));
  dynamic.Set("steady_qps", vq::Json::Number(churn.steady_qps));
  dynamic.Set("add_ms_avg", vq::Json::Number(churn.add_seconds_avg * 1e3));
  dynamic.Set("remove_ms_avg",
              vq::Json::Number(churn.remove_seconds_avg * 1e3));
  dynamic.Set("dynamic_answered",
              vq::Json::Int(static_cast<int64_t>(churn.dynamic_answered)));
  dynamic.Set("misroutes_after_remove",
              vq::Json::Int(static_cast<int64_t>(churn.misroutes_after_remove)));
  report.Set("dynamic_registry", std::move(dynamic));
  vq::Json shedding = vq::Json::Object();
  shedding.Set("threads", vq::Json::Int(static_cast<int64_t>(overload.threads)));
  shedding.Set("capacity_qps", vq::Json::Number(overload.capacity_qps));
  shedding.Set("offered_qps", vq::Json::Number(overload.offered_qps));
  shedding.Set("deadline_ms", vq::Json::Number(overload.deadline_ms));
  shedding.Set("max_pending",
               vq::Json::Int(static_cast<int64_t>(overload.max_pending)));
  shedding.Set("submitted",
               vq::Json::Int(static_cast<int64_t>(overload.submitted)));
  shedding.Set("ok", vq::Json::Int(static_cast<int64_t>(overload.ok)));
  shedding.Set("shed", vq::Json::Int(static_cast<int64_t>(overload.shed)));
  shedding.Set("timeout",
               vq::Json::Int(static_cast<int64_t>(overload.timeout)));
  shedding.Set("degraded",
               vq::Json::Int(static_cast<int64_t>(overload.degraded)));
  shedding.Set("wall_seconds", vq::Json::Number(overload.wall_seconds));
  shedding.Set("accepted_p50_ms", vq::Json::Number(overload.accepted_p50_ms));
  shedding.Set("accepted_p99_ms", vq::Json::Number(overload.accepted_p99_ms));
  shedding.Set("shed_fraction", vq::Json::Number(overload.shed_fraction));
  shedding.Set("accepted_fraction",
               vq::Json::Number(overload.accepted_fraction));
  shedding.Set("reconciled", vq::Json::Bool(overload.reconciled));
  report.Set("overload_shedding", std::move(shedding));
  vq::Json cold_start = vq::Json::Object();
  cold_start.Set("rows", vq::Json::Int(static_cast<int64_t>(snap.rows)));
  cold_start.Set("cold_routable_seconds",
                 vq::Json::Number(snap.cold_routable_seconds));
  cold_start.Set("snapshot_routable_seconds",
                 vq::Json::Number(snap.snapshot_routable_seconds));
  cold_start.Set("time_to_routable_speedup", vq::Json::Number(snap.speedup));
  // The >=100x floor only binds at full scale (>=10M rows);
  // check_bench_regression.py --min skips the floor when this is false.
  cold_start.Set("time_to_routable_speedup_gated", vq::Json::Bool(snap.gated));
  cold_start.Set("write_seconds", vq::Json::Number(snap.write_seconds));
  cold_start.Set("snapshot_bytes",
                 vq::Json::Int(static_cast<int64_t>(snap.snapshot_bytes)));
  cold_start.Set("answers_identical", vq::Json::Bool(snap.answers_identical));
  cold_start.Set("probes", vq::Json::Int(static_cast<int64_t>(snap.probes)));
  cold_start.Set("steady_requests",
                 vq::Json::Int(static_cast<int64_t>(snap.steady_requests)));
  cold_start.Set("steady_qps", vq::Json::Number(snap.steady_qps));
  report.Set("snapshot_cold_start", std::move(cold_start));

  const char* out_env = std::getenv("VQ_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_router.json";
  std::ofstream out(out_path);
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("Report written to %s\n", out_path.c_str());

  bool ok = total_misrouted == 0 && speedup_4v1 > 2.0 &&
            churn_ok && snap_ok && overload_ok;
  return ok ? 0 : 1;
}
