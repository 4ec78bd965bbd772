// vqbench: the repository benchmark -- one command, three workloads, every
// answer checked. perfbench/README.md says why each workload exists and
// which layer metric should move which end-to-end number.
//
//   vqbench --workload lookup_hot|solve_cold|preprocess --seed N
//           --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//
// --trace 0 runs the workload untraced and prints its end-to-end metrics.
// --trace 1 runs the same workload, then a single-threaded replay of it
// through the layers' public functions with every call wrapped in a span,
// and prints the per-layer ledger (also written, spans included, to
// DIR/ledger_<workload>_<seed>.json). The last stdout line is always one
// JSON object {correct, attempted, failed, metrics}. A misrouted,
// unanswered, shed, timed-out, degraded or wrong answer is a failure and
// makes the exit code 1. --tiny shrinks every size for the smoke test.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/summarizer.h"
#include "facts/instance.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "query/problem_generator.h"
#include "relational/predicate.h"
#include "relational/scan_planner.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "speech/speech.h"
#include "storage/datasets.h"
#include "util/rng.h"
#include "util/simd.h"

#ifndef VQB_BUILD_TYPE
#define VQB_BUILD_TYPE "unknown"
#endif

namespace vqbench {
namespace {

using vq::serve::AnswerSource;
using vq::serve::DatasetRegistry;
using vq::serve::RoutedResponse;
using vq::serve::RoutingService;
using vq::serve::ServeStatus;
using vq::serve::ShardedSummaryCache;

/// Table contents are fixed; --seed drives the order and sample of the
/// requests and the row order of the pre-processed table.
constexpr uint64_t kDataSeed = 20210318;
/// Thread budget of lookup_hot: 2 serving workers plus the one polling
/// client thread, on a 4-core machine (solve_cold answers on its client
/// thread; see RunSolveCold). With 3 workers the 4 busy threads filled every core,
/// and any other activity on the host stalled the pipeline: lookup_hot
/// ranged 162k-257k requests/s across identical runs, against 200k-207k
/// with 2 workers.
constexpr size_t kWorkers = 2;
/// Requests the closed-loop client keeps outstanding.
constexpr size_t kInFlight = 6;
/// Stated bound on the traced run's residual: |request time - sum of layer
/// self times| over the workload's primary phase, as a share of its time.
constexpr double kResidualBound = 0.2;
constexpr size_t kCacheEntries = 1 << 14;

// ------------------------------------------------------------------ output

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ----------------------------------------------------------- machine stamp

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string MachineStamp() {
  const char* force_scalar = std::getenv("VQ_FORCE_SCALAR");
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"simd\": " + JsonString(vq::simd::Active().name) +
         ", \"compiler\": " + JsonString(CompilerName()) +
         ", \"build_type\": " + JsonString(VQB_BUILD_TYPE) +
         ", \"VQ_FORCE_SCALAR\": " +
         JsonString(force_scalar != nullptr ? force_scalar : "") + "}";
}

volatile double g_calibration_sink = 0.0;

/// Fixed single-thread work, timed before and after the workload: a machine
/// that slowed down between two runs shows here, not only in the workload.
double CalibrationSeconds() {
  double start = NowSeconds();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  double sum = 0.0;
  for (int i = 0; i < 30000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += static_cast<double>(x >> 40) * 1e-9;
  }
  double elapsed = NowSeconds() - start;
  g_calibration_sink = sum;
  return elapsed;
}

/// The process's resident high-water mark (VmHWM) in MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// --------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (args->workload == "lookup_hot" || args->workload == "solve_cold" ||
          args->workload == "preprocess") &&
         args->seconds > 0.0;
}

/// Input sizes. The full sizes are the benchmark; --tiny is for the smoke
/// test only.
struct Sizes {
  size_t flights_rows;
  size_t acs_rows;
  size_t primaries_rows;
  size_t stackoverflow_rows;
  int stackoverflow_predicates;  ///< max_query_predicates of preprocess
  size_t expected_problems;      ///< problems that configuration generates
  size_t fleet_setups;           ///< set-ups per run; setup_s is their median
  size_t min_preprocess_reps;
  size_t hot_sample;    ///< lookup_hot requests in the traced replay
  size_t cold_sample;   ///< solve_cold requests in the traced replay
  size_t probe_sample;  ///< routable-probe requests after preprocess
};

Sizes SizesFor(bool tiny) {
  if (tiny) return {2000, 500, 600, 2000, 1, 72, 2, 2, 200, 40, 16};
  return {20000, 2000, 3000, 20000, 2, 1106, 11, 3, 2000, 300, 64};
}

// ---------------------------------------------------------------- outcomes

/// Every checked answer, and the failures among them.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;

  /// Counts one check; an empty `mismatch` means it passed.
  void Check(const std::string& mismatch, const char* stage,
             const std::string& subject) {
    ++attempted;
    if (mismatch.empty()) return;
    if (failed < 5) {
      std::fprintf(stderr, "FAIL %s '%s': %s\n", stage, subject.c_str(),
                   mismatch.c_str());
    }
    ++failed;
  }
};

/// Client-side latency samples (microseconds) in a buffer allocated and
/// touched up front, so resident memory does not grow with the request rate
/// and peak_rss_mb stays a property of the program, not of this run's speed.
class LatencyBuffer {
 public:
  explicit LatencyBuffer(size_t capacity) : samples_(capacity, 0.0f) {}

  void Add(double seconds) {
    if (count_ < samples_.size()) samples_[count_] = static_cast<float>(seconds * 1e6);
    ++count_;
  }

  size_t count() const { return count_; }
  void Reset() { count_ = 0; }

  /// Exact nearest-rank percentiles in milliseconds (sorts in place).
  std::vector<double> PercentilesMs(const std::vector<double>& quantiles) {
    size_t n = std::min(count_, samples_.size());
    std::sort(samples_.begin(), samples_.begin() + static_cast<std::ptrdiff_t>(n));
    std::vector<double> out;
    for (double q : quantiles) {
      if (n == 0) {
        out.push_back(0.0);
        continue;
      }
      size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
      out.push_back(samples_[std::max<size_t>(rank, 1) - 1] / 1e3);
    }
    return out;
  }

 private:
  std::vector<float> samples_;
  size_t count_ = 0;
};

/// Reported latency percentiles. p90 is the tail metric: the highest one
/// that repeats across runs on every workload (preprocess's p99 rests on
/// its 11 largest problems and moved by a third between identical runs)
/// while keeping >= 10 samples beyond it per slice.
const std::vector<double> kQuantiles = {0.5, 0.9, 0.99, 0.999};

/// A timed run cut into slices (fixed-length windows, closed-loop passes or
/// pre-processing passes). Throughput is pooled over the whole run and each
/// percentile is the mean of its per-slice values. The shared host runs in
/// fast and slow phases of a few seconds (30% apart on the same code); a
/// median over slices jumps between the two, while a mean moves only with
/// the share of the run spent in each.
struct Slices {
  std::vector<double> throughput;
  std::vector<std::vector<double>> percentiles_ms;  ///< at kQuantiles
  size_t samples = 0;
  double wall = 0.0;

  /// Closes a slice from `latency` (then emptied) over `wall` seconds.
  void Add(LatencyBuffer* latency, double slice_wall) {
    throughput.push_back(Ratio(static_cast<double>(latency->count()), slice_wall));
    percentiles_ms.push_back(latency->PercentilesMs(kQuantiles));
    samples += latency->count();
    wall += slice_wall;
    latency->Reset();
  }

  double PooledThroughput() const { return Ratio(static_cast<double>(samples), wall); }

  std::vector<double> MeanPercentilesMs() const {
    std::vector<double> out(kQuantiles.size(), 0.0);
    for (const std::vector<double>& slice : percentiles_ms) {
      for (size_t q = 0; q < out.size(); ++q) out[q] += slice[q];
    }
    for (double& value : out) value = Ratio(value, static_cast<double>(percentiles_ms.size()));
    return out;
  }
};

// ---------------------------------------------------------------- counters

// Public counters of the serving stack, captured around the timed run. The
// X-lists name each field once; Capture/Combine/CountersJson iterate them.
#define VQB_ROUTER_FIELDS(X) X(requests) X(routed) X(unrouted) X(shed) X(timeouts) X(degraded)
#define VQB_CACHE_FIELDS(X)                                                       \
  X(hits) X(misses) X(insertions) X(evictions) X(expirations) X(byte_evictions) \
  X(admission_rejects) X(quota_evictions) X(stale_serves)
#define VQB_HOST_SUM_FIELDS(X)                                                   \
  X(requests) X(queries) X(cache_hits) X(cache_misses) X(coalesced_waits)       \
  X(store_exact_hits) X(store_fallback_hits) X(on_demand_summaries)             \
  X(on_demand_passes) X(unanswerable) X(degraded) X(timeouts) X(stale_serves)
#define VQB_HOST_MAX_FIELDS(X) X(max_batch) X(max_active_solves)
#define VQB_SCAN_FIELDS(X) X(postings_samples) X(scan_samples) X(probes)
#define VQB_DECLARE(f) uint64_t f = 0;

struct RouterCounts {
  VQB_ROUTER_FIELDS(VQB_DECLARE)
};
struct ScanCounts {
  VQB_SCAN_FIELDS(VQB_DECLARE)
};

struct Counters {
  RouterCounts router;          ///< RouterStats
  vq::serve::CacheStats cache;  ///< the router's CacheStats
  vq::serve::HostStats host;    ///< HostStats summed over hosts
  vq::PerfCounters perf;        ///< EngineHost::perf() summed over hosts
  ScanCounts scan;              ///< GlobalScanStats()
};

Counters Capture(const RoutingService* router, const std::vector<std::string>& hosts) {
  Counters c;
  const vq::ScanStats& scan = vq::GlobalScanStats();
#define VQB_READ_SCAN(f) c.scan.f = scan.f();
  VQB_SCAN_FIELDS(VQB_READ_SCAN)
  if (router == nullptr) return c;
  vq::serve::RouterStats stats = router->stats();
#define VQB_READ_ROUTER(f) c.router.f = stats.f;
  VQB_ROUTER_FIELDS(VQB_READ_ROUTER)
  c.cache = router->cache().TotalStats();
  for (const std::string& name : hosts) {
    const vq::serve::EngineHost* host = router->host(name);
    if (host == nullptr) continue;
    vq::serve::HostStats s = host->stats();
#define VQB_SUM_HOST(f) c.host.f += s.f;
#define VQB_MAX_HOST(f) c.host.f = std::max(c.host.f, s.f);
    VQB_HOST_SUM_FIELDS(VQB_SUM_HOST)
    VQB_HOST_MAX_FIELDS(VQB_MAX_HOST)
    c.perf = c.perf.Merged(host->perf());
  }
  return c;
}

/// `a - b` (sign -1, a delta; high-water marks keep `a`) or `a + b`
/// (sign +1, accumulating deltas; high-water marks take the max).
Counters Combine(const Counters& a, const Counters& b, int sign) {
  Counters c = a;
  auto apply = [sign](uint64_t x, uint64_t y) { return sign > 0 ? x + y : x - y; };
#define VQB_APPLY_ROUTER(f) c.router.f = apply(a.router.f, b.router.f);
#define VQB_APPLY_CACHE(f) c.cache.f = apply(a.cache.f, b.cache.f);
#define VQB_APPLY_HOST(f) c.host.f = apply(a.host.f, b.host.f);
#define VQB_APPLY_SCAN(f) c.scan.f = apply(a.scan.f, b.scan.f);
#define VQB_APPLY_MAX(f) c.host.f = std::max(a.host.f, b.host.f);
  VQB_ROUTER_FIELDS(VQB_APPLY_ROUTER)
  VQB_CACHE_FIELDS(VQB_APPLY_CACHE)
  VQB_HOST_SUM_FIELDS(VQB_APPLY_HOST)
  VQB_SCAN_FIELDS(VQB_APPLY_SCAN)
  if (sign > 0) {
    VQB_HOST_MAX_FIELDS(VQB_APPLY_MAX)
  }
  for (size_t i = 0; i < vq::PerfCounters::kNumFields; ++i) {
    auto member = vq::PerfCounters::kFields[i];
    c.perf.*member = apply(a.perf.*member, b.perf.*member);
  }
  return c;
}

std::string CountersJson(const Counters& c) {
  std::string out;
  auto field = [&out](const char* name, uint64_t value) {
    if (out.back() != '{') out += ", ";
    out += "\"" + std::string(name) + "\": " + std::to_string(value);
  };
#define VQB_JSON_ROUTER(f) field(#f, c.router.f);
#define VQB_JSON_CACHE(f) field(#f, c.cache.f);
#define VQB_JSON_HOST(f) field(#f, c.host.f);
#define VQB_JSON_SCAN(f) field(#f, c.scan.f);
  out = "{\"router\": {";
  VQB_ROUTER_FIELDS(VQB_JSON_ROUTER)
  out += "}, \"cache\": {";
  VQB_CACHE_FIELDS(VQB_JSON_CACHE)
  out += "}, \"host\": {";
  VQB_HOST_SUM_FIELDS(VQB_JSON_HOST)
  VQB_HOST_MAX_FIELDS(VQB_JSON_HOST)
  out += "}, \"perf\": {";
  c.perf.ForEachField(field);
  out += "}, \"scan\": {";
  VQB_SCAN_FIELDS(VQB_JSON_SCAN)
  return out + "}}";
}

// -------------------------------------------------------------- the fleet

struct DatasetSpec {
  std::string name;
  vq::Configuration config;
  size_t rows = 0;
};

/// The three routed datasets of lookup_hot and solve_cold.
std::vector<DatasetSpec> FleetSpecs(const Sizes& sizes) {
  std::vector<DatasetSpec> specs(3);
  specs[0].name = "flights";
  specs[0].config.table = "flights";
  specs[0].config.dimensions = {"airline", "season", "dest_region"};
  specs[0].config.targets = {"cancelled"};
  specs[0].rows = sizes.flights_rows;
  specs[1].name = "acs";
  specs[1].config.table = "acs";
  specs[1].config.dimensions = {"borough", "age_group"};
  specs[1].config.targets = {"visual"};
  specs[1].rows = sizes.acs_rows;
  specs[2].name = "primaries";
  specs[2].config.table = "primaries";
  specs[2].config.dimensions = {"candidate", "state_region"};
  specs[2].config.targets = {"vote_share"};
  specs[2].rows = sizes.primaries_rows;
  for (DatasetSpec& spec : specs) spec.config.max_query_predicates = 2;
  return specs;
}

std::vector<std::string> Names(const std::vector<DatasetSpec>& specs) {
  std::vector<std::string> names;
  for (const DatasetSpec& spec : specs) names.push_back(spec.name);
  return names;
}

vq::serve::RouterOptions ServingOptions(vq::obs::MetricsRegistry* metrics) {
  vq::serve::RouterOptions options;
  options.num_threads = kWorkers;
  options.metrics = metrics;
  // Compute only: no simulated speech synthesis, and no sampled or
  // slow-query traces -- the timed runs carry no spans.
  options.host.simulated_vocalize_seconds = 0.0;
  options.host.trace_samples_per_second = 0;
  options.host.slow_trace_seconds = 0.0;
  return options;
}

vq::serve::RegistryOptions RegistryOptionsFor(vq::obs::MetricsRegistry* metrics) {
  vq::serve::RegistryOptions options;
  options.metrics = metrics;
  return options;
}

/// One routable fleet. Declaration order is destruction-safe: the router
/// goes first, then the registry, then the metrics both report into.
struct Fleet {
  vq::obs::MetricsRegistry metrics;
  std::unique_ptr<DatasetRegistry> registry;
  std::unique_ptr<RoutingService> router;
};

/// Registers copies of `tables` (made before the clock starts: generating
/// tables is not set-up) and builds the router. `*seconds` is the time from
/// the registry call until every dataset is routable.
std::unique_ptr<Fleet> BuildFleet(const std::vector<DatasetSpec>& specs,
                                  const std::vector<vq::Table>& tables,
                                  double* seconds, std::string* error) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<vq::Table> copies(tables);
  double start = NowSeconds();
  fleet->registry =
      std::make_unique<DatasetRegistry>(RegistryOptionsFor(&fleet->metrics));
  for (size_t i = 0; i < specs.size(); ++i) {
    vq::Status status = fleet->registry->AddDataset(specs[i].name,
                                                    std::move(copies[i]),
                                                    specs[i].config);
    if (!status.ok()) {
      *error = status.ToString();
      return nullptr;
    }
  }
  fleet->router = std::make_unique<RoutingService>(fleet->registry.get(),
                                                   ServingOptions(&fleet->metrics));
  fleet->router->SyncRegistry();
  *seconds = NowSeconds() - start;
  return fleet;
}

// ----------------------------------------------------------------- requests

struct Request {
  std::string text;
  std::string dataset;
  vq::VoiceQuery query;
  std::string expected;  ///< the answer text this request must get
  double utility = 0.0;  ///< scaled utility of that answer
};

/// The spoken form of `query`: the target column, then the predicate
/// values, underscores as spaces (the vocabulary indexes spoken phrases).
std::string RequestText(const vq::Table& table, const vq::VoiceQuery& query) {
  std::string text = table.TargetName(static_cast<size_t>(query.target_index));
  for (const vq::EqPredicate& predicate : query.predicates) {
    text += " ";
    text += table.dict(static_cast<size_t>(predicate.dim)).Lookup(predicate.value);
  }
  std::replace(text.begin(), text.end(), '_', ' ');
  return text;
}

/// Every configured query of each dataset in `specs` that has a stored
/// speech, rendered to text, with that speech as the expected answer.
std::vector<Request> ConfiguredRequests(const DatasetRegistry& registry,
                                        const std::vector<DatasetSpec>& specs) {
  std::vector<Request> out;
  for (const DatasetSpec& spec : specs) {
    const vq::Table* table = registry.table(spec.name);
    const vq::VoiceQueryEngine* engine = registry.engine(spec.name);
    if (table == nullptr || engine == nullptr) continue;
    auto generator = vq::ProblemGenerator::Create(table, spec.config);
    if (!generator.ok()) continue;
    for (const vq::VoiceQuery& query : generator.value().GenerateQueries()) {
      const vq::StoredSpeech* stored = engine->store().FindExact(query);
      if (stored == nullptr) continue;  // empty subset: nothing pre-computed
      out.push_back(Request{RequestText(*table, query), spec.name, query,
                            stored->speech.text, stored->speech.scaled_utility});
    }
  }
  return out;
}

/// Distinct flights requests that each name a dimension outside the flights
/// configuration (month, time_of_day, origin_state): such a value alone,
/// paired with a configured dimension's value, or paired with another
/// outside dimension's value. None is pre-computed, so every one needs an
/// on-demand solve. Combinations selecting no rows are left out.
std::vector<Request> OnDemandRequests(const vq::Table& table, const DatasetSpec& spec) {
  const std::vector<std::string> outside = {"month", "time_of_day", "origin_state"};
  const std::vector<std::string>& inside = spec.config.dimensions;
  auto values = [&table](const std::string& dim) {
    int index = table.DimIndex(dim);
    std::vector<vq::EqPredicate> out;
    for (size_t v = 0; v < table.dict(static_cast<size_t>(index)).size(); ++v) {
      out.push_back(vq::EqPredicate{index, static_cast<vq::ValueId>(v)});
    }
    return out;
  };
  std::vector<vq::PredicateSet> sets;
  auto add_pairs = [&](const std::string& a, const std::string& b) {
    for (const vq::EqPredicate& x : values(a)) {
      for (const vq::EqPredicate& y : values(b)) sets.push_back({x, y});
    }
  };
  for (size_t i = 0; i < outside.size(); ++i) {
    for (const vq::EqPredicate& x : values(outside[i])) sets.push_back({x});
    for (const std::string& dim : inside) add_pairs(outside[i], dim);
    for (size_t j = i + 1; j < outside.size(); ++j) add_pairs(outside[i], outside[j]);
  }
  int target = table.TargetIndex(spec.config.targets[0]);
  std::vector<Request> out;
  for (vq::PredicateSet& set : sets) {
    if (!vq::NormalizePredicates(&set).ok()) continue;
    if (vq::FilterRows(table, set).empty()) continue;
    vq::VoiceQuery query;
    query.target_index = target;
    query.predicates = std::move(set);
    out.push_back(Request{RequestText(table, query), spec.name, query, "", 0.0});
  }
  return out;
}

std::vector<size_t> Permutation(size_t n, vq::Rng* rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  return order;
}

/// Why `routed` is not the right answer to `request` (empty = correct).
std::string Mismatch(const Request& request, const RoutedResponse& routed,
                     AnswerSource source) {
  if (!routed.routed || routed.dataset != request.dataset) {
    return "misrouted to '" + routed.dataset + "'";
  }
  const vq::serve::ServeResponse& response = routed.response;
  if (response.status != ServeStatus::kOk) {
    return std::string("status ") + vq::serve::ServeStatusName(response.status);
  }
  if (!response.answered) return "unanswered";
  if (response.source != source) {
    return std::string("source ") + vq::serve::AnswerSourceName(response.source);
  }
  if (response.text != request.expected) return "wrong answer text";
  return "";
}

/// One client thread keeping kInFlight requests outstanding: a new request
/// is submitted as soon as one resolves (a closed loop). The client polls
/// its outstanding futures instead of sleeping on one, so a response is
/// timed when it resolves, in any order, and the client's own wake-up
/// latency is not part of the measurement. `next` returns the next request
/// index or -1 to stop; `check` sees every response. Returns the loop's
/// wall time.
template <typename Next, typename Check>
double ClosedLoop(RoutingService* router, const std::vector<Request>& requests,
                  Next next, Check check, LatencyBuffer* latency) {
  struct Outstanding {
    std::future<RoutedResponse> future;
    double submitted = 0.0;
    size_t index = 0;
  };
  std::vector<Outstanding> slots(kInFlight);
  size_t active = 0;
  auto submit = [&](Outstanding* slot) {
    int64_t index = next();
    if (index < 0) return;
    slot->index = static_cast<size_t>(index);
    slot->submitted = NowSeconds();
    slot->future = router->Submit(requests[slot->index].text);
    ++active;
  };
  double start = NowSeconds();
  for (Outstanding& slot : slots) submit(&slot);
  while (active > 0) {
    for (Outstanding& slot : slots) {
      if (!slot.future.valid() ||
          slot.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        continue;
      }
      RoutedResponse routed = slot.future.get();
      latency->Add(NowSeconds() - slot.submitted);
      --active;
      check(slot.index, routed);
      submit(&slot);
    }
  }
  return NowSeconds() - start;
}

// ------------------------------------------------------------ traced replay

enum Phase { kSetupPhase = 0, kServePhase = 1 };

/// One replayed request: a serving request (root span "request") or an
/// AddDataset (root span "registry.add").
struct ReplayRecord {
  Phase phase = kServePhase;
  int root = -1;          ///< root span index in the ledger
  double measured = 0.0;  ///< its own untraced AnswerNow / AddDataset time
  double handoff = 0.0;   ///< client latency - route - in-service (serving)
};

struct Trace {
  Ledger ledger{true};
  std::vector<ReplayRecord> records;  ///< indexed by request id
  /// The phase the workload's end-to-end metrics measure: serving for
  /// lookup_hot and solve_cold, set-up (AddDataset) for preprocess.
  Phase primary = kServePhase;
  double traced_wall = 0.0;    ///< primary-phase replay with spans
  double untraced_wall = 0.0;  ///< the same replay without spans
  vq::PerfCounters solve_counters;  ///< of every traced replayed solve
  size_t solves = 0;
  /// Global-average priors per (engine, target): the host computes each
  /// once and reuses it, so the replay does too.
  std::map<std::pair<const void*, int>, double> priors;
};

vq::SummarizerOptions SolveOptions(const vq::Configuration& config) {
  vq::SummarizerOptions options;
  options.max_facts = config.max_facts;
  options.max_fact_dims = config.max_fact_dims;
  options.algorithm = vq::Algorithm::kGreedyOptimized;
  options.instance.prior_kind = config.prior;
  options.instance.prior_value = config.prior_value;
  return options;
}

/// Solves one problem from its filtered rows through the public functions,
/// each call in a span. Nothing when the subset is empty.
std::optional<vq::Speech> ReplaySolve(Trace* trace, Ledger* ledger,
                                      const vq::Table& table,
                                      const vq::VoiceQuery& query,
                                      const std::vector<uint32_t>& rows,
                                      const vq::SummarizerOptions& options) {
  auto instance = [&] {
    Span span(ledger, "facts.instance");
    return vq::BuildInstanceFromRows(table, query.predicates, query.target_index,
                                     rows, options.instance);
  }();
  if (!instance.ok()) return std::nullopt;
  auto prepared = [&] {
    Span span(ledger, "facts.catalog");
    return vq::PreparedProblem::FromInstance(std::move(instance).value(), options);
  }();
  if (!prepared.ok()) return std::nullopt;
  vq::SummaryResult result = [&] {
    Span span(ledger, "core.solve");
    return prepared.value().Run(options);
  }();
  vq::Speech speech = [&] {
    Span span(ledger, "speech.render");
    return vq::RenderSpeech(table, prepared.value().instance(),
                            prepared.value().catalog(), result, query.predicates);
  }();
  if (ledger->enabled()) {
    trace->solve_counters.Add(result.counters);
    ++trace->solves;
  }
  return speech;
}

/// Replays DatasetRegistry::AddDataset's work on `table`, a fresh copy with
/// no index yet: the first index build, then every configured problem the
/// way the pre-processor solves it. With a `store`, every replayed speech
/// must equal the stored one.
void ReplayPreprocess(Trace* trace, Ledger* ledger, vq::Table* table,
                      const vq::Configuration& config, const vq::SpeechStore* store,
                      Outcome* outcome) {
  {
    Span span(ledger, "storage.index_build");
    (void)table->index();
  }
  auto generator = vq::ProblemGenerator::Create(table, config);
  if (!generator.ok()) {
    outcome->Check(generator.status().ToString(), "replay", table->name());
    return;
  }
  vq::SummarizerOptions options = SolveOptions(config);
  for (const vq::VoiceQuery& query : generator.value().GenerateQueries()) {
    std::vector<uint32_t> rows;
    {
      Span span(ledger, "relational.filter");
      rows = vq::FilterRows(*table, query.predicates);
    }
    std::optional<vq::Speech> speech =
        ReplaySolve(trace, ledger, *table, query, rows, options);
    if (store == nullptr) continue;
    const vq::StoredSpeech* stored = store->FindExact(query);
    std::string mismatch;
    if (speech.has_value() != (stored != nullptr)) {
      mismatch = "replayed problem set differs from the store";
    } else if (stored != nullptr && speech->text != stored->speech.text) {
      mismatch = "replayed speech differs from the stored one";
    }
    outcome->Check(mismatch, "preprocess replay", query.Key());
  }
}

/// AddDataset as one traced request: registers a copy of `table` in
/// `registry` untraced (its own time), then replays the work with spans.
/// AddDataset time the replayed layers do not cover is booked to the
/// registry itself (registry.add_residual).
void TraceAdd(Trace* trace, DatasetRegistry* registry, const std::string& name,
              const vq::Table& table, const vq::Configuration& config, Phase phase,
              Outcome* outcome) {
  vq::Table copy(table);
  double start = NowSeconds();
  vq::Status status = registry->AddDataset(name, std::move(copy), config);
  double measured = NowSeconds() - start;
  outcome->Check(status.ok() ? "" : status.ToString(), "AddDataset", name);
  if (!status.ok()) return;
  const vq::SpeechStore* store = &registry->engine(name)->store();
  bool primary = phase == trace->primary;
  // The untraced replay runs before and after the traced one (primary phase
  // only), so warm-up favors neither side of the overhead comparison.
  auto untraced_pass = [&] {
    Ledger off(false);
    vq::Table untraced(table);
    double t0 = NowSeconds();
    ReplayPreprocess(trace, &off, &untraced, config, nullptr, outcome);
    return NowSeconds() - t0;
  };
  double untraced = primary ? untraced_pass() : 0.0;
  vq::Table traced(table);
  trace->ledger.set_request(static_cast<uint32_t>(trace->records.size()));
  ReplayRecord record{phase, -1, measured, 0.0};
  double t0 = NowSeconds();
  {
    Span root(&trace->ledger, "registry.add");
    record.root = root.index();
    ReplayPreprocess(trace, &trace->ledger, &traced, config, store, outcome);
  }
  if (primary) {
    trace->traced_wall += NowSeconds() - t0;
    trace->untraced_wall += 0.5 * (untraced + untraced_pass());
  }
  trace->records.push_back(record);
}

/// A router's hosts in routing order (RouteDecision::host_index).
struct ServeTarget {
  RoutingService* router = nullptr;
  std::vector<vq::serve::EngineHost*> hosts;
};

ServeTarget TargetOf(RoutingService* router, const DatasetRegistry& registry) {
  router->SyncRegistry();
  ServeTarget target;
  target.router = router;
  for (const auto& entry : registry.snapshot()->entries) {
    target.hosts.push_back(router->host(entry->name));
  }
  return target;
}

/// Replays RoutingService::AnswerNow's path for one request through the
/// layers' public functions: route, classify, ground + cache key, cache
/// lookup; on a miss the store lookup, an on-demand solve when the store has
/// no exact speech (filter, instance, catalog, solve, render), and the
/// cache write. Returns the answer text ("" when nothing was produced).
std::string ReplayServe(Trace* trace, Ledger* ledger, const ServeTarget& target,
                        ShardedSummaryCache* cache, const std::string& request,
                        int* route_span, std::string* dataset) {
  RoutingService::RouteDecision decision;
  {
    Span span(ledger, "nlu.route");
    *route_span = span.index();
    decision = target.router->Route(request);
  }
  if (decision.host_index < 0) return "";
  vq::serve::EngineHost* host = target.hosts[static_cast<size_t>(decision.host_index)];
  *dataset = host->name();
  const vq::VoiceQueryEngine& engine = host->engine();
  vq::ClassifiedRequest classified = [&] {
    Span span(ledger, "nlu.classify");
    return engine.classifier().Classify(request);
  }();
  vq::VoiceQuery query;
  std::string key;
  {
    Span span(ledger, "engine.ground");
    query = engine.GroundQuery(classified);
    key = vq::serve::CanonicalQueryKey(host->fingerprint(), query);
  }
  vq::serve::ServedAnswerPtr cached = [&] {
    Span span(ledger, "serve.cache_get");
    return cache->Get(key);
  }();
  if (cached != nullptr) return cached->text;
  const vq::StoredSpeech* exact = [&] {
    Span span(ledger, "engine.store");
    return engine.store().FindExact(query);
  }();
  auto answer = std::make_shared<vq::serve::ServedAnswer>();
  answer->answered = true;
  if (exact != nullptr) {
    answer->text = exact->speech.text;
    answer->source = AnswerSource::kStoreExact;
    answer->scaled_utility = exact->speech.scaled_utility;
  } else {
    const vq::Table& table = engine.table();
    vq::SummarizerOptions options = SolveOptions(engine.config());
    if (options.instance.prior_kind == vq::PriorKind::kGlobalAverage) {
      auto prior_key =
          std::make_pair(static_cast<const void*>(&engine), query.target_index);
      auto it = trace->priors.find(prior_key);
      if (it == trace->priors.end()) {
        double prior = vq::GlobalAverage(table, query.target_index);
        it = trace->priors.emplace(prior_key, prior).first;
      }
      options.instance.prior_kind = vq::PriorKind::kConstant;
      options.instance.prior_value = it->second;
    }
    std::vector<uint32_t> rows;
    {
      Span span(ledger, "relational.filter");
      std::vector<const vq::PredicateSet*> sets = {&query.predicates};
      std::vector<vq::ScanPartials> partials = vq::FilterRowsMultiPartials(table, sets);
      rows = vq::MergeScanPartials(std::move(partials[0]));
    }
    std::optional<vq::Speech> speech =
        ReplaySolve(trace, ledger, table, query, rows, options);
    if (!speech.has_value()) return "";
    answer->text = speech->text;
    answer->source = AnswerSource::kOnDemand;
    answer->scaled_utility = speech->scaled_utility;
  }
  {
    Span span(ledger, "serve.cache_put");
    cache->Put(key, answer, 0.0, host->fingerprint());
  }
  return answer->text;
}

/// Serving requests as traced requests. Each is first measured untraced --
/// AnswerNow on `a` (its own time) and Submit().get() on `b` (the client's
/// latency, which adds the pool/future handoff), each in its own loop so
/// neither pollutes the other's caches -- then replayed with spans against
/// `cache`. With `measure_overhead`, the replay also runs without spans
/// before and after the traced pass (against a fresh cache each when
/// `cold`, else against `cache`), for the tracing overhead.
void TraceServing(Trace* trace, Phase phase, const ServeTarget& a, RoutingService* b,
                  const std::vector<const Request*>& requests,
                  ShardedSummaryCache* cache, bool measure_overhead, bool cold,
                  Outcome* outcome) {
  std::vector<RoutedResponse> direct(requests.size());
  std::vector<double> answer_s(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    double t0 = NowSeconds();
    direct[i] = a.router->AnswerNow(requests[i]->text);
    answer_s[i] = NowSeconds() - t0;
  }
  std::vector<double> client_s(requests.size());
  std::vector<double> in_service_s(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    double t0 = NowSeconds();
    RoutedResponse pooled = b->Submit(requests[i]->text).get();
    client_s[i] = NowSeconds() - t0;
    in_service_s[i] = pooled.response.seconds;
    const vq::serve::ServeResponse& response = direct[i].response;
    std::string mismatch;
    if (response.status != ServeStatus::kOk || !response.answered) {
      mismatch = "unanswered";
    } else if (pooled.response.text != response.text) {
      mismatch = "AnswerNow and Submit disagree";
    } else if (!requests[i]->expected.empty() &&
               response.text != requests[i]->expected) {
      mismatch = "wrong answer text";
    }
    outcome->Check(mismatch, "replay measure", requests[i]->text);
  }
  int route_span = -1;
  std::string dataset;
  auto untraced_pass = [&] {
    std::optional<ShardedSummaryCache> fresh;
    if (cold) fresh.emplace(kCacheEntries);
    Ledger off(false);
    double t0 = NowSeconds();
    for (const Request* request : requests) {
      (void)ReplayServe(trace, &off, a, cold ? &*fresh : cache, request->text,
                        &route_span, &dataset);
    }
    return NowSeconds() - t0;
  };
  double untraced = measure_overhead ? untraced_pass() : 0.0;
  std::vector<std::string> texts(requests.size());
  std::vector<std::string> datasets(requests.size());
  std::vector<ReplayRecord> records(requests.size());
  uint32_t first_id = static_cast<uint32_t>(trace->records.size());
  double t0 = NowSeconds();
  for (size_t i = 0; i < requests.size(); ++i) {
    trace->ledger.set_request(first_id + static_cast<uint32_t>(i));
    Span root(&trace->ledger, "request");
    records[i].root = root.index();
    texts[i] = ReplayServe(trace, &trace->ledger, a, cache, requests[i]->text,
                           &route_span, &datasets[i]);
    records[i].handoff =
        client_s[i] - in_service_s[i] - trace->ledger.Seconds(route_span);
  }
  double traced = NowSeconds() - t0;
  if (measure_overhead) {
    trace->traced_wall += traced;
    trace->untraced_wall += 0.5 * (untraced + untraced_pass());
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    records[i].phase = phase;
    records[i].measured = answer_s[i];
    trace->records.push_back(records[i]);
    bool same = texts[i] == direct[i].response.text &&
                datasets[i] == requests[i]->dataset;
    outcome->Check(same ? "" : "replayed answer differs", "replay", requests[i]->text);
  }
}

/// The registry set-up of lookup_hot and solve_cold, as traced AddDatasets.
void TraceFleetSetup(Trace* trace, const std::vector<DatasetSpec>& specs,
                     const std::vector<vq::Table>& tables, Outcome* outcome) {
  vq::obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptionsFor(&metrics));
  for (size_t i = 0; i < specs.size(); ++i) {
    TraceAdd(trace, &registry, specs[i].name, tables[i], specs[i].config,
             kSetupPhase, outcome);
  }
}

// ------------------------------------------------------- per-layer ledger

struct LayerSpec {
  const char* name;
  const char* unit;
  double scale;  ///< seconds -> unit
};

/// The layers, in serving-path order; each reports its self time per call,
/// its call count and its share of the primary phase's time.
constexpr LayerSpec kLayers[] = {
    {"nlu.route", "us", 1e6},           {"nlu.classify", "us", 1e6},
    {"engine.ground", "us", 1e6},       {"engine.store", "us", 1e6},
    {"serve.cache_get", "us", 1e6},     {"serve.cache_put", "us", 1e6},
    {"serve.handoff", "us", 1e6},       {"relational.filter", "us", 1e6},
    {"facts.instance", "ms", 1e3},      {"facts.catalog", "ms", 1e3},
    {"core.solve", "ms", 1e3},          {"speech.render", "us", 1e6},
    {"storage.index_build", "ms", 1e3}, {"registry.add_residual", "ms", 1e3},
};

struct LayerTotals {
  double seconds[2] = {0.0, 0.0};
  uint64_t calls[2] = {0, 0};
};

struct LedgerSummary {
  std::map<std::string, LayerTotals> layers;
  double total[2] = {0.0, 0.0};     ///< request time (measured + handoff)
  double residual[2] = {0.0, 0.0};  ///< measured - sum of its layer spans
  size_t requests[2] = {0, 0};
};

LedgerSummary Summarize(const Trace& trace) {
  LedgerSummary out;
  const std::vector<SpanRecord>& spans = trace.ledger.spans();
  std::vector<double> children = trace.ledger.ChildSeconds();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.parent < 0) continue;  // roots are the requests themselves
    Phase phase = trace.records[span.request].phase;
    LayerTotals& totals = out.layers[span.name];
    totals.seconds[phase] += (span.end - span.start) - children[i];
    ++totals.calls[phase];
  }
  for (const ReplayRecord& record : trace.records) {
    double residual = record.measured - children[static_cast<size_t>(record.root)];
    bool add =
        std::strcmp(spans[static_cast<size_t>(record.root)].name, "registry.add") == 0;
    LayerTotals& totals = out.layers[add ? "registry.add_residual" : "serve.handoff"];
    totals.seconds[record.phase] += add ? residual : record.handoff;
    ++totals.calls[record.phase];
    out.residual[record.phase] += residual;
    out.total[record.phase] += record.measured + record.handoff;
    ++out.requests[record.phase];
  }
  return out;
}

std::vector<Metric> LayerMetrics(const Trace& trace, const LedgerSummary& summary,
                                 const Counters& c) {
  std::vector<Metric> out;
  Phase p = trace.primary;
  for (const LayerSpec& layer : kLayers) {
    LayerTotals totals;
    auto it = summary.layers.find(layer.name);
    if (it != summary.layers.end()) totals = it->second;
    uint64_t calls = totals.calls[0] + totals.calls[1];
    double seconds = totals.seconds[0] + totals.seconds[1];
    std::string name = layer.name;
    out.push_back({name + "_" + layer.unit,
                   Ratio(seconds, static_cast<double>(calls)) * layer.scale, layer.unit});
    out.push_back({name + ".calls", static_cast<double>(calls), "count"});
    out.push_back(
        {name + ".share", Ratio(totals.seconds[p], summary.total[p]), "ratio"});
  }
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  out.push_back({"serve.cache_hit_ratio",
                 Ratio(d(c.cache.hits), d(c.cache.hits + c.cache.misses)), "ratio"});
  out.push_back({"serve.batch_size",
                 Ratio(d(c.host.on_demand_summaries), d(c.host.on_demand_passes)),
                 "count"});
  out.push_back({"serve.max_active_solves", d(c.host.max_active_solves), "count"});
  out.push_back({"serve.coalesced_ratio",
                 Ratio(d(c.host.coalesced_waits), d(c.host.queries)), "ratio"});
  out.push_back({"relational.postings_share",
                 Ratio(d(c.scan.postings_samples),
                       d(c.scan.postings_samples + c.scan.scan_samples)),
                 "ratio"});
  out.push_back({"relational.probes", d(c.scan.probes), "count"});
  const vq::PerfCounters& perf = trace.solve_counters;
  out.push_back({"core.join_rows",
                 Ratio(d(perf.join_rows), static_cast<double>(trace.solves)), "count"});
  out.push_back({"core.prune_ratio",
                 Ratio(d(perf.groups_pruned), d(perf.groups_pruned + perf.groups_joined)),
                 "ratio"});
  out.push_back({"trace.residual_share",
                 Ratio(std::fabs(summary.residual[p]), summary.total[p]), "ratio"});
  out.push_back({"trace.overhead_ratio",
                 trace.untraced_wall > 0.0 ? trace.traced_wall / trace.untraced_wall - 1.0
                                           : 0.0,
                 "ratio"});
  out.push_back({"trace.requests",
                 static_cast<double>(summary.requests[0] + summary.requests[1]), "count"});
  return out;
}

void WriteLedger(const std::string& path, const std::string& header,
                 const Trace& trace, const LedgerSummary& summary) {
  std::ofstream out(path);
  out << "{" << header << ",\n\"layers\": {";
  bool first = true;
  for (const auto& [name, totals] : summary.layers) {
    out << (first ? "\n" : ",\n") << JsonString(name)
        << ": {\"setup_s\": " << JsonNumber(totals.seconds[kSetupPhase])
        << ", \"serve_s\": " << JsonNumber(totals.seconds[kServePhase])
        << ", \"setup_calls\": " << totals.calls[kSetupPhase]
        << ", \"serve_calls\": " << totals.calls[kServePhase] << "}";
    first = false;
  }
  out << "},\n\"requests\": [";
  std::vector<double> children = trace.ledger.ChildSeconds();
  for (size_t i = 0; i < trace.records.size(); ++i) {
    const ReplayRecord& r = trace.records[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"phase\": "
        << JsonString(r.phase == kSetupPhase ? "setup" : "serve")
        << ", \"measured_s\": " << JsonNumber(r.measured)
        << ", \"handoff_s\": " << JsonNumber(r.handoff) << ", \"residual_s\": "
        << JsonNumber(r.measured - children[static_cast<size_t>(r.root)]) << "}";
  }
  out << "],\n\"spans\": [";
  const std::vector<SpanRecord>& spans = trace.ledger.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << JsonString(s.name)
        << ", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start\": " << JsonNumber(s.start) << ", \"end\": " << JsonNumber(s.end)
        << "}";
  }
  out << "]}\n";
}

// --------------------------------------------------------------- workloads

struct Result {
  Outcome outcome;
  std::vector<double> setup_samples;
  Slices slices;
  double throughput = 0.0;
  double utility_mean = 0.0;
  Counters counters;  ///< deltas over the timed run
  std::unique_ptr<Trace> trace;
};

/// Fixed window of lookup_hot's timed run; solve_cold and preprocess slice
/// by pass instead.
constexpr double kSliceSeconds = 0.5;

/// Builds the fleet `repeats` times, keeping the last: one sub-second
/// set-up is too noisy alone, so setup_s is the median.
std::unique_ptr<Fleet> SetUpFleet(const std::vector<DatasetSpec>& specs,
                                  const std::vector<vq::Table>& tables,
                                  size_t repeats, Result* result) {
  std::unique_ptr<Fleet> fleet;
  for (size_t i = 0; i < repeats; ++i) {
    fleet.reset();  // the previous fleet's threads and memory go first
    double seconds = 0.0;
    std::string error;
    fleet = BuildFleet(specs, tables, &seconds, &error);
    result->outcome.Check(error, "set-up", "fleet");
    if (fleet == nullptr) return nullptr;
    result->setup_samples.push_back(seconds);
  }
  return fleet;
}

std::vector<vq::Table> MakeTables(const std::vector<DatasetSpec>& specs) {
  std::vector<vq::Table> tables;
  for (const DatasetSpec& spec : specs) {
    tables.push_back(vq::MakeDataset(spec.config.table, spec.rows, kDataSeed).value());
  }
  return tables;
}

std::vector<const Request*> Sample(const std::vector<Request>& requests, size_t n,
                                   vq::Rng* rng) {
  std::vector<const Request*> out;
  std::vector<size_t> order = Permutation(requests.size(), rng);
  for (size_t i = 0; i < n && !order.empty(); ++i) {
    out.push_back(&requests[order[i % order.size()]]);
  }
  return out;
}

/// lookup_hot: the paper's run-time path after pre-processing. Every
/// configured query of the three datasets, as text, against a warm cache.
void RunLookupHot(const Args& args, const Sizes& sizes, Result* result) {
  std::vector<DatasetSpec> specs = FleetSpecs(sizes);
  std::vector<vq::Table> tables = MakeTables(specs);
  std::unique_ptr<Fleet> fleet = SetUpFleet(specs, tables, sizes.fleet_setups, result);
  if (fleet == nullptr) return;
  RoutingService* router = fleet->router.get();
  std::vector<Request> requests = ConfiguredRequests(*fleet->registry, specs);
  for (const Request& request : requests) {
    result->outcome.Check(
        Mismatch(request, router->AnswerNow(request.text), AnswerSource::kStoreExact),
        "warm-up", request.text);
  }
  vq::Rng rng(args.seed);
  std::vector<size_t> order = Permutation(requests.size(), &rng);
  std::vector<char> served(requests.size(), 0);
  LatencyBuffer latency(static_cast<size_t>(kSliceSeconds * 400000.0) + 1024);
  std::vector<std::string> names = Names(specs);
  Counters before = Capture(router, names);
  size_t cursor = 0;
  size_t num_slices = std::max<size_t>(1, std::lround(args.seconds / kSliceSeconds));
  for (size_t slice = 0; slice < num_slices; ++slice) {
    double stop = NowSeconds() + kSliceSeconds;
    double wall = ClosedLoop(
        router, requests,
        [&]() -> int64_t {
          if (NowSeconds() >= stop) return -1;
          return static_cast<int64_t>(order[cursor++ % order.size()]);
        },
        [&](size_t index, const RoutedResponse& routed) {
          served[index] = 1;
          result->outcome.Check(
              Mismatch(requests[index], routed, AnswerSource::kStoreExact), "lookup",
              requests[index].text);
        },
        &latency);
    result->slices.Add(&latency, wall);
  }
  result->counters = Combine(Capture(router, names), before, -1);
  result->throughput = result->slices.PooledThroughput();
  double utility = 0.0;
  size_t distinct = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (served[i] == 0) continue;
    utility += requests[i].utility;
    ++distinct;
  }
  result->utility_mean = Ratio(utility, static_cast<double>(distinct));
  if (!args.trace) return;

  Trace* trace = result->trace.get();
  trace->primary = kServePhase;
  TraceFleetSetup(trace, specs, tables, &result->outcome);
  RoutingService a(fleet->registry.get(), ServingOptions(&fleet->metrics));
  RoutingService b(fleet->registry.get(), ServingOptions(&fleet->metrics));
  ServeTarget target = TargetOf(&a, *fleet->registry);
  b.SyncRegistry();
  ShardedSummaryCache cache(kCacheEntries);
  std::vector<const Request*> all;
  for (const Request& request : requests) all.push_back(&request);
  // Set-up side: warming the cache, every configured query once, cold.
  TraceServing(trace, kSetupPhase, target, &b, all, &cache, false, true,
               &result->outcome);
  // The hot stream: a seeded sample, all cache hits.
  std::vector<const Request*> sample = Sample(requests, sizes.hot_sample, &rng);
  TraceServing(trace, kServePhase, target, &b, sample, &cache, true, false,
               &result->outcome);
}

/// solve_cold: the on-demand path. Each pass sends every on-demand request
/// once, in a seeded order, to a fresh router with an empty cache. The
/// client answers each request with AnswerNow on its own thread (a closed
/// loop, one in flight): the misses of one target are solved one batch at a
/// time anyway, and handing them to pool workers doubled the run-to-run
/// spread (0.115 against 0.054 over six seeds) without adding solver work.
/// The pool handoff is lookup_hot's to measure.
void RunSolveCold(const Args& args, const Sizes& sizes, Result* result) {
  std::vector<DatasetSpec> specs = FleetSpecs(sizes);
  std::vector<vq::Table> tables = MakeTables(specs);
  std::unique_ptr<Fleet> fleet = SetUpFleet(specs, tables, sizes.fleet_setups, result);
  if (fleet == nullptr) return;
  std::vector<Request> requests =
      OnDemandRequests(*fleet->registry->table(specs[0].name), specs[0]);
  {
    // Reference answers: a fresh router, every request once. This untimed
    // pass also warms what the timed passes share: the allocator, the
    // planner's statistics, the tables' pages.
    RoutingService reference(fleet->registry.get(), ServingOptions(&fleet->metrics));
    for (Request& request : requests) {
      RoutedResponse routed = reference.AnswerNow(request.text);
      request.expected = routed.response.text;
      result->outcome.Check(Mismatch(request, routed, AnswerSource::kOnDemand),
                            "reference", request.text);
    }
  }
  vq::serve::RouterOptions options = ServingOptions(&fleet->metrics);
  options.host.record_learned = true;
  std::vector<std::string> names = Names(specs);
  LatencyBuffer latency(requests.size() + 16);
  vq::Rng rng(args.seed);
  double utility = 0.0;
  size_t learned = 0;
  size_t passes = 0;
  double stop = NowSeconds() + args.seconds;
  while (passes == 0 || NowSeconds() < stop) {
    std::vector<size_t> order = Permutation(requests.size(), &rng);
    RoutingService router(fleet->registry.get(), options);
    router.SyncRegistry();
    Counters before = Capture(&router, names);
    double pass_start = NowSeconds();
    for (size_t index : order) {
      double submitted = NowSeconds();
      RoutedResponse routed = router.AnswerNow(requests[index].text);
      latency.Add(NowSeconds() - submitted);
      result->outcome.Check(Mismatch(requests[index], routed, AnswerSource::kOnDemand),
                            "solve", requests[index].text);
    }
    result->slices.Add(&latency, NowSeconds() - pass_start);
    result->counters =
        Combine(result->counters, Combine(Capture(&router, names), before, -1), +1);
    for (const vq::StoredSpeech& stored : router.host(specs[0].name)->TakeLearned()) {
      utility += stored.speech.scaled_utility;
      ++learned;
    }
    ++passes;
  }
  result->outcome.Check(learned == passes * requests.size()
                            ? ""
                            : "learned " + std::to_string(learned) + " speeches",
                        "learned", specs[0].name);
  result->throughput = result->slices.PooledThroughput();
  result->utility_mean = Ratio(utility, static_cast<double>(learned));
  if (!args.trace) return;

  Trace* trace = result->trace.get();
  trace->primary = kServePhase;
  TraceFleetSetup(trace, specs, tables, &result->outcome);
  RoutingService a(fleet->registry.get(), ServingOptions(&fleet->metrics));
  RoutingService b(fleet->registry.get(), ServingOptions(&fleet->metrics));
  ServeTarget target = TargetOf(&a, *fleet->registry);
  b.SyncRegistry();
  ShardedSummaryCache cache(kCacheEntries);
  std::vector<const Request*> sample =
      Sample(requests, std::min(sizes.cold_sample, requests.size()), &rng);
  TraceServing(trace, kServePhase, target, &b, sample, &cache, true, true,
               &result->outcome);
}

/// `base` with its rows in a seeded order: the same data, so the same
/// problems and answers, as a different input.
vq::Table PermutedRows(const vq::Table& base, uint64_t seed) {
  vq::Table out(base.name());
  for (size_t d = 0; d < base.NumDims(); ++d) out.AddDimColumn(base.DimName(d));
  for (size_t t = 0; t < base.NumTargets(); ++t) {
    out.AddTargetColumn(base.TargetName(t), base.TargetUnit(t));
  }
  for (size_t d = 0; d < base.NumDims(); ++d) {
    for (size_t v = 0; v < base.dict(d).size(); ++v) {
      out.mutable_dict(d).Intern(base.dict(d).Lookup(static_cast<vq::ValueId>(v)));
    }
  }
  vq::Rng rng(seed);
  std::vector<size_t> order = Permutation(base.NumRows(), &rng);
  out.ReserveRows(base.NumRows());
  std::vector<vq::ValueId> codes(base.NumDims());
  std::vector<double> targets(base.NumTargets());
  for (size_t row : order) {
    for (size_t d = 0; d < codes.size(); ++d) codes[d] = base.DimCode(row, d);
    for (size_t t = 0; t < targets.size(); ++t) targets[t] = base.TargetValue(row, t);
    out.AppendEncodedRow(codes, targets);
  }
  return out;
}

/// preprocess: the paper's batch step. AddDataset of the Stack Overflow
/// table under the registry's default (sequential) pre-processing, repeated
/// under fresh names; each registration is removed before the next.
void RunPreprocess(const Args& args, const Sizes& sizes, Result* result) {
  DatasetSpec spec;
  spec.name = "stackoverflow";
  spec.config.table = "stackoverflow";
  spec.config.dimensions = {"region",   "dev_type", "education",   "employment",
                            "org_size", "gender",   "years_coding"};
  spec.config.targets = {"competence", "optimism"};
  spec.config.max_query_predicates = sizes.stackoverflow_predicates;
  vq::Table table = PermutedRows(
      vq::MakeStackOverflowTable(sizes.stackoverflow_rows, kDataSeed), args.seed);
  size_t problems =
      vq::ProblemGenerator::Create(&table, spec.config).value().GenerateQueries().size();
  result->outcome.Check(problems == sizes.expected_problems
                            ? ""
                            : std::to_string(problems) + " problems",
                        "problem count", spec.name);

  vq::obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptionsFor(&metrics));
  vq::SummarizerOptions options = SolveOptions(spec.config);
  std::vector<vq::VoiceQuery> queries =
      vq::ProblemGenerator::Create(&table, spec.config).value().GenerateQueries();
  LatencyBuffer latency(queries.size() + 16);
  Counters before = Capture(nullptr, {});
  std::string last;
  double first_sum = 0.0;
  double stop = NowSeconds() + args.seconds;
  // Each repetition: one timed AddDataset, then one latency pass that solves
  // every problem again, timed by the client around the pre-processor's
  // per-problem calls (Prepare, Run, RenderSpeech) and checked against the
  // store. Interleaving the two keeps a slow stretch of the host from
  // landing on only one of them.
  for (size_t rep = 0; rep < sizes.min_preprocess_reps || NowSeconds() < stop; ++rep) {
    if (!last.empty()) (void)registry.RemoveDataset(last);
    std::string name = spec.name + "_" + std::to_string(rep);
    vq::Table copy(table);
    double start = NowSeconds();
    vq::Status status = registry.AddDataset(name, std::move(copy), spec.config);
    double seconds = NowSeconds() - start;
    result->outcome.Check(status.ok() ? "" : status.ToString(), "AddDataset", name);
    if (!status.ok()) return;
    last = name;
    result->setup_samples.push_back(seconds);
    const vq::Table& registered = *registry.table(name);
    const vq::SpeechStore& store = registry.engine(name)->store();
    double sum = 0.0;
    for (const vq::StoredSpeech& speech : store.speeches()) {
      sum += speech.speech.scaled_utility;
    }
    std::string mismatch;
    if (store.size() != problems) {
      mismatch = "store holds " + std::to_string(store.size()) + " speeches";
    } else if (rep > 0 && std::memcmp(&sum, &first_sum, sizeof(sum)) != 0) {
      mismatch = "utility changed between repetitions";
    }
    if (rep == 0) first_sum = sum;
    result->outcome.Check(mismatch, "store", name);

    double pass_start = NowSeconds();
    for (const vq::VoiceQuery& query : queries) {
      double solve_start = NowSeconds();
      std::string text;
      auto prepared = vq::PreparedProblem::Prepare(registered, query.predicates,
                                                   query.target_index, options);
      if (prepared.ok()) {
        vq::SummaryResult solved = prepared.value().Run(options);
        text = vq::RenderSpeech(registered, prepared.value().instance(),
                                prepared.value().catalog(), solved, query.predicates)
                   .text;
      }
      latency.Add(NowSeconds() - solve_start);
      const vq::StoredSpeech* speech = store.FindExact(query);
      result->outcome.Check(speech != nullptr && speech->speech.text == text
                                ? ""
                                : "re-solved speech differs from the stored one",
                            "problem", query.Key());
    }
    result->slices.Add(&latency, NowSeconds() - pass_start);
  }
  result->counters = Combine(Capture(nullptr, {}), before, -1);
  const std::vector<double>& adds = result->setup_samples;
  result->throughput = Ratio(static_cast<double>(problems * adds.size()),
                             std::accumulate(adds.begin(), adds.end(), 0.0));
  result->utility_mean = Ratio(first_sum, static_cast<double>(problems));
  (void)registry.RemoveDataset(last);
  if (!args.trace) return;

  Trace* trace = result->trace.get();
  trace->primary = kSetupPhase;
  vq::obs::MetricsRegistry trace_metrics;
  DatasetRegistry trace_registry(RegistryOptionsFor(&trace_metrics));
  TraceAdd(trace, &trace_registry, spec.name, table, spec.config, kSetupPhase,
           &result->outcome);
  // Routable probe: a sample of the configured queries through routers on
  // the freshly added dataset (cold: store lookups and cache writes).
  RoutingService a(&trace_registry, ServingOptions(&trace_metrics));
  RoutingService b(&trace_registry, ServingOptions(&trace_metrics));
  ServeTarget target = TargetOf(&a, trace_registry);
  b.SyncRegistry();
  ShardedSummaryCache cache(kCacheEntries);
  std::vector<Request> requests = ConfiguredRequests(trace_registry, {spec});
  vq::Rng rng(args.seed);
  std::vector<const Request*> sample =
      Sample(requests, std::min(sizes.probe_sample, requests.size()), &rng);
  TraceServing(trace, kServePhase, target, &b, sample, &cache, false, true,
               &result->outcome);
}

// -------------------------------------------------------------------- main

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vqbench --workload lookup_hot|solve_cold|preprocess "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR]\n");
    return 2;
  }
  Sizes sizes = SizesFor(args.tiny);
  std::string machine = MachineStamp();
  std::printf("machine %s\n", machine.c_str());
  std::fflush(stdout);
  double calibration_before = CalibrationSeconds();

  Result result;
  if (args.trace) result.trace = std::make_unique<Trace>();
  if (args.workload == "lookup_hot") {
    RunLookupHot(args, sizes, &result);
  } else if (args.workload == "solve_cold") {
    RunSolveCold(args, sizes, &result);
  } else {
    RunPreprocess(args, sizes, &result);
  }

  double calibration_after = CalibrationSeconds();
  double peak_rss = PeakRssMiB();
  const Outcome& outcome = result.outcome;
  bool correct = outcome.failed == 0 && outcome.attempted > 0;
  double error_rate = Ratio(static_cast<double>(outcome.failed),
                            static_cast<double>(outcome.attempted));
  std::vector<double> q = result.slices.MeanPercentilesMs();
  double setup_s = Median(result.setup_samples);

  std::string summary =
      "\"workload\": " + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + JsonNumber(args.seconds) + ", \"machine\": " + machine +
      ", \"calibration_before_s\": " + JsonNumber(calibration_before) +
      ", \"calibration_after_s\": " + JsonNumber(calibration_after) +
      ", \"error_rate\": " + JsonNumber(error_rate) +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) +
      ", \"setups\": " + std::to_string(result.setup_samples.size()) +
      ", \"setup_s\": " + JsonNumber(setup_s) +
      ", \"setup_samples\": " + JsonArray(result.setup_samples) +
      ", \"throughput\": " + JsonNumber(result.throughput) +
      ", \"slice_throughput\": " + JsonArray(result.slices.throughput) +
      ", \"latency_samples\": " + std::to_string(result.slices.samples) +
      ", \"p50_ms\": " + JsonNumber(q[0]) + ", \"p90_ms\": " + JsonNumber(q[1]) +
      ", \"p99_ms\": " + JsonNumber(q[2]) + ", \"p99.9_ms\": " + JsonNumber(q[3]) +
      ", \"utility_mean\": " + JsonNumber(result.utility_mean) +
      ", \"peak_rss_mb\": " + JsonNumber(peak_rss) +
      ", \"residual_bound\": " + JsonNumber(kResidualBound) +
      ", \"counters\": " + CountersJson(result.counters);
  std::printf("summary {%s}\n", summary.c_str());

  std::vector<Metric> metrics;
  if (result.trace != nullptr) {
    LedgerSummary ledger = Summarize(*result.trace);
    metrics = LayerMetrics(*result.trace, ledger, result.counters);
    std::filesystem::create_directories(args.out_dir);
    std::string path = args.out_dir + "/ledger_" + args.workload + "_" +
                       std::to_string(args.seed) + ".json";
    WriteLedger(path, summary, *result.trace, ledger);
    for (const Metric& m : metrics) {
      std::printf("layer %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("ledger written to %s\n", path.c_str());
  } else {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput", result.throughput, "1/s"},
        {"latency_p50_ms", q[0], "ms"},
        {"latency_p90_ms", q[1], "ms"},
        {"utility_mean", result.utility_mean, "ratio"},
        {"peak_rss_mb", peak_rss, "MiB"},
    };
    for (const Metric& m : metrics) {
      std::printf("metric %-16s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("metric %-16s %14.6g ratio (%zu of %zu failed)\n", "error_rate",
                error_rate, outcome.failed, outcome.attempted);
  }

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) +
            "}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vqbench

int main(int argc, char** argv) { return vqbench::Main(argc, argv); }
