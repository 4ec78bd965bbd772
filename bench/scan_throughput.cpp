// Indexed-scan subsystem throughput: (1) filter latency of FilterRows (a
// walk of the rarest posting list) versus the seed row-at-a-time full scan,
// over predicate sets of varying selectivity, each the median of nine
// interleaved rounds; (2) evaluator speech evaluations/sec, bitset-vectorized versus the
// retained row-at-a-time reference; (3) end-to-end routed qps at 4 threads on
// the BENCH_router warm workload shape, compared against the qps recorded in
// BENCH_router.json.
// The check_scan_regression cmake target gates the within-run filter
// speedups over the seed scan.
//
// Emits a machine-readable JSON report (default BENCH_scan.json, override
// with VQ_BENCH_OUT). Exits non-zero if the selective-filter speedup falls
// under 5x or the routed qps regresses by more than 15%.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/summarizer.h"
#include "relational/predicate.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

/// The seed implementation of FilterRows: one RowMatches call per row.
std::vector<uint32_t> SeedFilterRows(const vq::Table& table,
                                     const vq::PredicateSet& predicates) {
  std::vector<uint32_t> out;
  size_t n = table.NumRows();
  for (size_t r = 0; r < n; ++r) {
    if (vq::RowMatches(table, r, predicates)) out.push_back(static_cast<uint32_t>(r));
  }
  return out;
}

/// Microseconds per call of `fn`, repeated until ~20ms of work (min 16).
template <typename Fn>
double MicrosPerCall(Fn&& fn, size_t min_reps = 16) {
  vq::Stopwatch watch;
  size_t reps = 0;
  do {
    for (size_t i = 0; i < min_reps; ++i) fn();
    reps += min_reps;
  } while (watch.ElapsedSeconds() < 0.02);
  return watch.ElapsedSeconds() * 1e6 / static_cast<double>(reps);
}

/// Rounds of filter timings; each case and path reports its median. One
/// ~20 ms timing swings with the host's slow and fast phases, which made the
/// check_scan_regression gate compare one run's phase against another's.
constexpr size_t kFilterRepetitions = 9;

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

struct FilterCase {
  std::string label;
  vq::PredicateSet predicates;
};

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

}  // namespace

int main() {
  const uint64_t kSeed = 20210318;
  vq::bench::PrintHeader("Indexed scan subsystem", "storage/relational/core refactor",
                         kSeed);

  // ---- Filter latency: flights at 4x bench scale so scans have real work.
  size_t rows = 4 * vq::bench::BenchRows("flights");
  vq::Table table = vq::MakeFlightsTable(rows, kSeed);
  (void)table.index();  // build once up front; amortized in serving

  auto pred = [&](const std::string& dim, vq::ValueId value) {
    return vq::EqPredicate{table.DimIndex(dim), value};
  };
  std::vector<FilterCase> cases;
  cases.push_back({"origin_state", {pred("origin_state", 3)}});
  cases.push_back({"origin_state+month",
                   {pred("origin_state", 3), pred("month", 1)}});
  cases.push_back({"airline+season+time",
                   {pred("airline", 0), pred("season", 0), pred("time_of_day", 0)}});
  cases.push_back({"season (hot)", {pred("season", 0)}});
  for (auto& filter_case : cases) {
    if (!vq::NormalizePredicates(&filter_case.predicates).ok()) return 1;
  }

  vq::TablePrinter filter_printer(
      {"Predicates", "Rows out", "Seed (us)", "Indexed (us)", "Speedup"});
  vq::Json filter_json = vq::Json::Array();
  double selective_speedup = 0.0;
  for (const FilterCase& filter_case : cases) {
    if (vq::FilterRows(table, filter_case.predicates) !=
        SeedFilterRows(table, filter_case.predicates)) {
      std::fprintf(stderr, "FATAL: FilterRows result differs on %s\n",
                   filter_case.label.c_str());
      return 1;
    }
  }
  // Each round times every case's two paths once, so a slow host phase
  // lands in a few rounds of every path, not in all timings of one.
  struct CaseTimings {
    std::vector<double> seed_us, indexed_us;
  };
  std::vector<CaseTimings> timings(cases.size());
  for (size_t round = 0; round < kFilterRepetitions; ++round) {
    for (size_t c = 0; c < cases.size(); ++c) {
      const vq::PredicateSet& predicates = cases[c].predicates;
      timings[c].seed_us.push_back(
          MicrosPerCall([&] { (void)SeedFilterRows(table, predicates); }));
      timings[c].indexed_us.push_back(
          MicrosPerCall([&] { (void)vq::FilterRows(table, predicates); }));
    }
  }
  for (size_t c = 0; c < cases.size(); ++c) {
    const FilterCase& filter_case = cases[c];
    const vq::PredicateSet& predicates = filter_case.predicates;
    size_t rows_out = SeedFilterRows(table, predicates).size();
    double seed_us = Median(timings[c].seed_us);
    double indexed_us = Median(timings[c].indexed_us);
    double speedup = seed_us / indexed_us;
    if (filter_case.label == "origin_state+month") selective_speedup = speedup;
    char seed_buf[32], indexed_buf[32], speedup_buf[32];
    std::snprintf(seed_buf, sizeof(seed_buf), "%.1f", seed_us);
    std::snprintf(indexed_buf, sizeof(indexed_buf), "%.1f", indexed_us);
    std::snprintf(speedup_buf, sizeof(speedup_buf), "%.1fx", speedup);
    filter_printer.AddRow({filter_case.label, std::to_string(rows_out), seed_buf,
                           indexed_buf, speedup_buf});
    vq::Json entry = vq::Json::Object();
    entry.Set("predicates", vq::Json::Str(filter_case.label));
    entry.Set("rows_out", vq::Json::Int(static_cast<int64_t>(rows_out)));
    entry.Set("seed_us", vq::Json::Number(seed_us));
    entry.Set("indexed_us", vq::Json::Number(indexed_us));
    entry.Set("speedup_vs_seed", vq::Json::Number(speedup));
    filter_json.Append(std::move(entry));
  }
  std::printf("Filter latency over %zu rows (index build counted once; median of "
              "%zu rounds):\n",
              table.NumRows(), kFilterRepetitions);
  filter_printer.Print();

  // ---- Evaluator: bitset-vectorized speech evaluation vs the reference.
  vq::SummarizerOptions options;
  options.max_fact_dims = 2;
  auto prepared = vq::PreparedProblem::Prepare(
      table, {pred("season", 0)}, table.TargetIndex("cancelled"), options);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const vq::Evaluator& evaluator = prepared.value().evaluator();
  const vq::FactCatalog& catalog = prepared.value().catalog();
  vq::Rng rng(kSeed);
  std::vector<std::vector<vq::FactId>> speeches(256);
  for (auto& speech : speeches) {
    size_t len = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < len; ++i) {
      speech.push_back(static_cast<vq::FactId>(rng.NextBelow(catalog.NumFacts())));
    }
  }
  // The reference paths read the catalog's scope join, which the first
  // read builds (FactCatalog::RowFacts); build it before timing, as Prepare
  // used to, so the timings below stay per-call evaluation only.
  (void)catalog.RowFacts(0);
  size_t cursor = 0;
  double reference_us = MicrosPerCall([&] {
    (void)evaluator.ErrorReference(speeches[cursor++ & 255]);
  });
  cursor = 0;
  double vectorized_us = MicrosPerCall([&] {
    (void)evaluator.Error(speeches[cursor++ & 255]);
  });
  double join_reference_us =
      MicrosPerCall([&] { (void)evaluator.SingleFactUtilitiesReference(); }, 4);
  double join_vectorized_us =
      MicrosPerCall([&] { (void)evaluator.SingleFactUtilities(); }, 4);
  std::printf(
      "Evaluator (%zu merged rows, %zu facts): %.0f -> %.0f speeches/sec "
      "(%.1fx); init join %.0f -> %.0f joins/sec (%.1fx)\n",
      evaluator.instance().num_rows, catalog.NumFacts(), 1e6 / reference_us,
      1e6 / vectorized_us, reference_us / vectorized_us, 1e6 / join_reference_us,
      1e6 / join_vectorized_us, join_reference_us / join_vectorized_us);

  // ---- End-to-end routed qps (BENCH_router warm shape, 4 threads).
  vq::serve::DatasetRegistry registry;
  vq::Configuration config;
  config.table = "flights";
  config.dimensions = {"airline", "season", "dest_region"};
  config.targets = {"cancelled"};
  config.max_query_predicates = 2;
  if (!registry
           .RegisterGenerated("flights", config, vq::bench::BenchRows("flights"),
                              kSeed)
           .ok()) {
    return 1;
  }
  auto generator =
      vq::ProblemGenerator::Create(registry.table("flights"), config).value();
  auto queries = vq::bench::StratifiedSampleQueries(generator, 24, kSeed);
  std::vector<std::string> workload;
  for (const auto& query : queries) {
    workload.push_back(RequestText(*registry.table("flights"), query));
  }
  const size_t kTotalRequests = 2000;
  vq::serve::RouterOptions router_options;
  router_options.num_threads = 4;
  router_options.host.simulated_vocalize_seconds = 1e-3;
  vq::serve::RoutingService router(&registry, router_options);
  for (const auto& request : workload) (void)router.AnswerNow(request);
  std::vector<std::future<vq::serve::RoutedResponse>> futures;
  futures.reserve(kTotalRequests);
  vq::Stopwatch router_watch;
  for (size_t i = 0; i < kTotalRequests; ++i) {
    futures.push_back(router.Submit(workload[i % workload.size()]));
  }
  for (auto& future : futures) (void)future.get();
  double router_qps = static_cast<double>(kTotalRequests) / router_watch.ElapsedSeconds();

  // Baseline qps from the checked-in router report (threads == 4 entry).
  double baseline_qps = 0.0;
  {
    std::ifstream in("BENCH_router.json");
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      auto parsed = vq::Json::Parse(buffer.str());
      if (parsed.ok()) {
        const vq::Json* warm = parsed.value().Get("routed_warm");
        if (warm != nullptr && warm->is_array()) {
          for (size_t i = 0; i < warm->Size(); ++i) {
            const vq::Json* threads = warm->At(i).Get("threads");
            const vq::Json* qps = warm->At(i).Get("qps");
            if (threads != nullptr && qps != nullptr && threads->AsInt() == 4) {
              baseline_qps = qps->AsDouble();
            }
          }
        }
      }
    }
  }
  double qps_delta_pct =
      baseline_qps > 0.0 ? (router_qps - baseline_qps) / baseline_qps * 100.0 : 0.0;
  std::printf("Routed qps at 4 threads: %.0f (BENCH_router.json baseline %.0f, "
              "delta %+.1f%%)\n",
              router_qps, baseline_qps, qps_delta_pct);

  // ---- Machine-readable report.
  vq::Json report = vq::Json::Object();
  report.Set("bench", vq::Json::Str("scan_throughput"));
  report.Set("seed", vq::Json::Int(static_cast<int64_t>(kSeed)));
  report.Set("table_rows", vq::Json::Int(static_cast<int64_t>(table.NumRows())));
  report.Set("filter_repetitions",
             vq::Json::Int(static_cast<int64_t>(kFilterRepetitions)));
  report.Set("hardware_threads",
             vq::Json::Int(static_cast<int64_t>(std::thread::hardware_concurrency())));
  report.Set("filters", std::move(filter_json));
  vq::Json eval = vq::Json::Object();
  eval.Set("instance_rows",
           vq::Json::Int(static_cast<int64_t>(evaluator.instance().num_rows)));
  eval.Set("num_facts", vq::Json::Int(static_cast<int64_t>(catalog.NumFacts())));
  eval.Set("reference_speeches_per_sec", vq::Json::Number(1e6 / reference_us));
  eval.Set("vectorized_speeches_per_sec", vq::Json::Number(1e6 / vectorized_us));
  eval.Set("speech_speedup", vq::Json::Number(reference_us / vectorized_us));
  eval.Set("reference_joins_per_sec", vq::Json::Number(1e6 / join_reference_us));
  eval.Set("vectorized_joins_per_sec", vq::Json::Number(1e6 / join_vectorized_us));
  eval.Set("join_speedup", vq::Json::Number(join_reference_us / join_vectorized_us));
  report.Set("evaluator", std::move(eval));
  vq::Json routed = vq::Json::Object();
  routed.Set("threads", vq::Json::Int(4));
  routed.Set("requests", vq::Json::Int(static_cast<int64_t>(kTotalRequests)));
  routed.Set("qps", vq::Json::Number(router_qps));
  routed.Set("baseline_qps", vq::Json::Number(baseline_qps));
  routed.Set("qps_delta_pct", vq::Json::Number(qps_delta_pct));
  report.Set("routed", std::move(routed));
  bool ok = selective_speedup >= 5.0 &&
            (baseline_qps == 0.0 || qps_delta_pct > -15.0);
  report.Set("ok", vq::Json::Bool(ok));

  const char* out_env = std::getenv("VQ_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_scan.json";
  std::ofstream out(out_path);
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("Report written to %s [%s]\n", out_path.c_str(), ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
