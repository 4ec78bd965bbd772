// SIMD kernel layer micro-bench + end-to-end deltas.
//
// (1) Per-kernel ns per 64-row block, forced-scalar table vs the
// runtime-dispatched table, over arrays shaped like the real evaluator
// inputs (the flights instance the scan bench uses: ~12k merged rows, ~1.6k
// facts, CSR scope segments of realistic lengths); (2) end-to-end greedy
// solve time under both tables, with selected facts and PerfCounters
// verified identical (the counters serialize through
// PerfCounters::ForEachField -- the shared serialization contract); (3)
// routed qps at 4 threads against the BENCH_router.json baseline, proving
// the kernel layer does not regress the serving fleet.
//
// Emits BENCH_simd.json (override with VQ_BENCH_OUT). Exits non-zero when the
// avx2 table is dispatched but the weighted-deviation kernel falls under 2x
// or greedy does not improve, or a vector table is dispatched and routed
// qps regresses by more than 15%. On machines whose dispatch
// resolves to scalar (no AVX2/NEON, or VQ_FORCE_SCALAR) the speedup gates
// are skipped: there is nothing to compare.
//
// bench/check_bench_regression.py (cmake target check_simd_regression)
// diffs the end_to_end numbers of a rerun against the checked-in baseline.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/summarizer.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

/// Microseconds per call of `fn`: min of 3 repetitions of a ~20ms budget
/// (min-of-reps shields the table from scheduler noise on shared hosts).
template <typename Fn>
double MicrosPerCall(Fn&& fn, size_t min_reps = 16) {
  double best = 1e100;
  for (int repeat = 0; repeat < 3; ++repeat) {
    vq::Stopwatch watch;
    size_t reps = 0;
    do {
      for (size_t i = 0; i < min_reps; ++i) fn();
      reps += min_reps;
    } while (watch.ElapsedSeconds() < 0.02);
    best = std::min(best, watch.ElapsedSeconds() * 1e6 / static_cast<double>(reps));
  }
  return best;
}

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

/// One benched kernel: per-call lambdas bound to a kernel table.
struct KernelResult {
  std::string name;
  double scalar_ns_per_block = 0.0;
  double dispatched_ns_per_block = 0.0;
  double speedup = 0.0;
};

/// Defeats dead-code elimination of benched kernel results.
volatile double g_sink = 0.0;
void Sink(double value) { g_sink = g_sink + value; }

}  // namespace

int main() {
  const uint64_t kSeed = 20210318;
  vq::bench::PrintHeader("SIMD kernel layer", "util/simd runtime dispatch", kSeed);
  const vq::simd::Kernels& scalar = vq::simd::Scalar();
  const vq::simd::Kernels& dispatched = vq::simd::Active();
  bool vector_dispatch = std::strcmp(dispatched.name, "scalar") != 0;
  std::printf("Dispatch: %s (forced scalar: %s)\n", dispatched.name,
              vq::simd::ForcedScalar() ? "yes" : "no");

  // ---- Problem shape: the scan bench's flights instance (~12k merged rows).
  size_t rows = 4 * vq::bench::BenchRows("flights");
  vq::Table table = vq::MakeFlightsTable(rows, kSeed);
  vq::SummarizerOptions options;
  options.max_fact_dims = 2;
  auto pred = [&](const std::string& dim, vq::ValueId value) {
    return vq::EqPredicate{table.DimIndex(dim), value};
  };
  auto prepared = vq::PreparedProblem::Prepare(
      table, {pred("season", 0)}, table.TargetIndex("cancelled"), options);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const vq::Evaluator& evaluator = prepared.value().evaluator();
  const vq::FactCatalog& catalog = prepared.value().catalog();
  const vq::SummaryInstance& instance = prepared.value().instance();
  size_t n = instance.num_rows;
  size_t words = catalog.ScopeWords();
  double blocks = static_cast<double>(words);
  std::printf("Instance: %zu merged rows (%zu blocks), %zu facts, %zu groups\n",
              n, words, catalog.NumFacts(), catalog.NumGroups());

  // The largest fact group: its CSR segments are the real gain-loop shape.
  uint32_t big_group = 0;
  for (uint32_t g = 0; g < catalog.NumGroups(); ++g) {
    if (catalog.group(g).num_facts > catalog.group(big_group).num_facts) big_group = g;
  }
  const vq::FactGroup& group = catalog.group(big_group);

  // Three speech scope bitsets for the cover-mask kernels.
  vq::Rng rng(kSeed);
  std::vector<const uint64_t*> speech_bits;
  for (int i = 0; i < 3; ++i) {
    speech_bits.push_back(
        catalog.ScopeBits(static_cast<vq::FactId>(rng.NextBelow(catalog.NumFacts())))
            .data());
  }
  std::vector<uint64_t> covered(words);
  (void)scalar.or_popcount(speech_bits.data(), speech_bits.size(), words,
                           covered.data());

  std::span<const double> prior_dev = evaluator.PriorDeviations();
  const std::vector<double>& weights = instance.weight;
  const std::vector<double>& targets = instance.target;
  const double* target_weight = evaluator.RowTargetWeights().data();

  // Mutable deviation column for min_update, pre-settled so both tables
  // measure the same steady state (first application lowers rows; settled
  // calls compare-without-store, identical work for scalar and vector).
  std::vector<double> settled(prior_dev.begin(), prior_dev.end());
  for (uint32_t i = 0; i < group.num_facts; ++i) {
    vq::FactId id = group.first_fact + i;
    auto scope = catalog.ScopeRows(id);
    (void)scalar.min_update(settled.data(), scope.data(), target_weight,
                            catalog.fact(id).value, scope.size());
  }
  std::vector<double> utilities = evaluator.SingleFactUtilities();

  // ---- Per-kernel measurements (full instance pass per call, ns/block).
  auto bench_kernel = [&](const std::string& name, auto&& call) {
    KernelResult result;
    result.name = name;
    result.scalar_ns_per_block = MicrosPerCall([&] { call(scalar); }) * 1e3 / blocks;
    result.dispatched_ns_per_block =
        MicrosPerCall([&] { call(dispatched); }) * 1e3 / blocks;
    result.speedup = result.scalar_ns_per_block / result.dispatched_ns_per_block;
    return result;
  };

  std::vector<KernelResult> kernels;
  kernels.push_back(bench_kernel("or_popcount", [&](const vq::simd::Kernels& k) {
    Sink(static_cast<double>(k.or_popcount(speech_bits.data(), speech_bits.size(),
                                           words, covered.data())));
  }));
  kernels.push_back(bench_kernel("masked_sum64", [&](const vq::simd::Kernels& k) {
    // The Error() inner loop shape: one masked block sum per cover word.
    double sum = 0.0;
    const double* padded = prior_dev.data();  // full blocks only below
    for (size_t w = 0; w + 1 < words; ++w) {
      sum += k.masked_sum64(padded + (w << 6), ~covered[w]);
    }
    Sink(sum);
  }));
  kernels.push_back(
      bench_kernel("weighted_abs_dev", [&](const vq::simd::Kernels& k) {
        Sink(k.weighted_abs_dev(instance.prior, targets.data(), weights.data(), n));
      }));
  kernels.push_back(
      bench_kernel("gather_weighted_sum", [&](const vq::simd::Kernels& k) {
        // GroupUtilityBound shape: one gathered sum per fact of the group.
        double bound = 0.0;
        for (uint32_t i = 0; i < group.num_facts; ++i) {
          vq::FactId id = group.first_fact + i;
          auto scope = catalog.ScopeRows(id);
          bound = std::max(bound, k.gather_weighted_sum(prior_dev.data(), scope.data(),
                                                        target_weight, scope.size()));
        }
        Sink(bound);
      }));
  kernels.push_back(
      bench_kernel("gather_positive_gain", [&](const vq::simd::Kernels& k) {
        // Greedy gain-loop shape: the largest group's segments, gathering
        // the (mutable) deviation column.
        double total = 0.0;
        for (uint32_t i = 0; i < group.num_facts; ++i) {
          vq::FactId id = group.first_fact + i;
          auto scope = catalog.ScopeRows(id);
          total += k.gather_positive_gain(prior_dev.data(), scope.data(), target_weight,
                                          catalog.fact(id).value, scope.size());
        }
        Sink(total);
      }));
  kernels.push_back(bench_kernel("min_update", [&](const vq::simd::Kernels& k) {
    double reduction = 0.0;
    for (uint32_t i = 0; i < group.num_facts; ++i) {
      vq::FactId id = group.first_fact + i;
      auto scope = catalog.ScopeRows(id);
      reduction += k.min_update(settled.data(), scope.data(), target_weight,
                                catalog.fact(id).value, scope.size());
    }
    Sink(reduction);
  }));
  kernels.push_back(bench_kernel("argmax", [&](const vq::simd::Kernels& k) {
    Sink(static_cast<double>(k.argmax(utilities.data(), utilities.size())));
  }));

  vq::TablePrinter kernel_printer(
      {"Kernel", "Scalar (ns/block)", "Dispatched (ns/block)", "Speedup"});
  for (const KernelResult& result : kernels) {
    char scalar_buf[32], dispatched_buf[32], speedup_buf[32];
    std::snprintf(scalar_buf, sizeof(scalar_buf), "%.1f", result.scalar_ns_per_block);
    std::snprintf(dispatched_buf, sizeof(dispatched_buf), "%.1f",
                  result.dispatched_ns_per_block);
    std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx", result.speedup);
    kernel_printer.AddRow({result.name, scalar_buf, dispatched_buf, speedup_buf});
  }
  kernel_printer.Print();

  auto kernel_speedup = [&](const char* name) {
    for (const KernelResult& result : kernels) {
      if (result.name == name) return result.speedup;
    }
    return 0.0;
  };

  // ---- End-to-end greedy solve, scalar vs dispatched tables.
  vq::GreedyOptions greedy_options;
  greedy_options.pruning = vq::FactPruning::kOptimized;
  vq::simd::SetActiveForTesting(&scalar);
  vq::SummaryResult scalar_result = GreedySummary(evaluator, greedy_options);
  double greedy_scalar_us =
      MicrosPerCall([&] { (void)GreedySummary(evaluator, greedy_options); }, 4);
  vq::simd::SetActiveForTesting(&dispatched);
  vq::SummaryResult dispatched_result = GreedySummary(evaluator, greedy_options);
  double greedy_dispatched_us =
      MicrosPerCall([&] { (void)GreedySummary(evaluator, greedy_options); }, 4);
  vq::simd::SetActiveForTesting(nullptr);
  bool greedy_equivalent = scalar_result.facts == dispatched_result.facts;
  scalar_result.counters.ForEachField([&](const char* name, uint64_t value) {
    dispatched_result.counters.ForEachField(
        [&](const char* other_name, uint64_t other_value) {
          if (std::strcmp(name, other_name) == 0 && value != other_value) {
            greedy_equivalent = false;
          }
        });
  });
  double greedy_speedup = greedy_scalar_us / greedy_dispatched_us;
  std::printf(
      "Greedy solve (G-O): scalar %.0f us -> dispatched %.0f us (%.2fx), "
      "facts+counters %s\n",
      greedy_scalar_us, greedy_dispatched_us, greedy_speedup,
      greedy_equivalent ? "identical" : "DIVERGED");

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
  double router_qps =
      static_cast<double>(kTotalRequests) / router_watch.ElapsedSeconds();

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

  // ---- Acceptance gates. The >=2x bars are an AVX2 promise (4-lane f64);
  // 2-lane NEON tops out near 2x on memory-bound reductions, so on other
  // vector dispatches only the equivalence and qps invariants gate.
  bool avx2_dispatch = std::strcmp(dispatched.name, "avx2") == 0;
  bool ok = greedy_equivalent;
  if (vector_dispatch) {
    ok = ok && (baseline_qps == 0.0 || qps_delta_pct > -15.0);
  }
  if (avx2_dispatch) {
    // The weighted-deviation kernel carries the acceptance bar; greedy
    // must improve end to end.
    ok = ok && kernel_speedup("weighted_abs_dev") >= 2.0 && greedy_speedup > 1.0;
  }

  // ---- Machine-readable report.
  vq::Json report = vq::Json::Object();
  report.Set("bench", vq::Json::Str("simd_kernels"));
  report.Set("seed", vq::Json::Int(static_cast<int64_t>(kSeed)));
  report.Set("dispatch", vq::Json::Str(dispatched.name));
  report.Set("forced_scalar", vq::Json::Bool(vq::simd::ForcedScalar()));
  report.Set("instance_rows", vq::Json::Int(static_cast<int64_t>(n)));
  report.Set("num_facts", vq::Json::Int(static_cast<int64_t>(catalog.NumFacts())));
  vq::Json kernel_json = vq::Json::Array();
  for (const KernelResult& result : kernels) {
    vq::Json entry = vq::Json::Object();
    entry.Set("kernel", vq::Json::Str(result.name));
    entry.Set("scalar_ns_per_block", vq::Json::Number(result.scalar_ns_per_block));
    entry.Set("dispatched_ns_per_block",
              vq::Json::Number(result.dispatched_ns_per_block));
    entry.Set("speedup", vq::Json::Number(result.speedup));
    kernel_json.Append(std::move(entry));
  }
  report.Set("kernels", std::move(kernel_json));
  vq::Json end_to_end = vq::Json::Object();
  end_to_end.Set("greedy_scalar_us", vq::Json::Number(greedy_scalar_us));
  end_to_end.Set("greedy_dispatched_us", vq::Json::Number(greedy_dispatched_us));
  end_to_end.Set("greedy_speedup", vq::Json::Number(greedy_speedup));
  end_to_end.Set("greedy_equivalent", vq::Json::Bool(greedy_equivalent));
  end_to_end.Set("routed_qps", vq::Json::Number(router_qps));
  end_to_end.Set("routed_baseline_qps", vq::Json::Number(baseline_qps));
  end_to_end.Set("routed_qps_delta_pct", vq::Json::Number(qps_delta_pct));
  report.Set("end_to_end", std::move(end_to_end));
  // The solve counters, serialized through the one field-list contract.
  vq::Json counters_json = vq::Json::Object();
  dispatched_result.counters.ForEachField([&](const char* name, uint64_t value) {
    counters_json.Set(name, vq::Json::Int(static_cast<int64_t>(value)));
  });
  report.Set("greedy_counters", std::move(counters_json));
  report.Set("ok", vq::Json::Bool(ok));

  const char* out_env = std::getenv("VQ_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_simd.json";
  std::ofstream out(out_path);
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("Report written to %s [%s]\n", out_path.c_str(), ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
