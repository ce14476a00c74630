// The backchase lattice sweep on its own: the serial sweep of Example 4.1's
// Q1 widened by 6 u-atoms under set and bag semantics (the baseline
// any sweep change is measured against), a memoization ablation comparing a
// lattice full of isomorphic subqueries with one where every subquery is
// distinct, and the telemetry overhead ablation.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"
#include "reformulation/candb.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

using bench::Example41Schema;
using bench::Example41Sigma;
using bench::Must;
using bench::WidenedQ1;

/// The serial sweep: range(0) = extra u-joins, range(1) = semantics
/// (0 = set, 1 = bag).
void BM_Backchase_Serial(benchmark::State& state) {
  ConjunctiveQuery q = WidenedQ1(static_cast<int>(state.range(0)));
  Semantics semantics = state.range(1) == 0 ? Semantics::kSet : Semantics::kBag;
  Schema schema = Example41Schema();
  DependencySet sigma = Example41Sigma();
  size_t candidates = 0, hits = 0, misses = 0, outputs = 0;
  for (auto _ : state) {
    CandBResult result = Must(ChaseAndBackchase(q, sigma, semantics, schema));
    candidates = result.candidates_examined;
    hits = result.chase_cache_hits;
    misses = result.chase_cache_misses;
    outputs = result.reformulations.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.counters["cache_misses"] = static_cast<double>(misses);
  state.counters["outputs"] = static_cast<double>(outputs);
}
// At 2 and 4 u-joins the same calls are BM_CandB_Set/{2,4} and
// BM_CandB_Bag/{2,4} (bench_candb).
SQLEQ_BENCHMARK(BM_Backchase_Serial)
    ->ArgsProduct({{6}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// Memoization ablation: `symmetric` queries (n isomorphic self-join atoms)
/// vs `distinct` queries (n different relations). The candidate counts
/// match; only the hit ratio differs.
void RunMemoAblation(benchmark::State& state, bool symmetric) {
  int n = static_cast<int>(state.range(0));
  std::string text = "Q(X) :- ";
  for (int i = 0; i < n; ++i) {
    if (i > 0) text += ", ";
    std::string rel = symmetric ? "p" : "p" + std::to_string(i);
    text += rel + "(X, Y" + std::to_string(i) + ")";
  }
  text += ".";
  ConjunctiveQuery q = Must(ParseQuery(text));
  size_t hits = 0, misses = 0;
  for (auto _ : state) {
    CandBResult result =
        Must(ChaseAndBackchase(q, {}, Semantics::kSet, Schema()));
    hits = result.chase_cache_hits;
    misses = result.chase_cache_misses;
    benchmark::DoNotOptimize(result);
  }
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.counters["cache_misses"] = static_cast<double>(misses);
}
void BM_Backchase_Memo_Symmetric(benchmark::State& state) {
  RunMemoAblation(state, /*symmetric=*/true);
}
void BM_Backchase_Memo_Distinct(benchmark::State& state) {
  RunMemoAblation(state, /*symmetric=*/false);
}
SQLEQ_BENCHMARK(BM_Backchase_Memo_Symmetric)->DenseRange(4, 8)->Unit(benchmark::kMillisecond);
SQLEQ_BENCHMARK(BM_Backchase_Memo_Distinct)->DenseRange(4, 8)->Unit(benchmark::kMillisecond);

/// Telemetry overhead ablation: the same reformulation with the full
/// observability stack on (MetricsRegistry + TraceSink in the context) vs
/// off (both null — every instrumentation site reduces to one branch).
/// Acceptance: the enabled/disabled wall-time delta stays within 5%.
void RunTelemetryOverhead(benchmark::State& state, bool enabled) {
  ConjunctiveQuery q = WidenedQ1(4);
  Schema schema = Example41Schema();
  DependencySet sigma = Example41Sigma();
  MetricsRegistry metrics;
  TraceSink trace;
  CandBOptions options;
  if (enabled) {
    options.context.metrics = &metrics;
    options.context.trace = &trace;
  }
  for (auto _ : state) {
    CandBResult result =
        Must(ChaseAndBackchase(q, sigma, Semantics::kSet, schema, options));
    benchmark::DoNotOptimize(result);
    trace.Clear();  // keep the sink's arena flat across iterations
  }
  if (enabled) {
    state.counters["metric_names"] =
        static_cast<double>(metrics.Snapshot().counters.size());
  }
}
void BM_Telemetry_Off(benchmark::State& state) {
  RunTelemetryOverhead(state, /*enabled=*/false);
}
void BM_Telemetry_On(benchmark::State& state) {
  RunTelemetryOverhead(state, /*enabled=*/true);
}
SQLEQ_BENCHMARK(BM_Telemetry_Off)->Unit(benchmark::kMillisecond);
SQLEQ_BENCHMARK(BM_Telemetry_On)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqleq
