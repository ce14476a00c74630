// B3 (§6.3, Appendix A): the C&B family on the Example 4.1 instance and on
// widened variants (extra independent joins inflate the universal plan and
// the 2^n backchase lattice). Counters: candidates examined, reformulations
// found, universal-plan size. Plus the DESIGN.md ablation: Bag-C&B with the
// key-based fast path on vs off (identical outputs, different latency).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "db/eval.h"
#include "reformulation/candb.h"

namespace sqleq {
namespace {

using bench::Example41Schema;
using bench::Example41Sigma;
using bench::Must;
using bench::WidenedQ1;

void RunCandB(benchmark::State& state, Semantics sem, bool fast_path) {
  int extra = static_cast<int>(state.range(0));
  ConjunctiveQuery q = WidenedQ1(extra);
  Schema schema = Example41Schema();
  DependencySet sigma = Example41Sigma();
  CandBOptions options;
  options.chase.key_based_fast_path = fast_path;
  size_t candidates = 0, outputs = 0, plan = 0;
  for (auto _ : state) {
    CandBResult result = Must(ChaseAndBackchase(q, sigma, sem, schema, options));
    candidates = result.candidates_examined;
    outputs = result.reformulations.size();
    plan = result.universal_plan.body().size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["body"] = static_cast<double>(q.body().size());
  state.counters["plan_atoms"] = static_cast<double>(plan);
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["outputs"] = static_cast<double>(outputs);
}

void BM_CandB_Set(benchmark::State& state) {
  RunCandB(state, Semantics::kSet, true);
}
void BM_CandB_Bag(benchmark::State& state) {
  RunCandB(state, Semantics::kBag, true);
}
void BM_CandB_BagSet(benchmark::State& state) {
  RunCandB(state, Semantics::kBagSet, true);
}
void BM_CandB_Bag_NoFastPath(benchmark::State& state) {
  RunCandB(state, Semantics::kBag, false);
}
SQLEQ_BENCHMARK(BM_CandB_Set)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
SQLEQ_BENCHMARK(BM_CandB_Bag)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
SQLEQ_BENCHMARK(BM_CandB_BagSet)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
SQLEQ_BENCHMARK(BM_CandB_Bag_NoFastPath)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// The Σ-slicing workload (docs/compiled_chase.md): Example 4.1's Σ padded
/// with range(0) irrelevant island clusters (3 dependencies each).
/// ChasePlan::SliceFor prunes every island dependency before any candidate
/// is chased, so the cost should stay flat as the islands grow.
void BM_CandB_Set_SlicedSigma(benchmark::State& state) {
  int clusters = static_cast<int>(state.range(0));
  ConjunctiveQuery q = WidenedQ1(3);
  Schema schema = Example41Schema();
  DependencySet sigma = Example41Sigma();
  bench::AddIrrelevantIslands(&schema, &sigma, clusters);
  size_t outputs = 0;
  for (auto _ : state) {
    CandBResult result = Must(ChaseAndBackchase(q, sigma, Semantics::kSet, schema));
    outputs = result.reformulations.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["sigma"] = static_cast<double>(sigma.size());
  state.counters["outputs"] = static_cast<double>(outputs);
}
SQLEQ_BENCHMARK(BM_CandB_Set_SlicedSigma)
    ->Arg(0)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// The memoized sweep on a wider lattice: range(0) = extra joins. The cache
/// counters show how much of the lattice the memo serves (isomorphic
/// candidates chased once).
void BM_CandB_Set_Threads(benchmark::State& state) {
  int extra = static_cast<int>(state.range(0));
  ConjunctiveQuery q = WidenedQ1(extra);
  Schema schema = Example41Schema();
  DependencySet sigma = Example41Sigma();
  size_t candidates = 0, hits = 0, misses = 0;
  for (auto _ : state) {
    CandBResult result = Must(ChaseAndBackchase(q, sigma, Semantics::kSet, schema));
    candidates = result.candidates_examined;
    hits = result.chase_cache_hits;
    misses = result.chase_cache_misses;
    benchmark::DoNotOptimize(result);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.counters["cache_misses"] = static_cast<double>(misses);
}
SQLEQ_BENCHMARK(BM_CandB_Set_Threads)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqleq
