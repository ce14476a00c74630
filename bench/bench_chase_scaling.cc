// B1/T4 (Theorem 5.2, Appendix H): sound chase terminates in time
// polynomial in |Q| and exponential in |Σ|. Two sweeps:
//   * SigmaSize: the Appendix H family — result size and wall-clock must
//     grow exponentially with m (the schema/Σ size knob);
//   * QuerySize: fixed small Σ, growing chain query — polynomial growth.
// Counters: atoms = |body((Q)Σ,X)|, steps = chase trace length; the sigma
// sweep also reports the delta-driven loop's chase.* counters for one run
// (skipped_clean, satisfied, rebuilds; docs/observability.md), taken on a
// run outside the timed loop.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "chase/set_chase.h"
#include "chase/sound_chase.h"
#include "db/eval.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

using bench::AppendixHFamily;
using bench::MakeAppendixHFamily;
using bench::Must;

void RunSigmaSweep(benchmark::State& state, Semantics sem) {
  int m = static_cast<int>(state.range(0));
  AppendixHFamily family = MakeAppendixHFamily(m);
  ChaseRuntime runtime;
  runtime.budget.max_chase_steps = 100000;
  size_t atoms = 0, steps = 0;
  for (auto _ : state) {
    ChaseOutcome out =
        Must(SoundChase(family.query, family.sigma, sem, family.schema, runtime));
    atoms = out.result.body().size();
    steps = out.trace.size();
    benchmark::DoNotOptimize(out.result);
  }
  MetricsRegistry metrics;
  runtime.metrics = &metrics;
  Must(SoundChase(family.query, family.sigma, sem, family.schema, runtime));
  auto count = [&metrics](const char* name) {
    return static_cast<double>(metrics.counter(name).value());
  };
  state.counters["m"] = m;
  state.counters["sigma_size"] = static_cast<double>(family.sigma.size());
  state.counters["atoms"] = static_cast<double>(atoms);
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["skipped_clean"] = count(metric::kChaseChecksSkippedClean);
  state.counters["satisfied"] = count(metric::kChaseChecksSatisfied);
  state.counters["rebuilds"] = count(metric::kChaseRebuilds);
}

void BM_ChaseSigmaSweep_Set(benchmark::State& state) {
  RunSigmaSweep(state, Semantics::kSet);
}
void BM_ChaseSigmaSweep_Bag(benchmark::State& state) {
  RunSigmaSweep(state, Semantics::kBag);
}
void BM_ChaseSigmaSweep_BagSet(benchmark::State& state) {
  RunSigmaSweep(state, Semantics::kBagSet);
}
SQLEQ_BENCHMARK(BM_ChaseSigmaSweep_Set)->DenseRange(2, 7)->Unit(benchmark::kMillisecond);
SQLEQ_BENCHMARK(BM_ChaseSigmaSweep_Bag)->DenseRange(2, 7)->Unit(benchmark::kMillisecond);
SQLEQ_BENCHMARK(BM_ChaseSigmaSweep_BagSet)->DenseRange(2, 7)->Unit(benchmark::kMillisecond);

// Query-size sweep: Σ fixed (edge relation feeds a node relation plus a key
// fd), chain query of length n. Growth must stay polynomial.
void BM_ChaseQuerySweep(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  DependencySet sigma = Must(ParseSigma({
      "e(X, Y) -> node(X, L).",
      "node(X, L1), node(X, L2) -> L1 = L2.",
  }));
  Schema schema;
  schema.Relation("e", 2).Relation("node", 2, /*set_valued=*/true);
  ConjunctiveQuery q = bench::Chain(n);
  size_t atoms = 0;
  for (auto _ : state) {
    ChaseOutcome out = Must(SoundChase(q, sigma, Semantics::kBag, schema));
    atoms = out.result.body().size();
    benchmark::DoNotOptimize(out.result);
  }
  state.counters["n"] = n;
  state.counters["atoms"] = static_cast<double>(atoms);
}
SQLEQ_BENCHMARK(BM_ChaseQuerySweep)->DenseRange(2, 16, 2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqleq
