// B7 (§5.3, Theorem 5.4): Max-Bag-Σ-Subset runtime — one sound chase plus
// one classification pass per dependency, so the curve tracks |Σ| times the
// per-dependency applicability test on the chase result. Swept on the
// Appendix H family (|Σ| grows quadratically in m) and on Example 4.1.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "chase/max_subset.h"
#include "db/eval.h"

namespace sqleq {
namespace {

using bench::MakeAppendixHFamily;
using bench::Must;

void BM_MaxSubset_AppendixH(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  bench::AppendixHFamily family = MakeAppendixHFamily(m);
  ResourceBudget budget;
  budget.max_chase_steps = 100000;
  size_t kept = 0;
  for (auto _ : state) {
    MaxSubsetResult r = Must(
        MaxBagSigmaSubset(family.query, family.sigma, family.schema, budget));
    kept = r.max_subset.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["m"] = m;
  state.counters["sigma_size"] = static_cast<double>(family.sigma.size());
  state.counters["kept"] = static_cast<double>(kept);
}
SQLEQ_BENCHMARK(BM_MaxSubset_AppendixH)->DenseRange(2, 6)->Unit(benchmark::kMillisecond);

void BM_MaxSubset_Example41(benchmark::State& state) {
  Schema schema = bench::Example41Schema();
  DependencySet sigma = bench::Example41Sigma();
  ConjunctiveQuery q4 = Must(ParseQuery("Q4(X) :- p(X, Y)."));
  size_t kept_b = 0, kept_bs = 0;
  for (auto _ : state) {
    kept_b = Must(MaxBagSigmaSubset(q4, sigma, schema)).max_subset.size();
    kept_bs = Must(MaxBagSetSigmaSubset(q4, sigma, schema)).max_subset.size();
    benchmark::DoNotOptimize(kept_b + kept_bs);
  }
  state.counters["kept_bag"] = static_cast<double>(kept_b);       // 4 of 6
  state.counters["kept_bag_set"] = static_cast<double>(kept_bs);  // 5 of 6
}
SQLEQ_BENCHMARK(BM_MaxSubset_Example41)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqleq
