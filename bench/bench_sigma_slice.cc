// The Σ-slicing microbenchmarks (docs/compiled_chase.md, "Σ-slicing"):
//
//   * analysis cost — SigmaGraph::Build, SliceFor, and DeriveCertificate on
//     Σ padded with irrelevant island clusters, so the overhead the static
//     analysis adds to a compiled plan is visible on its own;
//   * chase ablation — ChasePlan::Run (sliced) vs ChasePlan::RunFull (the
//     whole Σ) on the same padded Σ. The island dependencies can never fire,
//     so both variants produce identical traces (the sliced ≡ full property
//     test); the full-Σ run just probes every island kernel on every
//     fixpoint pass.
//
// Emits BENCH_sigma_slice.json via the shared bench_main.cc driver.
#include <benchmark/benchmark.h>

#include "analysis/sigma_graph.h"
#include "bench_util.h"
#include "chase/chase_plan.h"
#include "ir/parser.h"

namespace sqleq {
namespace {

using bench::AddIrrelevantIslands;
using bench::Example41Schema;
using bench::Example41Sigma;
using bench::Must;

struct PaddedSetting {
  Schema schema;
  DependencySet sigma;
  ConjunctiveQuery query;
};

PaddedSetting MakePadded(int clusters) {
  PaddedSetting out{Example41Schema(), Example41Sigma(),
                    Must(ParseQuery("Q(X) :- p(X, Y), s(X, Z), r(X)."))};
  AddIrrelevantIslands(&out.schema, &out.sigma, clusters);
  return out;
}

void BM_SigmaGraph_Build(benchmark::State& state) {
  PaddedSetting setting = MakePadded(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SigmaGraph graph = SigmaGraph::Build(setting.sigma, setting.schema);
    benchmark::DoNotOptimize(graph);
  }
  state.counters["sigma"] = static_cast<double>(setting.sigma.size());
}
SQLEQ_BENCHMARK(BM_SigmaGraph_Build)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_SigmaGraph_SliceFor(benchmark::State& state) {
  PaddedSetting setting = MakePadded(static_cast<int>(state.range(0)));
  SigmaGraph graph = SigmaGraph::Build(setting.sigma, setting.schema);
  size_t kept = 0;
  for (auto _ : state) {
    SigmaSlice slice = graph.SliceFor(setting.query.body());
    kept = slice.kept.size();
    benchmark::DoNotOptimize(slice);
  }
  state.counters["sigma"] = static_cast<double>(setting.sigma.size());
  state.counters["kept"] = static_cast<double>(kept);
}
SQLEQ_BENCHMARK(BM_SigmaGraph_SliceFor)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_SigmaGraph_DeriveCertificate(benchmark::State& state) {
  PaddedSetting setting = MakePadded(static_cast<int>(state.range(0)));
  SigmaGraph graph = SigmaGraph::Build(setting.sigma, setting.schema);
  for (auto _ : state) {
    TerminationCertificate cert = graph.DeriveCertificate();
    benchmark::DoNotOptimize(cert);
  }
  state.counters["sigma"] = static_cast<double>(setting.sigma.size());
}
SQLEQ_BENCHMARK(BM_SigmaGraph_DeriveCertificate)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

/// One compiled chase of the query per iteration; the plan (and with it the
/// cached slice) is compiled once outside the loop, mirroring how
/// EquivalenceEngine and C&B hold a plan per context.
void RunPlanChase(benchmark::State& state, bool sliced) {
  PaddedSetting setting = MakePadded(static_cast<int>(state.range(0)));
  ChasePlan plan(setting.sigma, Semantics::kSet, setting.schema);
  size_t steps = 0;
  for (auto _ : state) {
    ChaseOutcome outcome = Must(sliced ? plan.Run(setting.query)
                                       : plan.RunFull(setting.query));
    steps = outcome.trace.size();
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["sigma"] = static_cast<double>(setting.sigma.size());
  state.counters["sliced"] = sliced ? 1 : 0;
  state.counters["steps"] = static_cast<double>(steps);
}

void BM_PlanChase_Sliced(benchmark::State& state) {
  RunPlanChase(state, true);
}
void BM_PlanChase_FullSigma(benchmark::State& state) {
  RunPlanChase(state, false);
}
SQLEQ_BENCHMARK(BM_PlanChase_Sliced)->Arg(0)->Arg(4)->Arg(16)->Arg(64);
SQLEQ_BENCHMARK(BM_PlanChase_FullSigma)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace sqleq
