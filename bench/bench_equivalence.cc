// B2 (§2.1, §2.3): latency of the three dependency-free equivalence tests
// on growing chain and star queries. Set equivalence runs the NP-complete
// containment search; bag equivalence runs the isomorphism matcher; bag-set
// equivalence runs isomorphism on canonical representations. The shape to
// see: all three are fast on these well-structured instances, with the set
// test paying extra on the automorphism-rich stars.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "equivalence/bag_equivalence.h"
#include "equivalence/bag_set_equivalence.h"
#include "equivalence/containment.h"
#include "equivalence/engine.h"
#include "ir/parser.h"
#include "sql/render.h"
#include "sql/translate.h"
#include "workload/schema_templates.h"

namespace sqleq {
namespace {

enum class TestKind { kSet, kBag, kBagSet };

template <TestKind kind>
void RunPair(benchmark::State& state, const ConjunctiveQuery& a,
             const ConjunctiveQuery& b) {
  bool verdict = false;
  for (auto _ : state) {
    if constexpr (kind == TestKind::kSet) {
      verdict = SetEquivalent(a, b);
    } else if constexpr (kind == TestKind::kBag) {
      verdict = BagEquivalent(a, b);
    } else {
      verdict = BagSetEquivalent(a, b);
    }
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["equivalent"] = verdict ? 1 : 0;
}

void BM_SetEquivalence_Chain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunPair<TestKind::kSet>(state, bench::Chain(n, "X"), bench::Chain(n, "Y"));
}
void BM_BagEquivalence_Chain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunPair<TestKind::kBag>(state, bench::Chain(n, "X"), bench::Chain(n, "Y"));
}
void BM_BagSetEquivalence_Chain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunPair<TestKind::kBagSet>(state, bench::Chain(n, "X"), bench::Chain(n, "Y"));
}
SQLEQ_BENCHMARK(BM_SetEquivalence_Chain)->DenseRange(2, 14, 2);
SQLEQ_BENCHMARK(BM_BagEquivalence_Chain)->DenseRange(2, 14, 2);
SQLEQ_BENCHMARK(BM_BagSetEquivalence_Chain)->DenseRange(2, 14, 2);

void BM_SetEquivalence_Star(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunPair<TestKind::kSet>(state, bench::Star(n, "Y"), bench::Star(n, "Z"));
}
void BM_BagEquivalence_Star(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunPair<TestKind::kBag>(state, bench::Star(n, "Y"), bench::Star(n, "Z"));
}
SQLEQ_BENCHMARK(BM_SetEquivalence_Star)->DenseRange(2, 14, 2);
SQLEQ_BENCHMARK(BM_BagEquivalence_Star)->DenseRange(2, 14, 2);

// Negative instances: the bag test must reject quickly when per-predicate
// counts differ; the set test must search before rejecting a chain vs a
// chain with one extra edge.
void BM_SetEquivalence_ChainNegative(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunPair<TestKind::kSet>(state, bench::Chain(n, "X"), bench::Chain(n + 1, "Y"));
}
void BM_BagEquivalence_ChainNegative(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunPair<TestKind::kBag>(state, bench::Chain(n, "X"), bench::Chain(n + 1, "Y"));
}
SQLEQ_BENCHMARK(BM_SetEquivalence_ChainNegative)->DenseRange(2, 14, 2);
SQLEQ_BENCHMARK(BM_BagEquivalence_ChainNegative)->DenseRange(2, 14, 2);

// Σ-slicing workload: a Σ-equivalence decision over Example 4.1's Σ padded
// with range(0) irrelevant island clusters. A fresh engine per iteration
// keeps the memo from hiding the chase cost; the island dependencies never
// fire and the slice prunes them, so the cost should stay flat as the
// islands grow.
/// One engine (one compiled plan) answering a batch of equivalence calls —
/// the engine-context-reuse shape the docs promise slicing pays off in.
/// The pairs are p-chains of distinct widths, so they canonicalize to
/// distinct memo keys and every call genuinely chases (widths give the
/// chase real work for the islands to tax); the Σ compile and the slice
/// subsets amortize across the batch.
constexpr int kEquivBatch = 8;

void BM_SigmaEquivalence_Sliced(benchmark::State& state) {
  int clusters = static_cast<int>(state.range(0));
  Schema schema = bench::Example41Schema();
  DependencySet sigma = bench::Example41Sigma();
  bench::AddIrrelevantIslands(&schema, &sigma, clusters);
  std::vector<std::pair<ConjunctiveQuery, ConjunctiveQuery>> pairs;
  pairs.reserve(kEquivBatch);
  for (int j = 1; j <= kEquivBatch; ++j) {
    std::string b1 = "Q1(X) :- r(X)";
    std::string b2 = "Q2(X) :- r(X)";
    for (int i = 0; i < j; ++i) {
      b1 += ", p(X, Y" + std::to_string(i) + ")";
      b2 += ", p(X, B" + std::to_string(i) + ")";
    }
    pairs.emplace_back(bench::Must(ParseQuery(b1 + ".")),
                       bench::Must(ParseQuery(b2 + ".")));
  }
  bool verdict = false;
  for (auto _ : state) {
    EquivalenceEngine engine;
    EquivRequest request(Semantics::kSet, sigma, schema);
    for (const auto& [q1, q2] : pairs) {
      EquivVerdict v = bench::Must(engine.Equivalent(q1, q2, request));
      verdict = v.verdict == Verdict::kEquivalent;
      benchmark::DoNotOptimize(v);
    }
  }
  state.counters["sigma"] = static_cast<double>(sigma.size());
  state.counters["equivalent"] = verdict ? 1 : 0;
}
SQLEQ_BENCHMARK(BM_SigmaEquivalence_Sliced)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

// The per-call cost of an engine whose memo answers both chases: context
// lookup, the Σ-lint pre-flight, two memo hits and the decision. Arg 0 is
// the warehouse catalog (15 dependencies), arg 1 tpch plus the Appendix H
// m = 6 family (67); check-resident and check-spill in e2ebench serve these
// Σ. The request is built once: the copy of Σ and the schema that sqleqd's
// check handler makes per request is not timed.
void BM_EngineEquivalent_MemoHit(benchmark::State& state) {
  const bool deep = state.range(0) == 1;
  workload::SchemaTemplate t =
      bench::Must(workload::MakeSchemaTemplate(deep ? "tpch" : "warehouse"));
  Schema schema = t.catalog.schema;
  DependencySet sigma = t.catalog.sigma;
  if (deep) {
    bench::AppendixHFamily h = bench::MakeAppendixHFamily(6);
    for (const RelationInfo& r : h.schema.Relations()) {
      schema.Relation(r.name, r.arity, r.set_valued);
    }
    sigma.insert(sigma.end(), h.sigma.begin(), h.sigma.end());
  }
  const ConjunctiveQuery q1 = bench::Must(ParseQuery(
      deep ? "Q(K, S) :- lineitem(K, L, P, S, N), orders(K, C, T, R), customer(C, M, G)."
           : "Q(M) :- fact(I, T, C, P, G, M), dim_time(T, Y), dim_cust(C, N, S)."));
  const ConjunctiveQuery q2 = bench::Must(ParseQuery(
      deep ? "P(A, B) :- customer(E, F, H), orders(A, E, U, V), lineitem(A, W, X, B, Z)."
           : "P(N) :- dim_cust(B, O, R), fact(J, U, B, W, X, N), dim_time(U, Z)."));
  const EquivRequest request(Semantics::kSet, sigma, schema);
  EquivalenceEngine engine;
  bench::Must(engine.Equivalent(q1, q2, request));
  bool verdict = false;
  for (auto _ : state) {
    EquivVerdict v = bench::Must(engine.Equivalent(q1, q2, request));
    verdict = v.verdict == Verdict::kEquivalent;
    benchmark::DoNotOptimize(v);
  }
  const EquivalenceEngine::CacheStats stats = engine.cache_stats();
  state.counters["sigma"] = static_cast<double>(sigma.size());
  state.counters["contexts"] = static_cast<double>(stats.contexts);
  state.counters["misses"] = static_cast<double>(stats.misses);
  state.counters["equivalent"] = verdict ? 1 : 0;
}
SQLEQ_BENCHMARK(BM_EngineEquivalent_MemoHit)->Arg(0)->Arg(1);

// The SQL front-end on its own: one TranslateSql (tokenize, parse,
// translate, no column cache) of a rendered join. Arg 0 is a warehouse
// 3-table join, arg 1 a tpch 5-table join; sqleqd translates two queries of
// this shape per check.
void BM_TranslateSql(benchmark::State& state) {
  const bool deep = state.range(0) == 1;
  const workload::SchemaTemplate t =
      bench::Must(workload::MakeSchemaTemplate(deep ? "tpch" : "warehouse"));
  const ConjunctiveQuery q = bench::Must(ParseQuery(
      deep ? "Q(O, B) :- lineitem(O, L, P, S, 7), orders(O, C, T, R), "
             "customer(C, N, M), nation(N, G, A), region(G, B)."
           : "Q(M) :- fact(I, T, C, P, G, M), dim_time(T, 2024), dim_cust(C, N, S)."));
  const std::string text = bench::Must(sql::RenderSql(q, t.catalog.schema));
  size_t atoms = 0;
  for (auto _ : state) {
    sql::TranslatedQuery translated = bench::Must(sql::TranslateSql(text, t.catalog));
    atoms = translated.cq->body().size();
    benchmark::DoNotOptimize(translated);
  }
  state.counters["atoms"] = static_cast<double>(atoms);
}
SQLEQ_BENCHMARK(BM_TranslateSql)->Arg(0)->Arg(1);

}  // namespace
}  // namespace sqleq
