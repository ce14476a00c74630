// B9 (§1 application): C&B-with-views rewriting — latency and candidate
// counts as the view library grows. Each extra view adds candidate atoms to
// the backchase pool, so the curve tracks the pool-subset lattice.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"
#include "db/eval.h"
#include "reformulation/views.h"

namespace sqleq {
namespace {

using bench::Must;

/// Star-join query: fact(K, A0..A{n-1}) joined to n dims d_i(A_i, B_i);
/// views v_i(K, B_i) precompute each dim join. Σ declares K the key of
/// fact, which is what makes the all-views rewriting v_1 ⋈ ... ⋈ v_n
/// equivalent (without the key, joining the views cross-pairs fact rows).
struct StarFixture {
  Schema schema;
  ConjunctiveQuery query;
  ViewSet views;
  DependencySet sigma;
};

StarFixture MakeStar(int n) {
  StarFixture out{Schema(), Must(ParseQuery("Q(X) :- fact(X, A1).")), ViewSet(), {}};
  out.schema.Relation("fact", static_cast<size_t>(n + 1));
  for (Dependency& d :
       Must(MakeKeyEgds("fact", static_cast<size_t>(n + 1), {0}, "key_fact"))) {
    out.sigma.push_back(std::move(d));
  }
  std::string body = "fact(K";
  for (int i = 1; i <= n; ++i) body += ", A" + std::to_string(i);
  body += ")";
  std::string head = "Q(K";
  for (int i = 1; i <= n; ++i) {
    std::string d = "dim" + std::to_string(i);
    out.schema.Relation(d, 2);
    body += ", " + d + "(A" + std::to_string(i) + ", B" + std::to_string(i) + ")";
    head += ", B" + std::to_string(i);
  }
  head += ")";
  out.query = Must(ParseQuery(head + " :- " + body + "."));
  for (int i = 1; i <= n; ++i) {
    std::string v = "v" + std::to_string(i);
    std::string vbody = "fact(K";
    for (int j = 1; j <= n; ++j) vbody += ", A" + std::to_string(j);
    vbody += "), dim" + std::to_string(i) + "(A" + std::to_string(i) + ", B" +
             std::to_string(i) + ")";
    Status s = out.views.Add(Must(
        ParseQuery(v + "(K, B" + std::to_string(i) + ") :- " + vbody + ".")));
    if (!s.ok()) std::abort();
  }
  return out;
}

void BM_RewriteWithViews_Star(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  StarFixture fixture = MakeStar(n);
  RewriteOptions options;
  options.allow_base_atoms = true;
  size_t candidates = 0, outputs = 0;
  for (auto _ : state) {
    RewriteResult result =
        Must(RewriteWithViews(fixture.query, fixture.views, fixture.sigma,
                              Semantics::kSet, fixture.schema, options));
    candidates = result.candidates_examined;
    outputs = result.rewritings.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["dims"] = n;
  state.counters["views"] = static_cast<double>(fixture.views.size());
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["outputs"] = static_cast<double>(outputs);
}
SQLEQ_BENCHMARK(BM_RewriteWithViews_Star)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

/// The star-join rewrite's memo accounting: range(0) = dims. U is chased
/// once up front and every candidate expansion isomorphic to an earlier one
/// is served from cache instead of re-chasing.
void BM_RewriteWithViews_Star_Threads(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  StarFixture fixture = MakeStar(n);
  RewriteOptions options;
  options.allow_base_atoms = true;
  size_t candidates = 0, hits = 0, misses = 0;
  for (auto _ : state) {
    RewriteResult result =
        Must(RewriteWithViews(fixture.query, fixture.views, fixture.sigma,
                              Semantics::kSet, fixture.schema, options));
    candidates = result.candidates_examined;
    hits = result.chase_cache_hits;
    misses = result.chase_cache_misses;
    benchmark::DoNotOptimize(result);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.counters["cache_misses"] = static_cast<double>(misses);
}
SQLEQ_BENCHMARK(BM_RewriteWithViews_Star_Threads)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ExpandRewriting(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  StarFixture fixture = MakeStar(n);
  // A rewriting using every view once.
  std::string head = "R(K";
  std::string body;
  for (int i = 1; i <= n; ++i) {
    head += ", B" + std::to_string(i);
    if (i > 1) body += ", ";
    body += "v" + std::to_string(i) + "(K, B" + std::to_string(i) + ")";
  }
  head += ")";
  ConjunctiveQuery r = Must(ParseQuery(head + " :- " + body + "."));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Must(ExpandRewriting(r, fixture.views)));
  }
  state.counters["views_used"] = n;
}
SQLEQ_BENCHMARK(BM_ExpandRewriting)->DenseRange(1, 6);

}  // namespace
}  // namespace sqleq
