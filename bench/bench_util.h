// Shared fixtures for the sqleq benchmark suite: the Appendix H chase-
// scaling family, chain/star query generators, the Example 4.1 setting, and
// the SQLEQ_BENCHMARK registration macro every bench_*.cc uses. Benchmarks
// registered through SQLEQ_BENCHMARK honor the SQLEQ_BENCH_ITERS environment
// variable, and the shared driver (bench_main.cc) writes each binary's
// results to BENCH_<name>.json — see docs/observability.md.
#ifndef SQLEQ_BENCH_BENCH_UTIL_H_
#define SQLEQ_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "constraints/builders.h"
#include "constraints/dependency.h"
#include "ir/parser.h"
#include "ir/query.h"
#include "ir/schema.h"

namespace sqleq {
namespace bench {

template <typename T>
T Must(Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "bench fixture failed: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// The Appendix H family: schema {p1..pm} (arity 2, set valued), tgds
/// σ(1)_{i,j}: pi(X,Y) → ∃Z pj(Z,X) and σ(2)_{i,j}: pi(X,Y) → ∃W pj(Y,W)
/// for all i < j, plus the two fds per relation that make every tgd
/// key-based (Example H.2). Chase of Q(X,Y) :- p1(X,Y) grows exponentially
/// in m under every semantics.
struct AppendixHFamily {
  Schema schema;
  DependencySet sigma;
  ConjunctiveQuery query;
};

inline AppendixHFamily MakeAppendixHFamily(int m) {
  AppendixHFamily out{Schema(), {},
                      Must(ParseQuery("Q(X, Y) :- p1(X, Y)."))};
  for (int i = 1; i <= m; ++i) {
    out.schema.Relation("p" + std::to_string(i), 2, /*set_valued=*/true);
  }
  for (int i = 1; i <= m; ++i) {
    std::string pi = "p" + std::to_string(i);
    for (int j = i + 1; j <= m; ++j) {
      std::string pj = "p" + std::to_string(j);
      for (Dependency& d : Must(ParseDependency(
               pi + "(X, Y) -> " + pj + "(Z, X).",
               "s1_" + std::to_string(i) + "_" + std::to_string(j)))) {
        out.sigma.push_back(std::move(d));
      }
      for (Dependency& d : Must(ParseDependency(
               pi + "(X, Y) -> " + pj + "(Y, W).",
               "s2_" + std::to_string(i) + "_" + std::to_string(j)))) {
        out.sigma.push_back(std::move(d));
      }
    }
    // fds: each attribute determines the other (Example H.2).
    for (Dependency& d : Must(ParseDependency(
             pi + "(X, Y), " + pi + "(X, Z) -> Y = Z.", "fd1_" + std::to_string(i)))) {
      out.sigma.push_back(std::move(d));
    }
    for (Dependency& d : Must(ParseDependency(
             pi + "(Y, X), " + pi + "(Z, X) -> Y = Z.", "fd2_" + std::to_string(i)))) {
      out.sigma.push_back(std::move(d));
    }
  }
  return out;
}

/// Chain query of length n over e/2: head (X0, Xn).
inline ConjunctiveQuery Chain(int n, const std::string& prefix = "X") {
  std::vector<Atom> body;
  for (int i = 0; i < n; ++i) {
    body.emplace_back("e", std::vector<Term>{Term::Var(prefix + std::to_string(i)),
                                             Term::Var(prefix + std::to_string(i + 1))});
  }
  return ConjunctiveQuery::Make(
      "C", {Term::Var(prefix + "0"), Term::Var(prefix + std::to_string(n))},
      std::move(body));
}

/// Star query: center X joined to n rays e(X, Yi).
inline ConjunctiveQuery Star(int n, const std::string& prefix = "Y") {
  std::vector<Atom> body;
  for (int i = 0; i < n; ++i) {
    body.emplace_back("e", std::vector<Term>{Term::Var("X"),
                                             Term::Var(prefix + std::to_string(i))});
  }
  return ConjunctiveQuery::Make("S", {Term::Var("X")}, std::move(body));
}

/// Example 4.1 fixtures (shared with the test suite).
inline Schema Example41Schema() {
  Schema schema;
  schema.Relation("p", 2)
      .Relation("r", 1)
      .Relation("s", 2, /*set_valued=*/true)
      .Relation("t", 3, /*set_valued=*/true)
      .Relation("u", 2);
  return schema;
}

inline DependencySet Example41Sigma() {
  return Must(ParseSigma({
      "p(X, Y) -> s(X, Z), t(X, V, W).",
      "p(X, Y) -> t(X, Y, W).",
      "p(X, Y) -> r(X).",
      "p(X, Y) -> u(X, Z), t(X, Y, W).",
      "s(X, Y), s(X, Z) -> Y = Z.",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  }));
}

/// Example 4.1's Q1 widened with `extra` independent u-joins; the extra atoms
/// are pairwise isomorphic, so the candidate lattice is dense with memo hits.
inline ConjunctiveQuery WidenedQ1(int extra) {
  std::string text = "Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U0)";
  for (int i = 1; i <= extra; ++i) {
    text += ", u(X, U" + std::to_string(i) + ")";
  }
  return Must(ParseQuery(text + "."));
}

/// Pads (schema, Σ) with `clusters` dependency islands no query over the
/// original schema can ever trigger. Each island adds relations ak/bk/ck
/// and three dependencies:
///
///   isl1: anchor(X, Y), ak(Y, Z) → bk(X)   — an FK-style constraint whose
///         second body atom reads ak, which nothing ever writes, so the
///         static Σ-slice prunes it (blocked on ak). A full-Σ chase instead
///         re-joins the populated `anchor` relation against empty ak on
///         every fixpoint pass.
///   isl2: bk(X) → ∃Z ck(X, Z)              — downstream of isl1, pruned
///         transitively once isl1 is out.
///   isl3: key on ck                        — likewise unreachable.
///
/// `anchor` must name a binary relation the chased queries populate (the
/// Example 4.1 fixtures use p). This is the sliced-vs-full ablation fixture
/// shared by bench_candb / bench_equivalence / bench_sigma_slice.
inline void AddIrrelevantIslands(Schema* schema, DependencySet* sigma,
                                 int clusters,
                                 const std::string& anchor = "p") {
  for (int k = 0; k < clusters; ++k) {
    std::string a = "isl_a" + std::to_string(k);
    std::string b = "isl_b" + std::to_string(k);
    std::string c = "isl_c" + std::to_string(k);
    schema->Relation(a, 2).Relation(b, 1).Relation(c, 2);
    for (Dependency& d : Must(ParseDependency(
             anchor + "(X, Y), " + a + "(Y, Z) -> " + b + "(X).",
             "isl1_" + std::to_string(k)))) {
      sigma->push_back(std::move(d));
    }
    for (Dependency& d : Must(ParseDependency(b + "(X) -> " + c + "(X, Z).",
                                              "isl2_" + std::to_string(k)))) {
      sigma->push_back(std::move(d));
    }
    for (Dependency& d : Must(ParseDependency(
             c + "(X, Y), " + c + "(X, Z) -> Y = Z.",
             "isl3_" + std::to_string(k)))) {
      sigma->push_back(std::move(d));
    }
  }
}

/// The shared latency-percentile reporter: p50/p95/p99/mean of the given
/// per-request wall latencies land in the state counters (so they appear in
/// BENCH_<name>.json), and the sample count becomes items_processed. Used
/// by bench_service_throughput and bench_fleet_soak so their numbers read
/// identically. No-op on an empty sample.
inline void ReportLatencyPercentiles(benchmark::State& state,
                                     std::vector<uint64_t> latencies_us) {
  state.SetItemsProcessed(static_cast<int64_t>(latencies_us.size()));
  if (latencies_us.empty()) return;
  std::sort(latencies_us.begin(), latencies_us.end());
  auto percentile = [&](int p) {
    return static_cast<double>(latencies_us[(latencies_us.size() - 1) * p / 100]);
  };
  uint64_t total = 0;
  for (uint64_t us : latencies_us) total += us;
  state.counters["mean_us"] =
      static_cast<double>(total) / static_cast<double>(latencies_us.size());
  state.counters["p50_us"] = percentile(50);
  state.counters["p95_us"] = percentile(95);
  state.counters["p99_us"] = percentile(99);
}

/// SQLEQ_BENCH_ITERS: when set to a positive integer N, every benchmark
/// registered through SQLEQ_BENCHMARK runs exactly N iterations with no
/// warmup — the contract `tools/ci.sh bench-smoke` relies on for fast,
/// deterministic smoke runs (SQLEQ_BENCH_ITERS=1). Unset or unparsable:
/// Google Benchmark's adaptive iteration counts apply unchanged.
inline benchmark::internal::Benchmark* ConfigureFromEnv(
    benchmark::internal::Benchmark* b) {
  const char* text = std::getenv("SQLEQ_BENCH_ITERS");
  if (text == nullptr) return b;
  char* end = nullptr;
  long iters = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || iters <= 0) return b;
  // Pinned iterations bypass the min-time/warmup logic entirely (and
  // combining them with MinWarmUpTime is a hard error in benchmark 1.7).
  b->Iterations(iters);
  return b;
}

}  // namespace bench
}  // namespace sqleq

/// Drop-in replacement for BENCHMARK() that applies the SQLEQ_BENCH_ITERS
/// environment override at registration; later chained calls (DenseRange,
/// Unit, ...) compose as usual.
#define SQLEQ_BENCHMARK(n)                                  \
  BENCHMARK_PRIVATE_DECLARE(n) =                            \
      (::sqleq::bench::ConfigureFromEnv(                    \
          ::benchmark::internal::RegisterBenchmarkInternal( \
              new ::benchmark::internal::FunctionBenchmark(#n, n))))

#endif  // SQLEQ_BENCH_BENCH_UTIL_H_
