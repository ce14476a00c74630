// Reformulation on a shared EquivalenceEngine: ChaseAndBackchase and
// RewriteWithViews chase through the engine's per-context memo, so the
// result must not depend on what that memo already holds. Each fixture is
// run on four engines — a cold engine, a warm engine that
// already ran checks and other reformulations on the same Σ, an engine
// re-attached to a disk store another engine warmed, and the one-shot
// wrapper — and the results must agree up to isomorphism of each
// reformulation, with candidates, cache hits and cache misses equal.
// Concurrent reformulations on one engine must match their serial results
// (this file runs under tsan).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chase/memo_store.h"
#include "equivalence/engine.h"
#include "equivalence/isomorphism.h"
#include "reformulation/candb.h"
#include "reformulation/views.h"
#include "test_util.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Sigma;
using testing::Unwrap;

std::string TempDir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/sqleq_reformulation_engine_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* made = ::mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return std::string(made);
}

std::shared_ptr<MemoStore> OpenStore(const std::string& dir) {
  MemoStoreOptions options;
  options.dir = dir;
  return Unwrap(MemoStore::Open(std::move(options)), "MemoStore::Open");
}

/// One reformulation problem: C&B when `views` is empty, else a rewrite.
struct Fixture {
  std::string name;
  ConjunctiveQuery q;
  DependencySet sigma;
  Semantics semantics;
  Schema schema;
  ViewSet views;
  /// Another query over the same Σ, for warming an engine.
  ConjunctiveQuery other;
};

/// The fields both result types share, in one shape.
struct Outcome {
  ConjunctiveQuery universal_plan;
  std::vector<ConjunctiveQuery> reformulations;
  size_t candidates = 0;
  size_t hits = 0;
  size_t misses = 0;
  bool complete = false;
};

Outcome RunFixture(const Fixture& f, EquivalenceEngine* engine,
                   MetricsRegistry* metrics = nullptr) {
  if (f.views.size() == 0) {
    CandBOptions options;
    options.context.metrics = metrics;
    CandBResult r =
        Unwrap(engine != nullptr
                   ? ChaseAndBackchase(*engine, f.q, f.sigma, f.semantics, f.schema,
                                       options)
                   : ChaseAndBackchase(f.q, f.sigma, f.semantics, f.schema, options));
    return Outcome{r.universal_plan,       r.reformulations,   r.candidates_examined,
                   r.chase_cache_hits,     r.chase_cache_misses, r.complete};
  }
  RewriteOptions options;
  options.context.metrics = metrics;
  RewriteResult r = Unwrap(
      engine != nullptr
          ? RewriteWithViews(*engine, f.q, f.views, f.sigma, f.semantics, f.schema,
                             options)
          : RewriteWithViews(f.q, f.views, f.sigma, f.semantics, f.schema, options));
  return Outcome{r.universal_plan,   r.rewritings,         r.candidates_examined,
                 r.chase_cache_hits, r.chase_cache_misses, r.complete};
}

void ExpectSame(const Outcome& got, const Outcome& want, const std::string& where) {
  EXPECT_TRUE(AreIsomorphic(got.universal_plan, want.universal_plan))
      << where << ": " << got.universal_plan.ToString() << " vs "
      << want.universal_plan.ToString();
  ASSERT_EQ(got.reformulations.size(), want.reformulations.size()) << where;
  for (size_t i = 0; i < got.reformulations.size(); ++i) {
    EXPECT_TRUE(AreIsomorphic(got.reformulations[i], want.reformulations[i]))
        << where << " #" << i << ": " << got.reformulations[i].ToString() << " vs "
        << want.reformulations[i].ToString();
  }
  EXPECT_EQ(got.candidates, want.candidates) << where;
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.complete, want.complete) << where;
}

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> out;
  const ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  const ConjunctiveQuery q5 = Q("Q5(X) :- p(X, Y), t(X, Y, W), s(X, Z), s(X, Z).");
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    out.push_back(Fixture{std::string("example41-") + SemanticsToString(sem), q1,
                          Example41Sigma(), sem, Example41Schema(), {}, q5});
  }
  // An existential tgd: the universal plan carries a chase-introduced
  // variable, whose name depends on which engine chased it first.
  DependencySet fresh = Sigma({"a(X) -> b(X, Y).", "b(X, Y) -> c(X)."});
  for (Semantics sem : {Semantics::kSet, Semantics::kBag}) {
    out.push_back(Fixture{std::string("fresh-") + SemanticsToString(sem),
                          Q("Q(X) :- a(X), c(X), d(X, W)."), fresh, sem, Schema(),
                          {}, Q("Q(X) :- a(X), d(X, W), d(X, V).")});
  }
  out.push_back(Fixture{
      "wide", Q("Q(X) :- a(X), b(X), p(X, Y1), p(X, Y2), p(X, Y3), p(X, Y4)."),
      Sigma({"a(X) -> b(X).", "b(X) -> a(X)."}), Semantics::kSet, Schema(), {},
      Q("Q(X) :- b(X), p(X, Y1).")});
  ViewSet views;
  EXPECT_TRUE(views.Add(Q("v1(X, Y) :- p(X, Y), r(Y).")).ok());
  EXPECT_TRUE(views.Add(Q("v2(X) :- p(X, Y).")).ok());
  for (Semantics sem : {Semantics::kSet, Semantics::kBag}) {
    out.push_back(Fixture{std::string("views-") + SemanticsToString(sem),
                          Q("Q(X, Y) :- p(X, Y), r(Y)."), Sigma({"p(X, Y) -> r(Y)."}),
                          sem, Schema(), views, Q("Q(X) :- p(X, Y).")});
  }
  return out;
}

TEST(SharedEngineReformulation, ResultsDoNotDependOnTheEngineOrMemoTier) {
  for (const Fixture& f : Fixtures()) {
    const Outcome reference = RunFixture(f, nullptr);

    // Warm: checks on the same context, a reformulation of another query,
    // and this query once already.
    EquivalenceEngine warm;
    EquivRequest request{f.semantics, f.sigma, f.schema};
    Unwrap(warm.Equivalent(f.q, f.other, request));
    Unwrap(warm.Equivalent(f.other, f.other, request));
    RunFixture(f.views.size() == 0 ? Fixture{f.name, f.other, f.sigma, f.semantics,
                                      f.schema, {}, f.q}
                            : f,
        &warm);
    RunFixture(f, &warm);

    // Disk: one engine warms a store, another re-attaches to it.
    const std::string dir = TempDir();
    {
      std::shared_ptr<MemoStore> store = OpenStore(dir);
      EquivalenceEngine writer;
      writer.set_memo_store(store);
      RunFixture(f, &writer);
    }
    std::shared_ptr<MemoStore> store = OpenStore(dir);

    const std::string& where = f.name;
    ExpectSame(RunFixture(f, nullptr), reference, where + " (one-shot)");

    EquivalenceEngine cold;
    ExpectSame(RunFixture(f, &cold), reference, where + " (cold)");

    const size_t hits_before = warm.cache_stats().hits;
    ExpectSame(RunFixture(f, &warm), reference, where + " (warm)");
    EXPECT_GT(warm.cache_stats().hits, hits_before)
        << where << ": the warm engine's memo served nothing";

    EquivalenceEngine reader;
    reader.set_memo_store(store);
    MetricsRegistry metrics;
    ExpectSame(RunFixture(f, &reader, &metrics), reference, where + " (disk)");
    EXPECT_GT(metrics.counter(metric::kMemoDiskHits).value(), 0u)
        << where << ": the re-attached store served nothing";
  }
}

TEST(SharedEngineReformulation, ConcurrentReformulationsMatchSerialResults) {
  // Different queries on one engine at once, twice over (the second round
  // meets a warm memo): every result equals its serial one-shot result.
  const std::vector<Fixture> fixtures = Fixtures();
  std::vector<Outcome> serial;
  for (const Fixture& f : fixtures) serial.push_back(RunFixture(f, nullptr));

  EquivalenceEngine shared;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::optional<Outcome>> got(fixtures.size());
    std::vector<std::thread> workers;
    constexpr size_t kWorkers = 4;
    for (size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (size_t i = w; i < fixtures.size(); i += kWorkers) {
          got[i] = RunFixture(fixtures[i], &shared);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (size_t i = 0; i < fixtures.size(); ++i) {
      ASSERT_TRUE(got[i].has_value());
      ExpectSame(*got[i], serial[i],
                 fixtures[i].name + " round " + std::to_string(round));
    }
  }
  EXPECT_GT(shared.cache_stats().hits, 0u);
}

}  // namespace
}  // namespace sqleq
