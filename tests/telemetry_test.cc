// util/telemetry and its engine instrumentation: counter/histogram
// semantics, span balance under concurrency (run under tsan via the test's
// label), MetricsRegistry totals vs the chase memo's own accounting, and
// the thread-count invariance contract — deterministic workloads produce
// identical counter totals and span multisets run over run.
#include "util/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase_cache.h"
#include "equivalence/engine.h"
#include "reformulation/candb.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Unwrap;

TEST(CounterTest, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  Histogram h;
  h.Record(0);   // bucket 0: v == 0
  h.Record(1);   // bucket 1: [1, 2)
  h.Record(2);   // bucket 2: [2, 4)
  h.Record(3);   // bucket 2
  h.Record(100);  // bucket 7: [64, 128)
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[7], 1u);
  EXPECT_DOUBLE_EQ(s.Mean(), 106.0 / 5.0);
  // The median sample (3) lives in bucket 2, upper bound 4.
  EXPECT_EQ(s.ApproxQuantile(0.5), 4u);
  EXPECT_EQ(s.ApproxQuantile(1.0), 128u);
  h.Reset();
  s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(MetricsRegistryTest, StableReferencesAndSnapshot) {
  MetricsRegistry registry;
  Counter& a = registry.counter("a");
  a.Add(3);
  // Second lookup returns the same instrument.
  EXPECT_EQ(&registry.counter("a"), &a);
  registry.histogram("h").Record(9);
  MetricsSnapshot s = registry.Snapshot();
  EXPECT_EQ(s.counters.at("a"), 3u);
  EXPECT_EQ(s.histograms.at("h").count, 1u);
  registry.Reset();
  // Reset zeroes values but keeps references valid.
  a.Add(1);
  EXPECT_EQ(registry.Snapshot().counters.at("a"), 1u);
}

TEST(MetricsRegistryTest, ConcurrentCountsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      Counter& c = registry.counter("shared");
      Histogram& h = registry.histogram("samples");
      for (int i = 0; i < kPerThread; ++i) {
        c.Add();
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  MetricsSnapshot s = registry.Snapshot();
  EXPECT_EQ(s.counters.at("shared"), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.histograms.at("samples").count, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.histograms.at("samples").max, uint64_t{kPerThread - 1});
}

/// Multiset of span names among the sink's Begin events.
std::vector<std::string> BeginNames(const TraceSink& sink) {
  std::vector<std::string> names;
  for (const TraceEvent& e : sink.events()) {
    if (e.phase == 'B') names.emplace_back(e.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(TraceSinkTest, BalancedNestedSpansAcrossThreadCounts) {
  for (int threads : {1, 4, 8}) {
    TraceSink sink;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&sink] {
        for (int i = 0; i < 100; ++i) {
          TraceSpan outer(&sink, "outer");
          TraceSpan inner(&sink, "inner");
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(sink.size(), static_cast<size_t>(threads) * 400);
    std::string error;
    EXPECT_TRUE(sink.CheckBalanced(&error)) << error;
    // Every thread got its own small-int tid.
    uint32_t max_tid = 0;
    for (const TraceEvent& e : sink.events()) max_tid = std::max(max_tid, e.tid);
    EXPECT_EQ(max_tid, static_cast<uint32_t>(threads - 1));
  }
}

TEST(TraceSinkTest, DetectsUnbalancedSpans) {
  TraceSink sink;
  sink.Begin("open");
  std::string error;
  EXPECT_FALSE(sink.CheckBalanced(&error));
  EXPECT_NE(error.find("open"), std::string::npos);

  sink.Clear();
  EXPECT_TRUE(sink.CheckBalanced());
  sink.Begin("a");
  sink.End("b");
  EXPECT_FALSE(sink.CheckBalanced(&error));
  EXPECT_NE(error.find("b"), std::string::npos);
}

TEST(TraceSinkTest, TidRegistrationSurvivesClear) {
  TraceSink sink;
  sink.Begin("x");
  sink.End("x");
  ASSERT_EQ(sink.events()[0].tid, 0u);
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
  sink.Begin("y");
  // Same thread, same tid after Clear.
  EXPECT_EQ(sink.events()[0].tid, 0u);
}

TEST(TraceSpanTest, NullSinkAndNullHistogramAreNoOps) {
  TraceSpan span(nullptr, "nothing");
  ScopedTimerUs timer(nullptr);
  // Reaching here without dereferencing null is the test.
  SUCCEED();
}

TEST(ScopedTimerTest, RecordsOneSample) {
  Histogram h;
  { ScopedTimerUs timer(&h); }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(TelemetryEngineTest, MemoMetricsMatchChaseMemoStats) {
  MetricsRegistry registry;
  ChaseRuntime runtime;
  runtime.metrics = &registry;
  ChaseMemo memo(Example41Sigma(), Semantics::kSet, Example41Schema(), {});
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  Unwrap(memo.Chase(q, runtime), "first chase");
  Unwrap(memo.Chase(q, runtime), "repeat chase");
  // Isomorphic variant: same canonical key, so a hit.
  Unwrap(memo.Chase(Q("Q(A) :- p(A, B)."), runtime), "isomorphic chase");

  ChaseMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  MetricsSnapshot s = registry.Snapshot();
  EXPECT_EQ(s.counters.at(metric::kMemoHits), stats.hits);
  EXPECT_EQ(s.counters.at(metric::kMemoMisses), stats.misses);
  EXPECT_EQ(s.counters.at(metric::kMemoInserts), stats.entries);
  EXPECT_GT(s.counters.at(metric::kMemoBytes), 0u);
  // The cache-miss chase ran under Σ with firing steps (a sound chase may
  // run several inner set chases, so runs is a lower bound).
  EXPECT_GE(s.counters.at(metric::kChaseRuns), 1u);
  EXPECT_GT(s.counters.at(metric::kChaseSteps), 0u);
}

TEST(TelemetryEngineTest, CandBCountersMatchResultAccounting) {
  MetricsRegistry registry;
  TraceSink trace;
  CandBOptions options;
  options.context.metrics = &registry;
  options.context.trace = &trace;
  ConjunctiveQuery q = Q("Q1(X) :- p(X, Y), s(X, Z), r(X).");
  CandBResult result =
      Unwrap(ChaseAndBackchase(q, Example41Sigma(), Semantics::kSet,
                               Example41Schema(), options));
  ASSERT_TRUE(result.complete);

  MetricsSnapshot s = registry.Snapshot();
  EXPECT_EQ(s.counters.at(metric::kBackchaseCandidates),
            result.candidates_examined);
  EXPECT_EQ(s.counters.at("backchase.cache_hits"), result.chase_cache_hits);
  EXPECT_EQ(s.counters.at("backchase.cache_misses"),
            result.chase_cache_misses);
  EXPECT_EQ(s.counters.at(metric::kBackchaseAccepted),
            result.reformulations.size());

  std::string error;
  EXPECT_TRUE(trace.CheckBalanced(&error)) << error;
  std::vector<std::string> names = BeginNames(trace);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "candb") == 1);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "backchase.sweep") == 1);
}

TEST(TelemetryEngineTest, EngineVerdictCountersBalance) {
  MetricsRegistry registry;
  EquivalenceEngine engine;
  DependencySet sigma = Example41Sigma();
  Schema schema = Example41Schema();

  EquivRequest request{Semantics::kSet, sigma, schema};
  request.context.metrics = &registry;
  Unwrap(engine.Equivalent(Q("Q(X) :- p(X, Y)."), Q("Q(A) :- p(A, B)."),
                           request),
         "equivalent pair");
  Unwrap(engine.Equivalent(Q("Q(X) :- p(X, Y)."), Q("Q(X) :- r(X)."), request),
         "inequivalent pair");

  MetricsSnapshot s = registry.Snapshot();
  EXPECT_EQ(s.counters.at(metric::kEngineEquivCalls), 2u);
  EXPECT_EQ(s.counters.at(metric::kEngineEquivEquivalent), 1u);
  EXPECT_EQ(s.counters.at(metric::kEngineEquivNotEquivalent), 1u);
  EXPECT_EQ(s.counters.count(metric::kEngineEquivUnknown), 0u);
}

/// Deterministic backchase workload: n pairwise non-isomorphic atoms over
/// distinct relations, so every lattice mask has a unique canonical key.
ConjunctiveQuery DistinctAtomQuery(int n) {
  std::string text = "Q(X) :- ";
  for (int i = 0; i < n; ++i) {
    if (i > 0) text += ", ";
    text += "p" + std::to_string(i) + "(X, Y" + std::to_string(i) + ")";
  }
  text += ".";
  return Q(text);
}

TEST(TelemetryEngineTest, IdenticalCallsRecordIdenticalTotals) {
  // Two identical calls record identical counter totals and span multisets.
  ConjunctiveQuery q = DistinctAtomQuery(5);
  auto run = [&q] {
    MetricsRegistry registry;
    TraceSink trace;
    CandBOptions options;
    options.context.metrics = &registry;
    options.context.trace = &trace;
    CandBResult result =
        Unwrap(ChaseAndBackchase(q, {}, Semantics::kSet, Schema(), options));
    EXPECT_TRUE(result.complete);
    std::string error;
    EXPECT_TRUE(trace.CheckBalanced(&error)) << error;
    return std::make_pair(registry.Snapshot().counters, BeginNames(trace));
  };
  auto [counters, spans] = run();
  EXPECT_GT(counters.at(metric::kChaseRuns), 0u);
  auto [again_counters, again_spans] = run();
  EXPECT_EQ(again_counters, counters);
  EXPECT_EQ(again_spans, spans);
}

}  // namespace
}  // namespace sqleq
