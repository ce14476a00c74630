// Tests for the EquivalenceEngine facade: evidence (chase results and
// witnesses; traces come from ExplainEquivalence), chase-memo reuse across
// calls, and ResourceBudget deadline enforcement.
#include "equivalence/engine.h"

#include <gtest/gtest.h>

#include <chrono>

#include "equivalence/bag_equivalence.h"
#include "equivalence/bag_set_equivalence.h"
#include "equivalence/explain.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Sigma;
using testing::Unwrap;

TEST(EquivalenceEngine, DecidesExample41PerSemantics) {
  // Q1 ≡Σ Q4 under S but not under B/BS (Example 4.1 / §6.3).
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  EquivalenceEngine engine;
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    EquivRequest request{sem, Example41Sigma(), Example41Schema(), {}};
    EquivVerdict verdict = Unwrap(engine.Equivalent(q1, q4, request));
    EXPECT_EQ(verdict.equivalent, sem == Semantics::kSet) << SemanticsToString(sem);
    EXPECT_EQ(verdict.semantics, sem);
  }
  // The set-semantics verdict specifically is "equivalent".
  EquivRequest set_request{Semantics::kSet, Example41Sigma(), Example41Schema(), {}};
  EXPECT_TRUE(Unwrap(engine.Equivalent(q1, q4, set_request)).equivalent);
}

TEST(EquivalenceEngine, VerdictCarriesTracesAndWitness) {
  DependencySet sigma = Sigma({"a(X) -> b(X)."});
  ConjunctiveQuery q1 = Q("Q1(X) :- a(X).");
  ConjunctiveQuery q2 = Q("Q2(X) :- a(X), b(X).");
  EquivalenceEngine engine;
  EquivVerdict v =
      Unwrap(engine.Equivalent(q1, q2, EquivRequest{Semantics::kSet, sigma, {}, {}}));
  EXPECT_TRUE(v.equivalent);
  // The verdict carries no traces (its chases are memoized); the uncached
  // ExplainEquivalence does. Q1's chase applies the tgd once, Q2's none.
  EquivalenceExplanation e =
      Unwrap(ExplainEquivalence(q1, q2, sigma, Semantics::kSet, Schema()));
  EXPECT_TRUE(e.equivalent);
  EXPECT_EQ(e.trace_q1.size(), 1u);
  EXPECT_TRUE(e.trace_q2.empty());
  // The chased queries are remapped onto the callers' variables.
  EXPECT_EQ(v.chased_q1.name(), "Q1");
  EXPECT_EQ(v.chased_q1.body().size(), 2u);
  ASSERT_EQ(v.chased_q1.head().size(), 1u);
  EXPECT_EQ(v.chased_q1.head()[0], Term::Var("X"));
  // Set semantics: containment mappings both ways.
  EXPECT_TRUE(v.witness_forward.has_value());
  EXPECT_TRUE(v.witness_backward.has_value());
}

TEST(EquivalenceEngine, NonEquivalentVerdictHasNoWitness) {
  EquivalenceEngine engine;
  EquivVerdict v = Unwrap(engine.Equivalent(
      Q("Q1(X) :- p(X, Y)."), Q("Q2(X) :- p(Y, X)."), EquivRequest{}));
  EXPECT_FALSE(v.equivalent);
  EXPECT_FALSE(v.witness_forward.has_value());
  EXPECT_FALSE(v.witness_backward.has_value());
}

TEST(EquivalenceEngine, BothChasesFailingMeansEquivalent) {
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  ConjunctiveQuery q1 = Q("Q1(X) :- s(X, 4), s(X, 5).");
  ConjunctiveQuery q2 = Q("Q2(X) :- s(X, 1), s(X, 2), p(X, Y).");
  EquivalenceEngine engine;
  EquivVerdict v = Unwrap(
      engine.Equivalent(q1, q2, EquivRequest{Semantics::kSet, sigma, {}, {}}));
  EXPECT_TRUE(v.q1_failed);
  EXPECT_TRUE(v.q2_failed);
  EXPECT_TRUE(v.equivalent);  // both empty on every D |= Σ
}

TEST(EquivalenceEngine, EmptySigmaBagMatchesTheorem21) {
  // With Σ = ∅ the facade's kBag verdict is Theorem 2.1(1) isomorphism —
  // exactly what the legacy bool entry point reports.
  ConjunctiveQuery a = Q("Q(X) :- p(X, Y), p(Y, Z).");
  ConjunctiveQuery b = Q("P(A) :- p(B, C), p(A, B).");
  ConjunctiveQuery c = Q("R(X) :- p(X, Y), p(Y, Z), p(X, W).");
  EquivalenceEngine engine;
  EXPECT_TRUE(
      Unwrap(engine.Equivalent(a, b, EquivRequest{Semantics::kBag, {}, {}, {}}))
          .equivalent);
  EXPECT_EQ(BagEquivalent(a, b), true);
  EXPECT_FALSE(
      Unwrap(engine.Equivalent(a, c, EquivRequest{Semantics::kBag, {}, {}, {}}))
          .equivalent);
  EXPECT_EQ(BagEquivalent(a, c), false);
  // And the BS wrapper still implements Theorem 2.1(2) duplicate-blindness.
  EXPECT_TRUE(BagSetEquivalent(Q("Q(X) :- p(X, Y)."), Q("Q(X) :- p(X, Y), p(X, Y).")));
  EXPECT_FALSE(BagEquivalent(Q("Q(X) :- p(X, Y)."), Q("Q(X) :- p(X, Y), p(X, Y).")));
}

TEST(EquivalenceEngine, RepeatCallsHitTheChaseMemo) {
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  EquivalenceEngine engine;
  EquivRequest request{Semantics::kSet, Example41Sigma(), Example41Schema(), {}};
  Unwrap(engine.Equivalent(q1, q4, request));
  EquivalenceEngine::CacheStats first = engine.cache_stats();
  EXPECT_EQ(first.contexts, 1u);
  EXPECT_EQ(first.misses, 2u);  // q1 and q4, both fresh
  EXPECT_EQ(first.hits, 0u);
  Unwrap(engine.Equivalent(q1, q4, request));
  EquivalenceEngine::CacheStats second = engine.cache_stats();
  EXPECT_EQ(second.contexts, 1u);
  EXPECT_EQ(second.misses, 2u);  // nothing re-chased
  EXPECT_EQ(second.hits, 2u);
}

TEST(EquivalenceEngine, DistinctSigmaDistinctContexts) {
  ConjunctiveQuery a = Q("Q(X) :- a(X).");
  ConjunctiveQuery b = Q("P(X) :- a(X), b(X).");
  EquivalenceEngine engine;
  Unwrap(engine.Equivalent(a, b, EquivRequest{Semantics::kSet, {}, {}, {}}));
  Unwrap(engine.Equivalent(
      a, b, EquivRequest{Semantics::kSet, Sigma({"a(X) -> b(X)."}), {}, {}}));
  EXPECT_EQ(engine.cache_stats().contexts, 2u);
}

TEST(EquivalenceEngine, ExpiredDeadlineReportsResourceExhausted) {
  EquivalenceEngine engine;
  EquivRequest request{Semantics::kSet, Sigma({"a(X) -> b(X)."}), {}, {}};
  request.context.budget.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Result<EquivVerdict> v =
      engine.Equivalent(Q("Q(X) :- a(X)."), Q("P(X) :- a(X), b(X)."), request);
  // Anytime contract: the expired deadline yields kUnknown, not an error.
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->verdict, Verdict::kUnknown);
  EXPECT_FALSE(v->equivalent);
  ASSERT_TRUE(v->exhaustion.has_value());
  EXPECT_EQ(v->exhaustion->limit, "deadline");
  EXPECT_NE(v->exhaustion->progress.find("deadline"), std::string::npos)
      << v->exhaustion->ToString();
}

}  // namespace
}  // namespace sqleq
